"""Deterministic DDIM inversion and sampling over a pluggable denoiser.

Inversion walks a clean latent video up the noise schedule using the
denoiser's own predictions and yields every intermediate latent, because
guidance compares reference and target features at matching timesteps;
the trajectory archive takes them one at a time.
Sampling walks back down, optionally correcting the latents with the
motion-guidance update before each denoising step.

The stand-in denoiser is a Gaussian mixture over an atlas of clean
latent videos: its noise prediction comes from the closed-form posterior
mean of the mixture at the current noise level, so samples are pulled
toward plausible videos while remaining cheap and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import BadValue, DimMismatch, NonFinite
from .guidance import GuidanceConfig, GuidanceTarget, guided_update
from .tensors import (
    REQUIRED,
    LatentVideo,
    load_tensor,
    read_json,
    remove_file,
    typed_field,
    typed_numbers,
    write_array,
    write_json,
)


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Cumulative signal coefficients alpha_bar[0..n_steps], strictly decreasing from 1."""

    alpha_bar: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha_bar, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise DimMismatch(f"alpha_bar must be a 1-D vector, got shape {arr.shape}")
        if arr[0] != 1.0:
            raise BadValue(f"alpha_bar[0] must be 1.0, got {arr[0]}")
        if np.any(arr <= 0) or np.any(arr > 1):
            raise BadValue("alpha_bar values must lie in (0, 1]")
        if arr.size > 1 and not np.all(np.diff(arr) < 0):
            raise BadValue("alpha_bar must be strictly decreasing")
        arr = np.array(arr, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha_bar", arr)

    @property
    def n_steps(self) -> int:
        return self.alpha_bar.size - 1

    @classmethod
    def default(cls, n_steps: int = 20, power: float = 2.0, floor: float = 1e-4) -> "NoiseSchedule":
        """alpha_bar[t] = floor + (1 - floor) * (1 - t/(n+1))**power.

        The affine floor keeps the sequence strictly decreasing even when
        the raw power curve would dip below the floor.
        """
        if n_steps < 0:
            raise BadValue(f"n_steps must be >= 0, got {n_steps}")
        t = np.arange(n_steps + 1, dtype=np.float64)
        base = (1.0 - t / (n_steps + 1)) ** power
        return cls(floor + (1.0 - floor) * base)


class Denoiser(Protocol):
    """Deterministic map (float64 latents, timestep) -> predicted noise of identical shape."""

    def predict_noise(self, z: np.ndarray, t: int) -> np.ndarray: ...


class ZeroDenoiser:
    """Predicts zero noise everywhere; collapses both recursions to pure scalings."""

    def predict_noise(self, z: np.ndarray, t: int) -> np.ndarray:
        return np.zeros(z.shape)


class GaussianAtlasDenoiser:
    """Noise prediction from the posterior mean of a Gaussian mixture.

    Components sit on the atlas members with isotropic variance
    ``bandwidth**2``. At noise level alpha_bar the observation model is
    z = sqrt(ab) x + sqrt(1-ab) eps, so the posterior over x given z is a
    re-weighted mixture whose mean has a closed form; the predicted noise
    is read back from the forward relation. At t = 0 there is no noise to
    predict and the output is zero.

    The members are stacked once with their squared norms. A call reads the
    atlas once for the K inner products with z, then reads the members whose
    weight is not zero for the weighted mean, summed in member order. Neither
    reduction goes through BLAS, so the output bytes do not depend on the
    BLAS thread count; a matmul would, as OpenBLAS gemv splits its sums
    differently per thread count.

    The full-size arithmetic runs in place, in the order the formulas are
    written, into buffers the call allocates itself: the accumulator of the
    weighted mean and one scratch buffer, which becomes the returned mean
    and, in ``predict_noise``, the returned noise. The caller's ``z`` is
    only read.
    """

    def __init__(
        self,
        atlas: Sequence[LatentVideo],
        schedule: NoiseSchedule,
        bandwidth: float = 0.5,
    ):
        if not atlas:
            raise BadValue("atlas must contain at least one latent video")
        shape = atlas[0].shape
        for member in atlas:
            if member.shape != shape:
                raise DimMismatch(f"atlas member shape {member.shape} != {shape}")
        if not 0 < bandwidth < np.inf:
            raise BadValue(f"bandwidth must be finite and positive, got {bandwidth}")
        self.members = np.stack([m.data for m in atlas], dtype=np.float64)
        self.members.setflags(write=False)
        self._flat = self.members.reshape(len(atlas), -1)
        self._sq_norms = np.einsum("kn,kn->k", self._flat, self._flat)
        self.schedule = schedule
        self.bandwidth = float(bandwidth)

    def posterior_mean(self, z: np.ndarray, t: int) -> np.ndarray:
        if z.shape != self.members.shape[1:]:
            raise DimMismatch(f"latents {z.shape} do not match atlas members "
                              f"{self.members.shape[1:]}")
        ab = float(self.schedule.alpha_bar[t])
        c = np.sqrt(ab)
        var = ab * self.bandwidth**2 + (1.0 - ab)
        # ||z - c m_k||^2 = ||z||^2 - 2c <m_k, z> + ab ||m_k||^2. The ||z||^2 term is
        # the same for every k, so the max-shifted softmax drops it; d2 may go negative.
        d2 = ab * self._sq_norms - 2.0 * c * np.einsum("kn,n->k", self._flat, z.reshape(-1))
        logw = -d2 / (2.0 * var)
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        # Over many cells the distances differ by far more than var, so exp underflows
        # to exactly 0 for all but the nearest members; only those are read.
        mean_member = np.zeros(self._flat.shape[1])
        x_hat = np.empty_like(mean_member)
        for k in np.flatnonzero(w):
            np.multiply(w[k], self._flat[k], out=x_hat)
            mean_member += x_hat
        mean_member = mean_member.reshape(z.shape)
        x_hat = x_hat.reshape(z.shape)
        # mean + shrink * (z - c * mean)
        shrink = c * self.bandwidth**2 / var
        np.multiply(c, mean_member, out=x_hat)
        np.subtract(z, x_hat, out=x_hat)
        x_hat *= shrink
        x_hat += mean_member
        return x_hat

    def predict_noise(self, z: np.ndarray, t: int) -> np.ndarray:
        ab = float(self.schedule.alpha_bar[t])
        rem = 1.0 - ab
        if rem <= 1e-12:
            return np.zeros(z.shape)
        # (z - sqrt(ab) * x_hat) / sqrt(rem), in the buffer posterior_mean returned
        eps = self.posterior_mean(z, t)
        eps *= np.sqrt(ab)
        np.subtract(z, eps, out=eps)
        eps /= np.sqrt(rem)
        return eps


def _ddim_step(
    denoiser: Denoiser, z: np.ndarray, ab: np.ndarray, t: int, t_next: int
) -> np.ndarray:
    """One deterministic DDIM move of the latents from timestep t to t_next, either way.

    Only the two arrays allocated here are written: ``z`` and the denoiser's
    output may be buffers their owners keep, or read-only.
    """
    eps = np.asarray(denoiser.predict_noise(z, t), dtype=np.float64)
    if eps.shape != z.shape:
        raise DimMismatch(f"denoiser returned shape {eps.shape}, expected {z.shape}")
    if not np.all(np.isfinite(eps)):
        raise NonFinite(f"denoiser produced non-finite values at t={t}")
    # x0_hat = (z - sqrt(1 - ab[t]) * eps) / sqrt(ab[t])
    x0_hat = np.multiply(np.sqrt(1.0 - ab[t]), eps)
    np.subtract(z, x0_hat, out=x0_hat)
    x0_hat /= np.sqrt(ab[t])
    # z = sqrt(ab[t_next]) * x0_hat + sqrt(1 - ab[t_next]) * eps, the second
    # product taken into x0_hat once it is read
    z = np.multiply(np.sqrt(ab[t_next]), x0_hat)
    np.multiply(np.sqrt(1.0 - ab[t_next]), eps, out=x0_hat)
    z += x0_hat
    if not np.all(np.isfinite(z)):
        raise NonFinite(f"DDIM step produced non-finite latents at t={t_next}")
    return z


def ddim_invert_steps(
    z0: LatentVideo, schedule: NoiseSchedule, denoiser: Denoiser
) -> Iterator[np.ndarray]:
    """Deterministic inversion from t=0 to t=n_steps, one latent at a time.

    Yields the float64 latents at t = 0..n_steps, each a read-only array of
    its own that ``_ddim_step`` has checked finite. The generator drops its
    reference once the next step is taken, so a consumer that writes each
    latent out holds about one at a time.
    """
    z = z0.data.astype(np.float64, copy=True)
    z.setflags(write=False)
    yield z
    for t in range(schedule.n_steps):
        z = _ddim_step(denoiser, z, schedule.alpha_bar, t, t + 1)
        z.setflags(write=False)
        yield z


def ddim_invert(
    z0: LatentVideo, schedule: NoiseSchedule, denoiser: Denoiser
) -> list[LatentVideo]:
    """Deterministic inversion from t=0 to t=n_steps; returns the full trajectory."""
    return [LatentVideo(z) for z in ddim_invert_steps(z0, schedule, denoiser)]


@dataclass
class SamplingGuidance:
    """Everything the sampler needs to run guided updates.

    ``targets`` maps each guided timestep to its guidance problem, built
    from the reference descriptors extracted from the inversion trajectory
    at that same timestep. The trace records every inner-step loss.
    """

    config: GuidanceConfig
    targets: Mapping[int, GuidanceTarget]
    trace: list[dict] = field(default_factory=list)


def ddim_sample(
    zT: LatentVideo,
    schedule: NoiseSchedule,
    denoiser: Denoiser,
    guidance: SamplingGuidance | None = None,
) -> LatentVideo:
    """Deterministic reverse recursion from t=n_steps down to 0.

    At each timestep that has a guidance target, the latents are corrected
    with the motion-guidance update before the denoising step so the
    denoiser itself stays untouched.
    """
    z = zT.data.astype(np.float64, copy=True)
    targets = guidance.targets if guidance is not None else {}
    for t in range(schedule.n_steps, 0, -1):
        if t in targets:
            updated, losses = guided_update(LatentVideo(z), targets[t], guidance.config)
            z = updated.data
            for k, value in enumerate(losses):
                guidance.trace.append({"timestep": t, "inner_step": k, "loss": value})
        z = _ddim_step(denoiser, z, schedule.alpha_bar, t, t - 1)
    return LatentVideo(z)


def make_initial_noise(
    reference_zT: LatentVideo, mode: str = "shared", seed: int = 0
) -> LatentVideo:
    """Initial latents for sampling: the reference terminal, or seeded fresh noise."""
    if seed < 0:
        raise BadValue(f"noise seed must be >= 0, got {seed}")
    if mode == "shared":
        return reference_zT
    if mode == "fresh":
        rng = np.random.default_rng(np.random.PCG64(seed))
        return LatentVideo(rng.standard_normal(reference_zT.shape))
    raise BadValue(f"unknown initial-noise mode {mode!r}")


# --- trajectory archive -----------------------------------------------------


def trajectory_path(dir_path, t: int) -> Path:
    """The file that holds the latents at timestep ``t`` of a trajectory archive."""
    return Path(dir_path) / f"t{t:03d}.cmt"


def save_trajectory(
    trajectory: Iterable[LatentVideo | np.ndarray], schedule: NoiseSchedule, out_dir
) -> None:
    """Archive the latents at t = 0..n_steps: ``t###.cmt`` files, then ``index.json``.

    ``trajectory`` may be any iterable, a generator such as
    ``ddim_invert_steps`` included: each latent is written as it arrives,
    so only the one in hand is held. The latents are counted as they come,
    and a trajectory whose length is not ``n_steps + 1`` raises DimMismatch
    with no index written. An index already in ``out_dir`` is removed before
    the first write, and the new one is written after the last file, so a
    rewrite that fails half way leaves an archive no reader accepts, never
    old files mixed with new under an old index.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = out_dir / "index.json"
    remove_file(index)
    want = schedule.n_steps + 1
    files = {}
    for t, lat in enumerate(trajectory):
        if t == want:
            raise DimMismatch(f"trajectory has more than {want} entries, schedule wants {want}")
        path = trajectory_path(out_dir, t)
        write_array(path, lat.data if isinstance(lat, LatentVideo) else lat)
        files[str(t)] = path.name
    if len(files) != want:
        raise DimMismatch(f"trajectory has {len(files)} entries, schedule wants {want}")
    write_json(
        index,
        {
            "n_steps": schedule.n_steps,
            "alpha_bar": [float(a) for a in schedule.alpha_bar],
            "files": files,
        },
    )


def read_trajectory_index(dir_path) -> NoiseSchedule:
    """The schedule of the trajectory archive in ``dir_path``, read from its index.

    The index must agree with itself: ``n_steps`` is a JSON integer,
    ``alpha_bar`` holds ``n_steps + 1`` numbers and ``files`` maps exactly
    the timesteps 0..n_steps, each t to the file ``t###.cmt``.
    """
    dir_path = Path(dir_path)
    what = f"trajectory index {dir_path}"
    index = read_json(dir_path / "index.json")
    n_steps = typed_field(index, "n_steps", int, REQUIRED, what)
    alpha_bar = typed_field(index, "alpha_bar", list, REQUIRED, what)
    schedule = NoiseSchedule(np.asarray(typed_numbers(alpha_bar, None, f"{what}: alpha_bar")))
    if schedule.n_steps != n_steps:
        raise BadValue(
            f"{dir_path}: index says n_steps {n_steps} but alpha_bar has "
            f"{schedule.n_steps + 1} values"
        )
    files = typed_field(index, "files", dict, REQUIRED, what)
    if files != {str(t): trajectory_path(dir_path, t).name for t in range(n_steps + 1)}:
        raise BadValue(f"{dir_path}: index files must map each timestep 0..{n_steps} to t###.cmt")
    return schedule


def load_trajectory(dir_path, timesteps=None) -> tuple[list[LatentVideo], NoiseSchedule]:
    """The latents at t = 0..n_steps and their schedule, as the index lists them.

    ``read_trajectory_index`` checks the index. ``timesteps`` (default: all
    of them) picks which tensors to read, in the order given; each must lie
    in 0..n_steps, and an empty selection reads the index alone.
    """
    schedule = read_trajectory_index(dir_path)
    n_steps = schedule.n_steps
    if timesteps is None:
        timesteps = range(n_steps + 1)
    for t in timesteps:
        if t not in range(n_steps + 1):
            raise BadValue(f"{dir_path}: trajectory has no timestep {t!r} (0..{n_steps})")
    return [load_tensor(trajectory_path(dir_path, t)) for t in timesteps], schedule

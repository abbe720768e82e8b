"""Deterministic DDIM inversion and sampling over a pluggable denoiser.

Inversion walks a clean latent video up the noise schedule using the
denoiser's own predictions and keeps every intermediate latent, because
guidance compares reference and target features at matching timesteps.
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
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import BadValue, DimMismatch, NonFinite
from .guidance import GuidanceConfig, GuidanceTarget, guided_update
from .tensors import LatentVideo, load_tensor, read_json, save_tensor, write_json


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
        if not bandwidth > 0:
            raise BadValue(f"bandwidth must be positive, got {bandwidth}")
        self.members = np.stack([m.data for m in atlas], dtype=np.float64)
        self.members.setflags(write=False)
        self._flat = self.members.reshape(len(atlas), -1)
        self._sq_norms = np.einsum("kn,kn->k", self._flat, self._flat)
        self.schedule = schedule
        self.bandwidth = float(bandwidth)

    def posterior_mean(self, z: np.ndarray, t: int) -> np.ndarray:
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
        for k in np.flatnonzero(w):
            mean_member += w[k] * self._flat[k]
        mean_member = mean_member.reshape(z.shape)
        shrink = c * self.bandwidth**2 / var
        return mean_member + shrink * (z - c * mean_member)

    def predict_noise(self, z: np.ndarray, t: int) -> np.ndarray:
        ab = float(self.schedule.alpha_bar[t])
        rem = 1.0 - ab
        if rem <= 1e-12:
            return np.zeros(z.shape)
        x_hat = self.posterior_mean(z, t)
        return (z - np.sqrt(ab) * x_hat) / np.sqrt(rem)


def _ddim_step(
    denoiser: Denoiser, z: np.ndarray, ab: np.ndarray, t: int, t_next: int
) -> np.ndarray:
    """One deterministic DDIM move of the latents from timestep t to t_next, either way."""
    eps = np.asarray(denoiser.predict_noise(z, t), dtype=np.float64)
    if eps.shape != z.shape:
        raise DimMismatch(f"denoiser returned shape {eps.shape}, expected {z.shape}")
    if not np.all(np.isfinite(eps)):
        raise NonFinite(f"denoiser produced non-finite values at t={t}")
    x0_hat = (z - np.sqrt(1.0 - ab[t]) * eps) / np.sqrt(ab[t])
    z = np.sqrt(ab[t_next]) * x0_hat + np.sqrt(1.0 - ab[t_next]) * eps
    if not np.all(np.isfinite(z)):
        raise NonFinite(f"DDIM step produced non-finite latents at t={t_next}")
    return z


def ddim_invert(
    z0: LatentVideo, schedule: NoiseSchedule, denoiser: Denoiser
) -> list[LatentVideo]:
    """Deterministic inversion from t=0 to t=n_steps; returns the full trajectory."""
    z = z0.data.astype(np.float64, copy=True)
    trajectory = [LatentVideo(z)]
    for t in range(schedule.n_steps):
        z = _ddim_step(denoiser, z, schedule.alpha_bar, t, t + 1)
        trajectory.append(LatentVideo(z))
    return trajectory


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
    if mode == "shared":
        return reference_zT
    if mode == "fresh":
        rng = np.random.default_rng(np.random.PCG64(seed))
        return LatentVideo(rng.standard_normal(reference_zT.shape))
    raise BadValue(f"unknown initial-noise mode {mode!r}")


# --- trajectory archive -----------------------------------------------------


def save_trajectory(trajectory: Sequence[LatentVideo], schedule: NoiseSchedule, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(trajectory) != schedule.n_steps + 1:
        raise DimMismatch(
            f"trajectory has {len(trajectory)} entries, schedule wants {schedule.n_steps + 1}"
        )
    files = {}
    for t, lat in enumerate(trajectory):
        name = f"t{t:03d}.cmt"
        save_tensor(lat, out_dir / name)
        files[str(t)] = name
    write_json(
        out_dir / "index.json",
        {
            "n_steps": schedule.n_steps,
            "alpha_bar": [float(a) for a in schedule.alpha_bar],
            "files": files,
        },
    )


def load_trajectory(dir_path) -> tuple[list[LatentVideo], NoiseSchedule]:
    """The latents at t = 0..n_steps and their schedule, as the index lists them.

    The index must agree with itself: ``alpha_bar`` holds ``n_steps + 1``
    values and ``files`` names exactly the timesteps 0..n_steps.
    """
    dir_path = Path(dir_path)
    index = read_json(dir_path / "index.json")
    try:
        schedule = NoiseSchedule(np.asarray(index["alpha_bar"], dtype=np.float64))
        n_steps = int(index["n_steps"])
        files = dict(index["files"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadValue(
            f"{dir_path}: malformed trajectory index ({type(exc).__name__}: {exc})"
        ) from exc
    if schedule.n_steps != n_steps:
        raise BadValue(
            f"{dir_path}: index says n_steps {n_steps} but alpha_bar has "
            f"{schedule.n_steps + 1} values"
        )
    if sorted(files) != sorted(str(t) for t in range(n_steps + 1)):
        raise BadValue(f"{dir_path}: index files must list exactly the timesteps 0..{n_steps}")
    return [load_tensor(dir_path / str(files[str(t)])) for t in range(n_steps + 1)], schedule

"""Deterministic DDIM inversion and sampling over a pluggable denoiser.

Inversion walks a clean latent video up the noise schedule using the
denoiser's own predictions and yields every intermediate latent, because
guidance compares reference and target features at matching timesteps;
extraction takes them one at a time, and only z_T is stored.
Sampling walks back down, optionally correcting the latents with the
motion-guidance update before each denoising step.

The stand-in denoiser is a Gaussian mixture over an atlas of clean latent
videos. Its noise prediction, an affine form in the latents, comes from the
mixture's closed-form posterior mean at the current noise level, so samples
are pulled toward plausible videos, cheaply and deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import BadValue, DimMismatch, NonFinite
from .guidance import GuidanceConfig, GuidanceTarget, guided_update
from .tensors import LatentVideo, read_json, typed_fields, typed_numbers


# 200 times the 50 steps of the largest benchmark workload; a larger count
# would only allocate its way to a MemoryError
MAX_STEPS = 10_000


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
        the raw power curve would dip below the floor. ``n_steps`` may not
        exceed ``MAX_STEPS``.
        """
        if not 0 <= n_steps <= MAX_STEPS:
            raise BadValue(f"n_steps must be in 0..{MAX_STEPS}, got {n_steps}")
        t = np.arange(n_steps + 1, dtype=np.float64)
        base = (1.0 - t / (n_steps + 1)) ** power
        return cls(floor + (1.0 - floor) * base)


AffineForm = tuple[float, tuple[tuple[float, np.ndarray], ...]]


class Denoiser(Protocol):
    """Deterministic map (float64 latents z, timestep) -> the predicted noise as an affine form.

    ``predict_noise(z, t)`` returns ``(a, terms)``: eps = a z + sum c_k v_k over the
    ``(c_k, v_k)`` pairs of ``terms``, whose arrays the sampler only reads, and only
    until the next call. A denoiser that computes eps outright returns
    ``(0.0, ((1.0, eps),))``.
    """

    def predict_noise(self, z: np.ndarray, t: int) -> AffineForm: ...


class ZeroDenoiser:
    """Predicts zero noise everywhere; collapses both recursions to pure scalings."""

    def predict_noise(self, z: np.ndarray, t: int) -> AffineForm:
        return 0.0, ()


_UNIT_ROUNDOFF = 2.0**-53
# exp(x) underflows to exactly 0 below x = -745.13; a member whose log-weight is
# certified to lie this far below another's has weight 0 whether it is read or not
_CERTIFY_GAP = 800.0


def _gamma(n: int) -> float:
    """gamma_n = nu / (1 - nu): a float sum of n products errs by at most gamma_n sum |x_i y_i|."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


class _CarriedBounds:
    """One run's bounds on the inner products <m_k, z> of its latents z.

    ``est`` holds K estimates with |est_k - <m_k, z>| <= ``err`` ||m_k||, and
    ``znorm`` >= ||z||; ``est`` is None until a call has read every row. The
    denoiser records the members its form's terms are in ``kept``, so a DDIM
    step z' = alpha z + sum_j beta_j m_kept[j] gives <m_k, z'> =
    alpha <m_k, z> + (G y)_k + <m_k, r>, with y the betas scattered onto the
    kept members, the atlas Gram G, and r the rounding of the step. By
    Cauchy-Schwarz each gamma_n allowance (of G, G y and r) is a multiple of
    ||m_k||, so one scalar carries them all; the constants cover them twice
    over. The bounds only choose the rows a call skips, and the rows read are
    read as in a full read.
    """

    def __init__(self, denoiser: GaussianAtlasDenoiser):
        self.den, self.est, self.kept = denoiser, None, None

    def live(self, c: float, ab: float, var: float) -> np.ndarray:
        """The members whose weight may be non-zero, in member order; without finite bounds, all.

        Every other member's log-weight, as the full formula computes it from
        a computed <m_k, z>, lies more than ``_CERTIFY_GAP`` below the largest.
        """
        den, every = self.den, np.arange(len(self.den.members))
        if self.est is None:
            return every
        with np.errstate(all="ignore"):
            rad = den._norms * (self.err + den._gam * self.znorm)  # |computed <m_k, z> - est_k|
            size = ab * den._sq_norms + 2.0 * c * (np.abs(self.est) + rad)
            center = (2.0 * c * self.est - ab * den._sq_norms) / (2.0 * var)
            half = c * rad / var + 16 * _UNIT_ROUNDOFF * size / (2.0 * var)
            upper, best = center + half, float(np.max(center - half))
        if not (np.isfinite(best) and np.all(np.isfinite(upper))):
            return every
        return np.flatnonzero(upper >= best - _CERTIFY_GAP - 4 * _UNIT_ROUNDOFF * abs(best))

    def record(self, zf: np.ndarray, ip: np.ndarray | None, kept: np.ndarray) -> None:
        """After a call: a full read's products become the estimates; keep the terms' members."""
        if self.est is None:
            with np.errstate(all="ignore"):  # an overflowing norm only makes the bounds vacuous
                zz = float(np.einsum("n,n->", zf, zf))
                self.znorm = math.sqrt(zz * (1.0 + self.den._gam))
            self.est, self.err = ip, self.den._gam * self.znorm
        self.kept = kept

    def advance(self, coefs: Sequence[float]) -> None:
        """Carry the bounds to the latents alpha z + sum_j beta_j m_kept[j] that ``coefs`` made."""
        if self.est is None:
            return
        den, alpha, betas = self.den, abs(coefs[0]), np.array(coefs[1:], dtype=np.float64)
        kept = self.kept[:betas.size]  # none at t = 0, whose noise form has no terms
        gam = _gamma((kept.size + 1) * (len(den.members) + 1) + 4)  # covers spread's sum
        with np.errstate(all="ignore"):
            # bounds sum_j |beta_j| ||m_kept[j]||
            spread = float(np.einsum("j,j->", np.abs(betas), den._norms[kept]))
            y = np.zeros(len(den.members))
            y[kept] = betas
            self.est = coefs[0] * self.est + np.einsum("kl,l->k", den._gram, y)
            self.err = (alpha * self.err + (den._gam + 8 * gam) * spread
                        + 2 * gam * alpha * (self.znorm + self.err)) * (1.0 + 16 * _UNIT_ROUNDOFF)
            self.znorm = (alpha * self.znorm + spread) * (1.0 + 8 * gam)


def _carried_bounds(denoiser: Denoiser) -> _CarriedBounds | None:
    """Fresh bounds for one run over the atlas denoiser; a custom denoiser takes none."""
    return _CarriedBounds(denoiser) if isinstance(denoiser, GaussianAtlasDenoiser) else None


def check_bandwidth(bandwidth: float) -> float:
    """``bandwidth`` as a float, once it is positive and its square, which the
    denoiser takes, is a finite float64."""
    bandwidth = float(bandwidth)
    if not (bandwidth > 0 and bandwidth * bandwidth < math.inf):
        raise BadValue(f"bandwidth must be finite and positive, with a finite square, "
                       f"got {bandwidth}")
    return bandwidth


class GaussianAtlasDenoiser:
    """Noise prediction from the posterior mean of a Gaussian mixture.

    Components sit on the atlas members with isotropic variance
    ``bandwidth**2``. At noise level alpha_bar the observation model is
    z = sqrt(ab) x + sqrt(1-ab) eps, so the posterior over x given z is a
    re-weighted mixture whose mean s z + (1 - c s) sum w_k m_k, with
    c = sqrt(ab) and s = c bandwidth**2 / var, is affine in z, as is the
    noise read back from the forward relation. Both methods return that
    affine form (see ``Denoiser``); at t = 0 the noise form is zero.

    ``atlas`` is a list of latent videos, stacked here, or a float64
    (K, F, C, H, W) stack of finite members, which is kept as it is (read-only
    from then on); that lets a caller fill the stack one member at a time and
    never hold a second copy. The squared norms and the Gram are taken once,
    and a call reads members for the inner products <m_k, z>, which give the
    weights. Every product is a fixed-order einsum, never BLAS: OpenBLAS
    splits its sums differently per thread count. The form's terms are the
    members of non-zero weight, in member order, as read-only views of
    ``members``; a call allocates no latent-sized array.

    Over many cells most weights underflow to exactly 0. The samplers pass
    both methods the bounds their run carries (``_bounds``), and a call skips
    the members whose weight the bounds certify is 0. It reads, as one view,
    the rows from the first uncertified member to the last; a view of two
    rows or more gives the bytes of the full product. A lone uncertified
    member is not read at all: its weight is exp(0) / 1 = 1.0, as the full
    formula computes it, and it is the one term. The softmax runs over
    all K log-weights, with -inf at the members not read, so every weight's
    byte is the same as with every member read. Without bounds a call reads
    every row.

    ``calls``, ``certified_members``, ``member_rows_read`` (rows read for
    inner products) and ``single_survivor_calls`` count what the calls did.
    The caller's ``z`` is only read.
    """

    def __init__(
        self,
        atlas: Sequence[LatentVideo] | np.ndarray,
        schedule: NoiseSchedule,
        bandwidth: float = 0.5,
    ):
        stacked = isinstance(atlas, np.ndarray)
        if stacked and (atlas.dtype != np.float64 or atlas.ndim != 5
                        or not atlas.flags.c_contiguous):
            raise DimMismatch(f"an atlas stack must be a C-ordered float64 (K, F, C, H, W) "
                              f"array, got {atlas.dtype} {atlas.shape}")
        if len(atlas) == 0:
            raise BadValue("atlas must contain at least one latent video")
        for member in () if stacked else atlas:
            if member.shape != atlas[0].shape:
                raise DimMismatch(f"atlas member shape {member.shape} != {atlas[0].shape}")
        self.bandwidth = check_bandwidth(bandwidth)
        self.members = atlas if stacked else np.stack([m.data for m in atlas], dtype=np.float64)
        self.members.setflags(write=False)
        self._flat = self.members.reshape(len(atlas), -1)
        self._sq_norms = np.einsum("kn,kn->k", self._flat, self._flat)
        # for the carried bounds: one product's allowance, with norms from computed
        # squares, upper bounds on ||m_k||, and the Gram
        self._gam = 2.0 * _gamma(self._flat.shape[1])
        self._norms = np.sqrt(self._sq_norms * (1.0 + self._gam))
        # the lower triangle, one dot per entry, mirrored: half the full product's
        # work, and the bounds' allowances hold for any summation order
        self._gram = gram = np.empty((len(self._flat),) * 2)
        for k, m in enumerate(self._flat):
            for l in range(k + 1):
                gram[k, l] = gram[l, k] = np.einsum("n,n->", self._flat[l], m)
        self.schedule = schedule
        self.calls = self.certified_members = self.member_rows_read = self.single_survivor_calls = 0

    def posterior_mean(self, z: np.ndarray, t: int, *,
                       _bounds: _CarriedBounds | None = None) -> AffineForm:
        if z.shape != self.members.shape[1:]:
            raise DimMismatch(f"latents {z.shape} do not match atlas members "
                              f"{self.members.shape[1:]}")
        ab = float(self.schedule.alpha_bar[t])
        c = np.sqrt(ab)
        var = ab * self.bandwidth**2 + (1.0 - ab)
        zf = z.reshape(-1)
        n_members = len(self._flat)
        self.calls += 1
        skipping = _bounds is not None and _bounds.est is not None
        live = np.arange(n_members) if _bounds is None else _bounds.live(c, ab, var)
        first, last = int(live[0]), int(live[-1]) + 1
        self.certified_members += n_members - live.size
        # Members outside rows first:last are certified: their weight underflows to
        # exactly 0 either way, so they take log-weight -inf unread.
        logw = np.full(n_members, -np.inf)
        ip = None
        if skipping and last - first == 1:
            logw[first] = 0.0  # the lone survivor's weight exp(0) / 1 needs no product
            self.single_survivor_calls += 1
        else:
            ip = np.einsum("kn,n->k", self._flat[first:last], zf)
            self.member_rows_read += last - first
            # ||z - c m_k||^2 = ||z||^2 - 2c <m_k, z> + ab ||m_k||^2. The ||z||^2 term is
            # the same for every k, so the max-shifted softmax drops it; d2 may go negative.
            d2 = ab * self._sq_norms[first:last] - 2.0 * c * ip
            logw[first:last] = -d2 / (2.0 * var)
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        # mean + shrink * (z - c * mean) = shrink * z + (1 - c * shrink) * mean
        shrink = c * self.bandwidth**2 / var
        keep = 1.0 - c * shrink
        # over many cells exp underflows to exactly 0 for all but the nearest members
        kept = np.flatnonzero(w)
        if _bounds is not None:
            _bounds.record(zf, ip, kept)
        return shrink, tuple((keep * w[k], self.members[k]) for k in kept)

    def predict_noise(self, z: np.ndarray, t: int, *,
                      _bounds: _CarriedBounds | None = None) -> AffineForm:
        ab = float(self.schedule.alpha_bar[t])
        rem = 1.0 - ab
        if rem <= 1e-12:
            return 0.0, ()
        # (z - sqrt(ab) * x_hat) / sqrt(rem), with x_hat = s z + sum c_k v_k
        s, terms = self.posterior_mean(z, t, _bounds=_bounds)
        c, root = np.sqrt(ab), np.sqrt(rem)
        return (1.0 - c * s) / root, tuple((-c * ck / root, v) for ck, v in terms)


_BLOCK = 32_768  # float64 cells per block of a DDIM step: its two rows (512 KiB) stay in L2


def _block_buffer(size: int) -> np.ndarray:
    return np.empty((2, min(_BLOCK, (size + 1) // 2)))  # two rows: a cell more than z at most


def _ddim_step(
    denoiser: Denoiser, z: np.ndarray, ab: np.ndarray, t: int, t_next: int,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
    bounds: _CarriedBounds | None = None,
) -> np.ndarray:
    """One deterministic DDIM move of the latents from timestep t to t_next, either way.

    The move sqrt(ab[t_next]) x0_hat + sqrt(1 - ab[t_next]) eps, with
    x0_hat = (z - sqrt(1 - ab[t]) eps) / sqrt(ab[t]), is A z + B eps; the
    denoiser's eps = a z + sum c_k v_k makes it (A + B a) z + sum B c_k v_k,
    summed in term order by fixed-order ufuncs a block of cells at a time in the
    block-sized ``scratch``, checked finite, then stored into the C-ordered ``out``
    (both allocated when not given). ``out`` is z itself, even when a term is z, or
    aliases nothing the step reads; NonFinite may leave it partly written. The
    run's ``bounds`` for z go to the denoiser, then follow the step.
    """
    a, terms = (denoiser.predict_noise(z, t) if bounds is None
                else denoiser.predict_noise(z, t, _bounds=bounds))
    scale = np.sqrt(ab[t_next]) / np.sqrt(ab[t])
    mix = np.sqrt(1.0 - ab[t_next]) - scale * np.sqrt(1.0 - ab[t])
    coefs = [scale + mix * a] + [mix * ck for ck, _ in terms]
    if not np.all(np.isfinite(coefs)):
        raise NonFinite(f"denoiser produced non-finite values at t={t}")
    arrays = [np.asarray(v, dtype=np.float64) for _, v in terms]
    if any(v.shape != z.shape for v in arrays):
        raise DimMismatch(f"denoiser returned an array of another shape than {z.shape}")
    out = np.empty(z.shape) if out is None else out
    scratch = _block_buffer(z.size) if scratch is None else scratch
    cells, stored, arrays = z.reshape(-1), out.reshape(-1), [v.reshape(-1) for v in arrays]
    for start in range(0, cells.size, scratch.shape[1]):
        block = slice(start, start + scratch.shape[1])
        total, product = scratch[:, :cells[block].size]
        np.multiply(coefs[0], cells[block], out=total)
        for beta, v in zip(coefs[1:], arrays):
            total += np.multiply(beta, v[block], out=product)
        if not np.all(np.isfinite(total)):
            raise NonFinite(f"DDIM step produced non-finite latents at t={t_next}")
        stored[block] = total
    if bounds is not None:
        bounds.advance(coefs)
    return out


def ddim_invert_steps(
    z0: LatentVideo, schedule: NoiseSchedule, denoiser: Denoiser
) -> Iterator[np.ndarray]:
    """Deterministic inversion from t=0 to t=n_steps, one latent at a time.

    The generator keeps one private float64 buffer, which each DDIM step
    overwrites in place through a block-sized buffer, and yields the same
    read-only view of it at t = 0..n_steps, each latent checked finite by
    ``_ddim_step``. A view holds its timestep's latent only until the
    generator is resumed, so a consumer that keeps one copies it, as
    ``ddim_invert`` does. The generator drops z0, so the run holds one latent
    and the block buffer. Each generator carries its own bounds.
    """
    z = np.array(z0.data, dtype=np.float64, order="C")
    del z0
    view = z.view()
    view.setflags(write=False)
    yield view
    scratch, bounds = _block_buffer(z.size), _carried_bounds(denoiser)
    for t in range(schedule.n_steps):
        _ddim_step(denoiser, z, schedule.alpha_bar, t, t + 1, z, scratch, bounds)
        yield view


def ddim_invert(
    z0: LatentVideo, schedule: NoiseSchedule, denoiser: Denoiser
) -> list[LatentVideo]:
    """Deterministic inversion from t=0 to t=n_steps; returns a copy of every latent."""
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
    with the motion-guidance update, checked finite, before the denoising
    step, so the denoiser itself stays untouched. The run holds one float64 array,
    which each step overwrites through a block-sized buffer (a NonFinite step may
    leave it partly written) and the result wraps, or copies if it is a view; ``zT``
    is only read, and dropped once copied. A guided update returns new latents (a
    view) and drops the run's bounds, so the next call reads every row.
    """
    z = np.array(zT.data, dtype=np.float64, order="C")
    del zT
    scratch, bounds = _block_buffer(z.size), None
    targets = guidance.targets if guidance is not None else {}
    for t in range(schedule.n_steps, 0, -1):
        if t in targets:
            bounds = None
            z, losses = guided_update(z, targets[t], guidance.config)
            for k, value in enumerate(losses):
                guidance.trace.append({"timestep": t, "inner_step": k, "loss": value})
            if not np.all(np.isfinite(z)):
                raise NonFinite(f"guidance produced non-finite latents at t={t}")
        if bounds is None and t > 1 and t - 1 not in targets:  # else they would go unused
            bounds = _carried_bounds(denoiser)
        _ddim_step(denoiser, z, schedule.alpha_bar, t, t - 1, z, scratch, bounds)
    z.setflags(write=False)
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
        noise = np.random.default_rng(np.random.PCG64(seed)).standard_normal(reference_zT.shape)
        noise.setflags(write=False)  # LatentVideo keeps it uncopied
        return LatentVideo(noise)
    raise BadValue(f"unknown initial-noise mode {mode!r}")


# --- trajectory archive -----------------------------------------------------


def trajectory_path(dir_path, t: int) -> Path:
    """The file that holds the latents at timestep ``t`` of a trajectory archive."""
    return Path(dir_path) / f"t{t:03d}.cmt"


def read_trajectory_index(dir_path) -> NoiseSchedule:
    """The schedule of the trajectory archive in ``dir_path``, read from its index.

    The archive holds z_T as ``trajectory_path(dir_path, n_steps)`` beside
    the index, which ``run_invert`` writes. The index must agree with itself:
    ``n_steps`` is a JSON integer and ``alpha_bar`` holds ``n_steps + 1``
    numbers. Any other key, such as the ``files`` map of an archive that
    stored every latent, is rejected.
    """
    dir_path = Path(dir_path)
    what = f"trajectory index {dir_path}"
    kinds = {"n_steps": int, "alpha_bar": lambda v, label: typed_numbers(v, None, label)}
    index = typed_fields(read_json(dir_path / "index.json"), kinds, what, required=kinds)
    n_steps = index["n_steps"]
    schedule = NoiseSchedule(np.asarray(index["alpha_bar"]))
    if schedule.n_steps != n_steps:
        raise BadValue(
            f"{dir_path}: index says n_steps {n_steps} but alpha_bar has "
            f"{schedule.n_steps + 1} values"
        )
    return schedule

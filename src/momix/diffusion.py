"""Deterministic DDIM inversion and sampling over a pluggable denoiser.

Inversion walks a clean latent video up the noise schedule using the
denoiser's own predictions and yields every intermediate latent, because
guidance compares reference and target features at matching timesteps;
the trajectory archive takes them one at a time.
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
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import BadValue, DimMismatch, NonFinite
from .guidance import GuidanceConfig, GuidanceTarget, guided_update
from .tensors import (
    REQUIRED,
    LatentVideo,
    make_dir,
    read_json,
    remove_file,
    typed_field,
    typed_numbers,
    write_array,
    write_json,
)


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
# latent-sized passes the certificate adds to a call (see GaussianAtlasDenoiser)
_TRACKING_PASSES = 10


def _gamma(n: int) -> float:
    """gamma_n = nu / (1 - nu): a float sum of n products errs by at most gamma_n sum |x_i y_i|."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def _residual_bound(zz: float, g: tuple, gs: tuple, a: float, b: float, gam: float) -> float:
    """An upper bound on ||z - a z_p - b m_p|| from the computed Gram of (z, z_p, m_p).

    ``zz`` is <z, z>, ``g`` holds <z_p, z> and <m_p, z>, and ``gs`` holds
    <z_p, z_p>, <z_p, m_p> and <m_p, m_p>. Each computed entry <x, y> errs by
    at most (gam / 2) ||x|| ||y||, so the quadratic form errs by at most that
    times (||z|| + |a| ||z_p|| + |b| ||m_p||)^2; the last term covers its own
    rounding.
    """
    terms = (zz, -2.0 * a * g[0], -2.0 * b * g[1],
             a * a * gs[0], 2.0 * a * b * gs[1], b * b * gs[2])
    spread = math.sqrt(zz) + abs(a) * math.sqrt(gs[0]) + abs(b) * math.sqrt(gs[2])
    r2 = sum(terms) + gam * spread * spread + 16 * _UNIT_ROUNDOFF * sum(map(abs, terms))
    return math.sqrt(max(r2, 0.0)) * (1.0 + 4 * _UNIT_ROUNDOFF)


def _coefficients(g: tuple, gs: tuple):
    """Candidate (a, b) for z ~ a z_p + b m_p: each alone, then both by least squares.

    Any pair is sound; the smallest residual bound wins. During inversion z_p
    and m_p are often parallel, and the 2x2 system is then singular.
    """
    yield 0.0, 0.0
    if gs[0] > 0:
        yield g[0] / gs[0], 0.0
    if gs[2] > 0:
        yield 0.0, g[1] / gs[2]
    det = gs[0] * gs[2] - gs[1] * gs[1]
    if det > 1e-12 * gs[0] * gs[2]:
        yield (g[0] * gs[2] - g[1] * gs[1]) / det, (gs[0] * g[1] - gs[1] * g[0]) / det


class _MemberBounds:
    """Intervals on the inner products <m_k, z>, carried from one call to the next.

    After a call the state is a copy of the latents z_p it was given, the
    weighted mean m_p it returned (the buffer's other row, or a lone
    survivor's own member row), the weights w_p, and an interval on each
    <m_k, z_p>. For the next z and any scalars a, b, with r = z - a z_p - b m_p,

        <m_k, z> = a <m_k, z_p> + b <m_k, m_p> + <m_k, r>,

    where <m_k, m_p> lies within ||m_k|| beta of (G w_p)_k for the atlas Gram
    G, and |<m_k, r>| <= ||m_k|| ||r||. A DDIM step makes z from z_p and m_p
    alone, so ||r|| is rounding-sized and the intervals stay tight; for any
    other z they are only wider. A float sum of n products errs by at most
    gamma_n times the product of the norms in any summation order, so the
    Gram products may go through BLAS: they only bound, and are never outputs.
    """

    def __init__(self, flat: np.ndarray, sq_norms: np.ndarray):
        k, n = flat.shape
        self._flat = flat
        self._sq_norms = sq_norms
        self._gam = 2.0 * _gamma(n)  # one dot product, with norms from computed squares
        self._gam_mean = 2.0 * _gamma(n + 3 * k)  # the weighted mean, G and G @ w
        self._norms = np.sqrt(sq_norms * (1.0 + self._gam))  # upper bounds on ||m_k||
        self._state = None  # rows for z_p and the summed mean, allocated at the first call
        self._valid = False

    def live(self, zf: np.ndarray, c: float, ab: float, var: float) -> np.ndarray:
        """Which members' weights may be non-zero at this call, as a bool vector.

        Every other member's log-weight, as the full formula computes it from
        a computed <m_k, z>, lies more than ``_CERTIFY_GAP`` below the largest.
        The state is spent: ``record`` must follow before the next call.
        """
        valid, self._valid = self._valid, False
        zf = np.asarray(zf, dtype=np.float64)
        k = self._norms.size
        with np.errstate(all="ignore"):  # a non-finite z only makes the bounds vacuous
            zz = self._zz = float(np.dot(zf, zf))
            self._znorm = float(np.sqrt(zz * (1.0 + self._gam)))
            if not valid:
                if self._state is None:
                    self._state = np.empty((2, zf.size))
                    self._gram = self._flat @ self._flat.T
                self._mid, self._rad = np.zeros(k), np.full(k, np.inf)
                return np.ones(k, dtype=bool)
            g = (float(np.dot(self._state[0], zf)), float(np.dot(self._mp, zf)))
            r_up, a, b = min(
                (_residual_bound(zz, g, self._gs, a, b, self._gam), a, b)
                for a, b in _coefficients(g, self._gs)
            )
            step = a * self._mid
            self._mid = step + b * self._gw
            rad = abs(a) * self._rad + self._norms * (abs(b) * self._beta + r_up)
            self._rad = rad + 8 * _UNIT_ROUNDOFF * (np.abs(step) + np.abs(b * self._gw) + rad)
            # log-weight (2c <m_k, z> - ab ||m_k||^2) / (2 var), for any computed <m_k, z>
            err = self._rad + self._gam * self._norms * self._znorm
            size = ab * self._sq_norms + 2.0 * c * (np.abs(self._mid) + err)
            center = (2.0 * c * self._mid - ab * self._sq_norms) / (2.0 * var)
            half = c * err / var + 16 * _UNIT_ROUNDOFF * size / (2.0 * var)
            best = float(np.max(center - half))
            return ~(center + half < best - _CERTIFY_GAP - 4 * _UNIT_ROUNDOFF * abs(best))

    def mean_buffer(self) -> np.ndarray:
        """The row to sum this call's weighted mean into; ``record`` then keeps it as m_p."""
        return self._state[1]

    def record(self, zf: np.ndarray, first: int, ip: np.ndarray | None, w: np.ndarray,
               mean: np.ndarray) -> None:
        """Keep z, the weights, the mean, and the inner products read for rows ``first`` on."""
        with np.errstate(all="ignore"):
            if ip is not None:
                rows = slice(first, first + ip.size)
                self._mid[rows] = ip
                self._rad[rows] = self._gam * self._norms[rows] * self._znorm
            self._gw = self._gram @ w
            self._beta = self._gam_mean * float(w @ self._norms)
            zp, self._mp = self._state[0], mean
            np.copyto(zp, zf)
            self._gs = (self._zz, float(np.dot(zp, mean)), float(np.dot(mean, mean)))
        self._valid = True


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
    never hold a second copy. The squared norms are taken once. A call reads
    members for the inner products <m_k, z>, which give the weights, with a
    fixed-order einsum outside BLAS: OpenBLAS gemv splits its sums
    differently per thread count, so a matmul's bytes would depend on it.
    Below the pruning gate the form's terms are the members of non-zero
    weight, in member order, as read-only views of ``members``: a call
    allocates nothing latent-sized.

    Over many cells most weights underflow to exactly 0. With more than
    ``_TRACKING_PASSES`` (ten) members, the denoiser carries an interval
    on each <m_k, z> from one call to the next (``_MemberBounds``) and
    certifies the members whose weight is 0 before reading them. A call then
    reads, as one view, the rows from the first uncertified member to the
    last; such a view of two rows or more gives the bytes of the full
    product. A lone uncertified member is not read at all: its weight is
    exp(0) / 1 = 1.0, as the full formula computes it. The softmax runs over
    all K log-weights, with -inf at the members not read, so every weight's
    byte is the same as with every member read. The certificate costs ten
    latent-sized passes a call, five dot products (through BLAS, as they only
    bound) and one copy. It needs the weighted mean m_p, so above the gate
    the form's one term is m_p, read-only: one fixed-order einsum over the
    rows read sums it into the tracking state (two latent-sized rows
    allocated at the first call, the other a copy of z), with the bytes of a
    member-order multiply-and-add of the non-zero weights. A lone survivor's
    weight is 1.0, so its m_p is its own member row, with no pass at all.

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
        if not 0 < bandwidth < np.inf:
            raise BadValue(f"bandwidth must be finite and positive, got {bandwidth}")
        self.members = atlas if stacked else np.stack([m.data for m in atlas], dtype=np.float64)
        self.members.setflags(write=False)
        self._flat = self.members.reshape(len(atlas), -1)
        self._sq_norms = np.einsum("kn,kn->k", self._flat, self._flat)
        self.schedule = schedule
        self.bandwidth = float(bandwidth)
        self._bounds = (_MemberBounds(self._flat, self._sq_norms)
                        if len(atlas) > _TRACKING_PASSES else None)
        self.calls = self.certified_members = self.member_rows_read = self.single_survivor_calls = 0

    def posterior_mean(self, z: np.ndarray, t: int) -> AffineForm:
        if z.shape != self.members.shape[1:]:
            raise DimMismatch(f"latents {z.shape} do not match atlas members "
                              f"{self.members.shape[1:]}")
        ab = float(self.schedule.alpha_bar[t])
        c = np.sqrt(ab)
        var = ab * self.bandwidth**2 + (1.0 - ab)
        zf = z.reshape(-1)
        n_members = len(self._flat)
        first, last = 0, n_members
        self.calls += 1
        if self._bounds is not None:
            live = np.flatnonzero(self._bounds.live(zf, c, ab, var))
            first, last = int(live[0]), int(live[-1]) + 1
            self.certified_members += n_members - live.size
        # Members outside rows first:last are certified: their weight underflows to
        # exactly 0 either way, so they take log-weight -inf unread.
        logw = np.full(n_members, -np.inf)
        ip = None
        if self._bounds is not None and last - first == 1:
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
        if self._bounds is None:
            return shrink, tuple((keep * w[k], self.members[k]) for k in np.flatnonzero(w))
        if ip is None:
            mean = self._flat[first]
        else:
            # a row of weight 0 adds +-0 to sums that start at +0, which leaves their
            # bytes those of summing only the non-zero terms, in member order
            mean = np.einsum("k,kn->n", w[first:last], self._flat[first:last],
                             out=self._bounds.mean_buffer())
        self._bounds.record(zf, first, ip, w, mean)
        mean = mean.reshape(z.shape)
        mean.setflags(write=False)
        return shrink, ((keep, mean),)

    def predict_noise(self, z: np.ndarray, t: int) -> AffineForm:
        ab = float(self.schedule.alpha_bar[t])
        rem = 1.0 - ab
        if rem <= 1e-12:
            return 0.0, ()
        # (z - sqrt(ab) * x_hat) / sqrt(rem), with x_hat = s z + sum c_k v_k
        s, terms = self.posterior_mean(z, t)
        c, root = np.sqrt(ab), np.sqrt(rem)
        return (1.0 - c * s) / root, tuple((-c * ck / root, v) for ck, v in terms)


def _ddim_step(
    denoiser: Denoiser, z: np.ndarray, ab: np.ndarray, t: int, t_next: int,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """One deterministic DDIM move of the latents from timestep t to t_next, either way.

    The move sqrt(ab[t_next]) x0_hat + sqrt(1 - ab[t_next]) eps, with
    x0_hat = (z - sqrt(1 - ab[t]) eps) / sqrt(ab[t]), is A z + B eps; the
    denoiser's eps = a z + sum c_k v_k makes it (A + B a) z + sum B c_k v_k,
    summed in term order with fixed-order ufuncs into ``out`` through
    ``scratch``: float64 buffers of z's shape, allocated when not given. They
    must alias neither ``z`` nor the denoiser's arrays, which are only read.
    """
    a, terms = denoiser.predict_noise(z, t)
    scale = np.sqrt(ab[t_next]) / np.sqrt(ab[t])
    mix = np.sqrt(1.0 - ab[t_next]) - scale * np.sqrt(1.0 - ab[t])
    coefs = [scale + mix * a] + [mix * ck for ck, _ in terms]
    if not np.all(np.isfinite(coefs)):
        raise NonFinite(f"denoiser produced non-finite values at t={t}")
    arrays = [np.asarray(v, dtype=np.float64) for _, v in terms]
    if any(v.shape != z.shape for v in arrays):
        raise DimMismatch(f"denoiser returned an array of another shape than {z.shape}")
    out = np.multiply(coefs[0], z, out=np.empty(z.shape) if out is None else out)
    scratch = np.empty(z.shape) if scratch is None and arrays else scratch
    for beta, v in zip(coefs[1:], arrays):
        np.multiply(beta, v, out=scratch)
        out += scratch
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"DDIM step produced non-finite latents at t={t_next}")
    return out


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
    scratch = np.empty(z.shape)
    for t in range(schedule.n_steps):
        z = _ddim_step(denoiser, z, schedule.alpha_bar, t, t + 1, scratch=scratch)
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
    with the motion-guidance update, checked finite, before the denoising
    step, so the denoiser itself stays untouched. Between steps the latents
    are a plain float64 array; ``zT`` is only read.
    """
    z = np.array(zT.data, dtype=np.float64, order="C")
    spare, scratch = np.empty(z.shape), np.empty(z.shape)  # z and spare swap at each step
    targets = guidance.targets if guidance is not None else {}
    for t in range(schedule.n_steps, 0, -1):
        if t in targets:
            z, losses = guided_update(z, targets[t], guidance.config)
            for k, value in enumerate(losses):
                guidance.trace.append({"timestep": t, "inner_step": k, "loss": value})
            if not np.all(np.isfinite(z)):
                raise NonFinite(f"guidance produced non-finite latents at t={t}")
        spare, z = z, _ddim_step(denoiser, z, schedule.alpha_bar, t, t - 1, spare, scratch)
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

    ``trajectory`` may be any iterable, such as ``ddim_invert_steps``: each
    latent is written as it arrives, so only the one in hand is held. A
    trajectory whose length is not ``n_steps + 1`` raises DimMismatch with
    no index written. Any old index is removed before the first write and
    the new one written after the last file, so a rewrite that fails half
    way leaves an archive no reader accepts, never new files under an old index.
    """
    out_dir = make_dir(out_dir)
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

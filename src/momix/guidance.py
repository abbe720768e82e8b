"""Motion-guidance energy, its exact gradient, and the latent update step.

The energy compares reference deltas against deltas recomputed from the
target latents over target-side regions. It is a quadratic in the
latents: each (source, pair, channel) term is a squared difference of
region means, so the exact gradient distributes the residual uniformly
over the pair region with opposite signs on the two frames. Enforced
pairs are those valid on both sides; a pair whose target region is empty
(for example after a shift clips it away) carries no target evidence and
is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadValue,
    DimMismatch,
    NoValidPairs,
    UnknownSubject,
)
from .features import EditPlan, MotionDescriptor, PairOperator
from .masks import BACKGROUND_ID
from .tensors import LatentVideo

# The cap on inner steps per guided timestep, as ``diffusion.MAX_STEPS`` caps the
# timesteps: 100 times the README run's 10, by which the default steps have left
# about 1e-5 of the residual. The loop allocates nothing per step, so a larger count
# would only run until it is killed.
MAX_INNER_STEPS = 1_000
DEFAULT_SOURCE_WEIGHT = 1.0  # of a source that ``GuidanceTarget``'s weights leave out


@dataclass(frozen=True)
class GuidanceConfig:
    """Optimizer and window settings for the latent guidance updates.

    ``step_size=None`` runs conjugate gradients; a ``step_size``, steepest descent at that
    step. ``t_start``/``t_end`` default to the first 80% of the denoising steps when unset.
    """

    step_size: float | None = None
    n_inner_steps: int = 3
    t_start: int | None = None
    t_end: int | None = None
    weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        if self.step_size is not None and not (np.isfinite(self.step_size) and self.step_size > 0):
            raise BadValue(f"step_size must be finite and positive, got {self.step_size}")
        if not 0 <= self.n_inner_steps <= MAX_INNER_STEPS:
            raise BadValue(f"n_inner_steps must be in 0..{MAX_INNER_STEPS}, "
                           f"got {self.n_inner_steps}")
        if self.t_start is not None and self.t_end is not None:
            if not self.t_start >= self.t_end >= 0:
                raise BadValue(
                    f"need t_start >= t_end >= 0, got ({self.t_start}, {self.t_end})"
                )
        for sid, w in self.weights.items():
            if not np.isfinite(w) or w < 0:
                raise BadValue(f"weight for {sid!r} must be finite and >= 0, got {w}")

    def window(self, n_steps: int) -> tuple[int, int]:
        """The first and last guided timestep. Sampling denoises at t = n_steps..1."""
        start = min(self.t_start, n_steps) if self.t_start is not None else n_steps
        end = max(1, self.t_end if self.t_end is not None else n_steps - int(0.8 * n_steps) + 1)
        if end > start:
            raise BadValue(f"guidance window empty: t_end {end} > t_start {start}")
        return start, end


class GuidanceTarget:
    """Reference deltas bound to target-side regions and source weights.

    Every referenced or weighted source must have a target mask track; the
    enforced pair set per source is the intersection of reference-valid
    pairs and non-empty target regions. Per row of ``regions``, the operator
    over the target masks, it holds the reference delta ``ref`` and the
    ``weight``, which is 0 for rows that are not ``enforced``. It holds no
    descriptor: it is a keep plan's ``RowMap`` over the references' own rows,
    and ``compiled`` builds one from any ``RowMap`` and a timestep's deltas.
    """

    def __init__(self, references: Sequence[MotionDescriptor], regions: PairOperator, *,
                 weights: Mapping[str, float] | None = None):
        refs = list(references)
        n_channels = max((ref.n_channels for ref in refs), default=0)
        stops = np.cumsum([0] + [len(ref.pairs) for ref in refs]).tolist()
        table = {ref.source_id: (ref.pairs, slice(a, b))
                 for ref, a, b in zip(refs, stops, stops[1:])}
        if len(table) < len(refs):
            raise BadValue(f"duplicate references: {len(refs)} for the sources {sorted(table)}")
        for ref in refs:  # a reference without pairs may have any channel count
            if ref.n_frames != regions.n_frames or len(ref.pairs) and ref.n_channels != n_channels:
                raise DimMismatch(f"reference {ref.source_id!r} has {ref.n_frames} frames and "
                                  f"{ref.n_channels} channels, the target {regions.n_frames} "
                                  f"frames and the references {n_channels} channels")
        deltas = [ref.deltas.reshape(len(ref.pairs), n_channels) for ref in refs]
        self._bind(RowMap(EditPlan(), table, regions, weights),
                   np.concatenate([np.zeros((0, n_channels)), *deltas]))

    @classmethod
    def compiled(cls, rows: RowMap, deltas: np.ndarray) -> "GuidanceTarget":
        """The target of ``rows`` over one timestep's (table rows, C) float32 ``deltas``."""
        target = cls.__new__(cls)
        target._bind(rows, deltas)
        return target

    def _bind(self, rows: RowMap, deltas: np.ndarray) -> None:
        self.regions, self.weights = rows.regions, rows.weights
        self.weight, self.enforced = rows.weight, rows.enforced
        self.ref = np.zeros((len(rows.source), deltas.shape[1]))
        self.ref[rows.enforced] = deltas[rows.source[rows.enforced]]
        mixed = rows.blend >= 0  # soft_blend's (s + w_c c) / (w_c + 1), row by row
        s, c, w_c = deltas[rows.source[mixed]], deltas[rows.blend[mixed]], rows.w_c[mixed, None]
        self.ref[mixed] = (s + w_c * c) / (w_c + 1)

    def with_references(self, references: Sequence[MotionDescriptor]) -> "GuidanceTarget":
        return GuidanceTarget(references, self.regions, weights=self.weights)

    def enforced_pair_count(self) -> int:
        return int(np.count_nonzero(self.enforced))


class RowMap:
    """An edit plan compiled once: ``recompose`` and then ``GuidanceTarget``, as a row map.

    Per row r of ``regions``, ``source[r]`` is the row of ``table`` (an
    ``ExtractIndex.table``) whose delta r takes, -1 where r is not
    ``enforced``; where ``blend[r]`` is a row too, r takes their
    ``soft_blend`` with ``w_c[r]``; ``weight[r]`` is 0 where r is not
    enforced. The masks alone fix both row tables, so one map serves each
    guided timestep; the caller checks the plan's subjects.
    """

    def __init__(self, plan: EditPlan, table: Mapping[str, tuple[np.ndarray, slice]],
                 regions: PairOperator, weights: Mapping[str, float] | None = None):
        self.table, self.regions, self.weights = table, regions, dict(weights or {})
        for sid in [*self.weights, *table]:
            if sid not in regions.slices:
                raise UnknownSubject(f"no target-side mask for source {sid!r}")
        row_of = {}  # per source, its row of each frame pair in either orientation, or -1
        for sid, (pairs, rows) in table.items():
            row_of[sid] = np.full((regions.n_frames,) * 2, -1, dtype=np.intp)
            row_of[sid][pairs[:, 0], pairs[:, 1]] = row_of[sid][pairs[:, 1], pairs[:, 0]] = (
                np.arange(rows.start, rows.stop))
        self.source, self.blend = np.full((2, len(regions.rows)), -1, dtype=np.intp)
        self.w_c, self.weight = np.zeros((2, len(regions.rows)))
        for sid, rows in regions.slices.items():
            directive = plan.directive_for(sid)  # the background's is keep
            of = BACKGROUND_ID if directive.kind == "remove" else sid
            if (plan.camera_only and sid != BACKGROUND_ID) or of not in row_of:
                continue
            i, j = regions.ij[rows].T
            own = row_of[of][i, j]
            if directive.kind == "soften":
                camera = row_of[BACKGROUND_ID][i, j]
                own[camera < 0] = -1
                if directive.w_c:  # at 0, s as it is: s + 0 c would turn -0.0 into 0.0
                    self.blend[rows] = np.where(own >= 0, camera, -1)
                    self.w_c[rows] = directive.w_c
            self.source[rows] = own
            weight = float(self.weights.get(sid, DEFAULT_SOURCE_WEIGHT))
            self.weight[rows] = np.where(own >= 0, weight, 0.0)
        self.enforced = self.source >= 0
        for array in (self.source, self.blend, self.w_c, self.weight, self.enforced):
            array.setflags(write=False)


def _residual(z: np.ndarray, target: GuidanceTarget,
              deltas: np.ndarray | None = None) -> np.ndarray:
    """(n_rows, C) target deltas of the latents ``z`` (``deltas`` if given) minus reference deltas."""
    deltas = target.regions.apply(z) if deltas is None else deltas
    if target.enforced_pair_count() == 0:
        raise NoValidPairs("no pair is valid on both the reference and target side")
    if deltas.shape[1] != target.ref.shape[1]:
        raise DimMismatch(
            f"latents have {deltas.shape[1]} channels, references {target.ref.shape[1]}"
        )
    return deltas - target.ref


def _weighted_sum_of_squares(residual: np.ndarray, weight: np.ndarray) -> float:
    return float(weight @ np.einsum("rc,rc->r", residual, residual))


def guidance_loss(target_latents: LatentVideo, target: GuidanceTarget) -> float:
    """Weighted sum of squared delta mismatches over all enforced pairs."""
    return _weighted_sum_of_squares(_residual(target_latents.data, target), target.weight)


def guidance_gradient(target_latents: LatentVideo, target: GuidanceTarget) -> np.ndarray:
    """Exact gradient of the guidance loss with respect to every latent cell."""
    _, grad = loss_and_gradient(target_latents, target)
    return grad


def loss_and_gradient(
    target_latents: LatentVideo, target: GuidanceTarget
) -> tuple[float, np.ndarray]:
    """The loss and its gradient: one forward and one adjoint operator product."""
    residual = _residual(target_latents.data, target)
    coef = 2.0 * target.weight[:, None] * residual
    total = _weighted_sum_of_squares(residual, target.weight)
    return total, target.regions.adjoint(coef)


def stable_step_size(target: GuidanceTarget) -> float:
    """1/L, with L = 2 λmax(D½ G D½) the largest eigenvalue of the loss's Hessian ``2 Wᵀ D W``.

    G = W Wᵀ is the operator's Gram matrix, D = diag(weight); below 2/L, descent cannot increase
    the loss. λmax is memoized per weight vector. For explicit steps: a null one never calls it.
    """
    if not target.weight.any():
        raise NoValidPairs("cannot size a step with no enforced pairs")
    return float(np.float64(0.5) / target.regions.curvature(target.weight))  # a 0 gives inf


def _cgls(residual: np.ndarray, target: GuidanceTarget, n_steps: int,
          losses: list[float]) -> np.ndarray:
    """CGLS on ``||D½(W z - ref)||²`` from its (C, n_rows) residual r: c and the final r.

    The latents move by Wᵀ c, and the residual to the final r.

    A latent direction ``Wᵀ d`` is kept as d and G d. With g = D r, a step moves r by
    -α G d, and β updates d and G d by recurrence: one product ``G g`` per step, α and β
    joint over the channels. Each step appends its loss to ``losses``. Once γ = <g, G g> is
    at most eps times its first value, or ||D½ G d||² is not positive, the rest repeat the
    last loss: G is singular in general, and past the minimum, rounding noise gives huge α
    from spurious tiny eigenvalues, which moves the latents off what the trace says.
    """
    gram, weight = target.regions.gram, target.weight
    state = np.stack([np.zeros_like(residual), residual])  # -Σ α d and r
    grad, direction = np.empty_like(state), None  # (g, G g) and (d, G d)
    for k in range(n_steps):
        np.multiply(weight, state[1], out=grad[0])
        np.einsum("rs,cs->cr", gram, grad[0], out=grad[1])
        gamma = np.einsum("cr,cr->", grad[0], grad[1])
        if direction is None:
            direction, floor = grad.copy(), abs(gamma) * np.finfo(np.float64).eps
        else:
            direction *= gamma / last  # β
            direction += grad
        curvature = np.einsum("r,cr,cr->", weight, direction[1], direction[1])
        if not (gamma > floor and curvature > 0):
            losses.extend(losses[-1:] * (n_steps - k))
            break
        state -= (gamma / curvature) * direction  # α
        losses.append(_weighted_sum_of_squares(state[1].T, weight))
        last = gamma
    return state  # c and the final residual


def guided_update(
    z: np.ndarray,
    target: GuidanceTarget,
    config: GuidanceConfig,
    deltas: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Run ``n_inner_steps`` inner steps on the guidance loss over float64 latents.

    With ``step_size`` None (the default) they are conjugate-gradient (CGLS) steps;
    with a ``step_size``, steepest-descent steps of that size. A step that moves the
    latents by ``Wᵀ c`` moves the residual ``W z - ref`` by ``G c``, with ``G = W Wᵀ``
    the operator's Gram matrix, so the inner steps run on the (n_rows, C) residual
    alone: one ``apply`` before them, one ``adjoint`` of their summed coefficients
    after. The products with G are fixed-order einsums, not BLAS, so the bytes do
    not depend on the thread count.

    ``deltas``, the (n_rows, C) ``W z`` a sampler carries, stands in for the
    ``apply``; after the steps it is overwritten with the reference plus the final
    residual, which is ``W`` of the updated latents up to rounding.

    Returns the updated latents, a new array unless there are no inner
    steps (then ``z`` itself), and the loss trace: the value before any step
    followed by the value after each step. ``z`` is only read.
    """
    # channel-major (C, n_rows), so each product sums along contiguous rows of G
    residual = np.ascontiguousarray(_residual(z, target, deltas).T)
    losses = [_weighted_sum_of_squares(residual.T, target.weight)]
    if config.n_inner_steps == 0:
        return z, losses
    if config.step_size is None:
        coef, residual = _cgls(residual, target, config.n_inner_steps, losses)
        update = target.regions.adjoint(coef.T)
    else:
        step, gram, total = config.step_size, target.regions.gram, np.zeros_like(residual)
        for _ in range(config.n_inner_steps):
            coef = 2.0 * target.weight * residual
            total += coef
            residual -= step * np.einsum("rs,cs->cr", gram, coef)
            losses.append(_weighted_sum_of_squares(residual.T, target.weight))
        # z - step * g, as (-step * g) + z in g's own buffer
        update = target.regions.adjoint(total.T)
        update *= -step
    update += z
    if deltas is not None:
        np.add(target.ref, residual.T, out=deltas)
    return update, losses

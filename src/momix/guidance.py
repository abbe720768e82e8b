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
    MissingBackground,
    NoValidPairs,
    UnknownSubject,
)
from .features import MotionDescriptor, PairOperator
from .masks import BACKGROUND_ID
from .tensors import LatentVideo

# The cap on inner steps per guided timestep, as ``diffusion.MAX_STEPS`` caps the
# timesteps: 100 times the README run's 10, by which the default step has left
# 0.5% of the residual. The loop allocates nothing per step, so a larger count
# would only run until it is killed.
MAX_INNER_STEPS = 1_000


@dataclass(frozen=True)
class GuidanceConfig:
    """Optimizer and window settings for the latent guidance updates.

    ``step_size=None`` uses ``stable_step_size`` (non-increasing loss). ``t_start``/``t_end``
    default to the first 80% of the denoising steps when left unset.
    """

    step_size: float | None = None
    n_inner_steps: int = 3
    t_start: int | None = None
    t_end: int | None = None
    per_source_weight: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_source_weight", dict(self.per_source_weight))
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
        for sid, w in self.per_source_weight.items():
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
    """Reference descriptors bound to target-side regions and source weights.

    Every referenced or weighted source must have a target mask track; the
    enforced pair set per source is the intersection of reference-valid
    pairs and non-empty target regions. ``regions``, the operator over the
    target masks, is compiled once and shared by ``with_references``. Per
    operator row it holds the reference delta and the weight, which is 0
    for rows that are not enforced.
    """

    def __init__(
        self,
        references: Sequence[MotionDescriptor],
        regions: PairOperator,
        *,
        weights: Mapping[str, float] | None = None,
    ):
        self.regions = regions
        self.references = list(references)
        self.weights = dict(weights or {})
        for sid in self.weights:
            if sid not in regions.slices:
                raise UnknownSubject(f"weight for source {sid!r}, which has no target-side mask")
        by_source: dict[str, MotionDescriptor] = {}
        for ref in self.references:
            if ref.source_id not in regions.slices:
                if ref.source_id == BACKGROUND_ID:
                    raise MissingBackground("no target-side background mask for reference")
                raise UnknownSubject(f"no target-side mask for source {ref.source_id!r}")
            if ref.source_id in by_source:
                raise BadValue(f"duplicate reference for source {ref.source_id!r}")
            if ref.n_frames != regions.n_frames:
                raise DimMismatch(
                    f"reference {ref.source_id!r} has {ref.n_frames} frames, "
                    f"target {regions.n_frames}"
                )
            by_source[ref.source_id] = ref
        n_channels = max((ref.n_channels for ref in self.references), default=0)
        self.ref = np.zeros((len(regions.rows), n_channels))
        self.weight = np.zeros(len(regions.rows))
        self.enforced = np.zeros(len(regions.rows), dtype=bool)
        for sid, ref in by_source.items():
            rows = regions.slices[sid]
            ref_rows = ref.rows_of(regions.ij[rows])
            hit = ref_rows >= 0
            if not hit.any():
                continue
            if ref.n_channels != n_channels:
                raise DimMismatch(
                    f"reference {sid!r} has {ref.n_channels} channels, others {n_channels}"
                )
            r = rows.start + np.flatnonzero(hit)
            self.ref[r] = ref.deltas[ref_rows[hit]]
            self.weight[r] = float(self.weights.get(sid, 1.0))
            self.enforced[r] = True

    def with_references(self, references: Sequence[MotionDescriptor]) -> "GuidanceTarget":
        return GuidanceTarget(references, self.regions, weights=self.weights)

    def enforced_pair_count(self) -> int:
        return int(np.count_nonzero(self.enforced))


def _residual(z: np.ndarray, target: GuidanceTarget) -> np.ndarray:
    """(n_rows, C) target deltas of the latents ``z`` minus reference deltas."""
    deltas = target.regions.apply(z)
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

    G = W Wᵀ is the operator's Gram matrix and D = diag(weight). Below 2/L, descent cannot
    increase the loss. The operator memoizes λmax per weight vector: once per run.
    """
    if not target.weight.any():
        raise NoValidPairs("cannot size a step with no enforced pairs")
    return float(np.float64(0.5) / target.regions.curvature(target.weight))  # a 0 gives inf


def guided_update(
    z: np.ndarray,
    target: GuidanceTarget,
    config: GuidanceConfig,
) -> tuple[np.ndarray, list[float]]:
    """Run ``n_inner_steps`` of steepest descent on the guidance loss over float64 latents.

    A step ``z -= step * Wᵀ coef`` moves the residual ``W z - ref`` by
    ``-step * G coef``, with ``G = W Wᵀ`` the operator's Gram matrix, so the
    inner steps run on the (n_rows, C) residual alone: one ``apply`` before
    them, one ``adjoint`` of their summed coefficients after. The products
    with G are fixed-order einsums, not BLAS, so the bytes do not depend on
    the thread count.

    Returns the updated latents, a new array unless there are no inner
    steps (then ``z`` itself), and the loss trace: the value before any step
    followed by the value after each step. ``z`` is only read.
    """
    step = config.step_size if config.step_size is not None else stable_step_size(target)
    # channel-major (C, n_rows), so each product sums along contiguous rows of G
    residual = np.ascontiguousarray(_residual(z, target).T)
    losses = [_weighted_sum_of_squares(residual.T, target.weight)]
    if config.n_inner_steps == 0:
        return z, losses
    gram = target.regions.gram
    total = np.zeros_like(residual)
    for _ in range(config.n_inner_steps):
        coef = 2.0 * target.weight * residual
        total += coef
        residual -= step * np.einsum("rs,cs->cr", gram, coef)
        losses.append(_weighted_sum_of_squares(residual.T, target.weight))
    # z - step * g, as (-step * g) + z in g's own buffer
    update = target.regions.adjoint(total.T)
    update *= -step
    update += z
    return update, losses

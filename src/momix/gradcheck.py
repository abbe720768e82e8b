"""Finite-difference verification of the guidance gradient.

The oracle never looks at the analytic gradient: it evaluates the loss at
symmetric perturbations of every latent cell and forms central
differences. Cells outside all enforced regions leave the loss bit-for-bit
unchanged, so their difference quotient is exactly zero, matching the
analytic locality property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadValue, NoValidPairs
from .features import MotionDescriptor, PairOperator
from .guidance import DEFAULT_SOURCE_WEIGHT, GuidanceTarget, guidance_gradient
from .masks import BACKGROUND_ID, background_track
from .tensors import LatentVideo, MaskTrack

_CHUNK = 256


def _loss_terms(planes: np.ndarray, case: GradCheckCase) -> list[tuple]:
    """The loss as a list of (weight, i, j, mask, size, delta, base means) terms.

    A per-pair walk over the target regions and the case's references and
    weights, kept apart from the pair operator the analytic gradient uses: each
    region mean is a fixed-order dot product with the pair's dense 0/1 cell mask
    over the region's own cell count. The base means are at frames i and j, (2, C).
    """
    terms = []
    for ref in sorted(case.references, key=lambda d: d.source_id):
        weight = float(case.weights.get(ref.source_id, DEFAULT_SOURCE_WEIGHT))
        for (i, j), (idx, _) in case.target.regions.pairs[ref.source_id].items():
            if not ref.has_pair(i, j):
                continue
            mask = np.zeros(planes.shape[2])
            mask[idx] = 1.0
            means = np.einsum("bcn,n->bc", planes[[i, j]], mask) / idx.size
            terms.append((weight, i, j, mask, idx.size, ref.delta(i, j), means))
    return terms


def _perturbed(flat: np.ndarray, idx: np.ndarray, h: float) -> np.ndarray:
    """(2m, n) copies of ``flat``: row k has ``+h`` at cell ``idx[k]``, row m + k ``-h``."""
    m = idx.size
    stack = np.repeat(flat[None, :], 2 * m, axis=0)
    rows = np.arange(m)
    stack[rows, idx] += h
    stack[m + rows, idx] -= h
    return stack


def _plane_losses(terms: list[tuple], stack: np.ndarray, f: int, c: int) -> np.ndarray:
    """Loss of each row of ``stack`` put in as plane (f, c), every other plane the base's."""
    total = np.zeros(stack.shape[0])
    for weight, i, j, mask, size, delta, base_means in terms:
        means = np.repeat(base_means[None], stack.shape[0], axis=0)
        if f in (i, j):
            means[:, 0 if f == i else 1, c] = np.einsum("bn,n->b", stack, mask) / size
        r = (means[:, 0] - means[:, 1]) - delta[None, :]
        total += weight * np.einsum("bc,bc->b", r, r)
    return total


def finite_difference_gradient(z: LatentVideo, case: GradCheckCase, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of ``case``'s guidance loss at ``z``, one cell at a time.

    A perturbed copy differs from ``z`` in one (frame, channel) plane, so only
    that plane's means are recomputed; the others are the base's, bit for bit.
    """
    if not (math.isfinite(h) and h > 0):
        raise BadValue(f"finite-difference step must be finite and positive, got {h}")
    base = z.data.astype(np.float64, copy=True)
    planes = base.reshape(*base.shape[:2], -1)
    terms = _loss_terms(planes, case)
    grad = np.zeros_like(planes)
    n = planes.shape[2]
    for f, c in np.ndindex(planes.shape[:2]):
        for start in range(0, n, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, n))
            total = _plane_losses(terms, _perturbed(planes[f, c], idx, h), f, c)
            grad[f, c, idx] = (total[: idx.size] - total[idx.size :]) / (2.0 * h)
    return grad.reshape(base.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|): exact double zeros give 0, a non-finite entry inf."""
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return math.inf
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.zeros_like(diff)
    nz = denom > 0
    rel[nz] = diff[nz] / denom[nz]
    # a finite difference of exactly 0 against a nonzero analytic value (or
    # vice versa) shows up as rel = 1 through the branch above
    rel[~nz & (diff > 0)] = np.inf
    return float(rel.max(initial=0.0))


def _random_track(rng: np.random.Generator, f: int, hgt: int, wdt: int, name: str) -> MaskTrack:
    """A moving random rectangle, possibly absent in some frames."""
    data = np.zeros((f, hgt, wdt), dtype=bool)
    bh = int(rng.integers(1, max(2, hgt // 2 + 1)))
    bw = int(rng.integers(1, max(2, wdt // 2 + 1)))
    r0 = int(rng.integers(0, hgt - bh + 1))
    c0 = int(rng.integers(0, wdt - bw + 1))
    vr = int(rng.integers(-2, 3))
    vc = int(rng.integers(-2, 3))
    for frame in range(f):
        r = r0 + vr * frame
        c = c0 + vc * frame
        rr0, rr1 = max(0, r), min(hgt, r + bh)
        cc0, cc1 = max(0, c), min(wdt, c + bw)
        if rr0 < rr1 and cc0 < cc1 and rng.random() > 0.1:
            data[frame, rr0:rr1, cc0:cc1] = True
    return MaskTrack(data, subject_id=name)


@dataclass
class GradCheckCase:
    """Latents and a target, with the references and weights the oracle reads its loss from."""

    label: str
    latents: LatentVideo
    target: GuidanceTarget
    references: list[MotionDescriptor]
    weights: dict[str, float]


def random_case(
    rng: np.random.Generator,
    n_frames: int,
    n_channels: int,
    height: int,
    width: int,
    n_subjects: int,
) -> GradCheckCase:
    """Random latents, overlapping subject masks, and arbitrary reference deltas."""
    latents = LatentVideo(rng.standard_normal((n_frames, n_channels, height, width)))
    masks = {}
    for k in range(n_subjects):
        masks[f"s{k}"] = _random_track(rng, n_frames, height, width, f"s{k}")
    masks[BACKGROUND_ID] = background_track(list(masks.values()))

    regions = PairOperator(masks)
    references = []
    weights = {}
    for sid, table in regions.pairs.items():
        forward = {}
        for (i, j), _ in table.items():
            if rng.random() < 0.15:
                continue  # leave some target-valid pairs without reference evidence
            forward[(i, j)] = rng.standard_normal(n_channels)
        references.append(
            MotionDescriptor.from_forward_pairs(sid, timestep=0, n_frames=n_frames, forward=forward)
        )
        weights[sid] = float(rng.uniform(0.2, 2.0))
    target = GuidanceTarget(references, regions, weights=weights)
    label = f"({n_frames}f,{n_channels}c,{height}x{width},{n_subjects}s)"
    return GradCheckCase(label, latents, target, references, weights)


def run_gradcheck(
    seed: int = 0,
    n_cases: int = 20,
    h: float = 1e-3,
    *,
    fault: str | None = None,
    zero_weights: bool = False,
) -> dict:
    """Compare analytic and finite-difference gradients over random cases.

    ``fault='sign-flip'`` negates the analytic gradient to prove the
    harness detects a broken gradient. ``zero_weights`` zeroes every
    source weight, which produces an identically-zero loss surface. A pass
    that checks nothing says why in ``vacuous``: zero weights, or no case
    with an enforced pair drawn; otherwise ``vacuous`` is None.
    """
    if n_cases < 1:
        raise BadValue(f"gradcheck needs at least one case, got {n_cases}")
    if seed < 0:
        raise BadValue(f"gradcheck seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    sizes = [(2, 2, 6, 6, 1), (3, 1, 8, 8, 2), (2, 3, 6, 6, 2), (4, 2, 10, 10, 3)]
    worst = {"rel_err": 0.0, "case": None}
    checked = 0
    for case_idx in range(n_cases):
        if case_idx == n_cases - 1:
            f, c, hh, ww, s = 4, 4, 16, 16, 3  # largest contracted size
        else:
            f, c, hh, ww, s = sizes[case_idx % len(sizes)]
        analytic = None
        for _ in range(20):  # redraw degenerate cases with no valid pairs
            case = random_case(rng, f, c, hh, ww, s)
            if zero_weights:
                zero = dict.fromkeys(case.weights, 0.0)
                case = GradCheckCase(case.label, case.latents, GuidanceTarget(
                    case.references, case.target.regions, weights=zero), case.references, zero)
            try:
                analytic = guidance_gradient(case.latents, case.target)
                break
            except NoValidPairs:
                continue
        if analytic is None:
            continue
        if fault == "sign-flip":
            analytic = -analytic
        numeric = finite_difference_gradient(case.latents, case, h=h)
        rel = max_relative_error(analytic, numeric)
        checked += 1
        if rel > worst["rel_err"]:
            worst = {"rel_err": rel, "case": case.label, "case_index": case_idx}
    if checked == 0:
        return {
            "checked": 0,
            "max_rel_err": 0.0,
            "passed": True,
            "vacuous": "no case with an enforced pair was drawn",
        }
    return {
        "checked": checked,
        "max_rel_err": worst["rel_err"],
        "worst_case": worst.get("case"),
        "passed": bool(worst["rel_err"] < 1e-4),
        "vacuous": "all source weights are zero" if zero_weights else None,
    }

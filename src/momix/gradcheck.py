"""Finite-difference verification of the guidance gradient.

The oracle never looks at the analytic gradient: it evaluates the loss at
symmetric perturbations of every latent cell and forms central
differences. Cells outside all enforced regions leave the loss bit-for-bit
unchanged, so their difference quotient is exactly zero, matching the
analytic locality property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoValidPairs
from .features import MotionDescriptor, PairOperator
from .guidance import GuidanceTarget, guidance_gradient
from .tensors import LatentVideo, MaskTrack

_CHUNK = 256


def _batched_loss(z_batch: np.ndarray, target: GuidanceTarget) -> np.ndarray:
    """Loss of each latent tensor in a (batch, F, C, H, W) stack.

    A per-pair loop over the target regions and the references, kept apart
    from the pair operator the analytic gradient uses.
    """
    b, f, c, h, w = z_batch.shape
    flat = z_batch.reshape(b, f, c, -1)
    total = np.zeros(b)
    for ref in sorted(target.references, key=lambda d: d.source_id):
        weight = float(target.weights.get(ref.source_id, 1.0))
        for (i, j), (idx, area) in target.regions.pairs[ref.source_id].items():
            if not ref.has_pair(i, j):
                continue
            means_i = flat[:, i][:, :, idx].sum(axis=2) / area
            means_j = flat[:, j][:, :, idx].sum(axis=2) / area
            r = (means_i - means_j) - ref.delta(i, j)[None, :]
            total += weight * np.einsum("bc,bc->b", r, r)
    return total


def finite_difference_gradient(
    z: LatentVideo, target: GuidanceTarget, h: float = 1e-3
) -> np.ndarray:
    """Central-difference gradient of the guidance loss, one cell at a time."""
    base = z.data.astype(np.float64, copy=True)
    n = base.size
    grad = np.zeros(n)
    flat = base.reshape(-1)
    for start in range(0, n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n))
        plus = np.repeat(flat[None, :], idx.size, axis=0)
        minus = plus.copy()
        plus[np.arange(idx.size), idx] += h
        minus[np.arange(idx.size), idx] -= h
        stacked = np.concatenate([plus, minus]).reshape(2 * idx.size, *base.shape)
        losses = _batched_loss(stacked, target)
        grad[idx] = (losses[: idx.size] - losses[idx.size :]) / (2.0 * h)
    return grad.reshape(base.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|), with exact double zeros contributing 0."""
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
    label: str
    latents: LatentVideo
    target: GuidanceTarget


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
    occupied = np.zeros((n_frames, height, width), dtype=bool)
    for t in masks.values():
        occupied |= t.data
    masks["background"] = MaskTrack(~occupied, subject_id="background")

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
    return GradCheckCase(label, latents, target)


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
    source weight, which produces an identically-zero loss surface and a
    vacuous (but honestly reported) pass.
    """
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
                case.target.weights = {sid: 0.0 for sid in case.target.regions.source_ids()}
                case = GradCheckCase(
                    case.label,
                    case.latents,
                    case.target.with_references(case.target.references),
                )
            try:
                analytic = guidance_gradient(case.latents, case.target)
                break
            except NoValidPairs:
                continue
        if analytic is None:
            continue
        if fault == "sign-flip":
            analytic = -analytic
        numeric = finite_difference_gradient(case.latents, case.target, h=h)
        rel = max_relative_error(analytic, numeric)
        checked += 1
        if rel > worst["rel_err"]:
            worst = {"rel_err": rel, "case": case.label, "case_index": case_idx}
    if checked == 0:
        return {"checked": 0, "max_rel_err": 0.0, "passed": True, "vacuous": True}
    return {
        "checked": checked,
        "max_rel_err": worst["rel_err"],
        "worst_case": worst.get("case"),
        "passed": bool(worst["rel_err"] < 1e-4),
        "vacuous": zero_weights,
    }

"""Trajectory agreement and descriptor distances.

These are exact geometric proxies computed on synthetic scenes; they
stand in for learned video metrics that need pretrained models and real
footage, and they are documented as such.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch
from .features import MotionDescriptor


def _as_points(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise LengthMismatch(f"trajectory must be a sequence of (row, col) pairs, got {arr.shape}")
    return arr


def trajectory_rmse(a, b) -> float:
    """Root mean squared Euclidean distance between paired points."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[0] != pb.shape[0]:
        raise LengthMismatch(f"trajectory lengths differ: {pa.shape[0]} vs {pb.shape[0]}")
    if pa.shape[0] < 1:
        raise LengthMismatch("trajectories must have at least one point")
    d2 = ((pa - pb) ** 2).sum(axis=1)
    return float(np.sqrt(d2.mean()))


def displacement_similarity(a, b) -> float:
    """Mean cosine similarity of per-frame displacement vectors.

    Frames where either displacement is zero are skipped; two entirely
    static sequences agree perfectly (1.0), and sequences with no
    comparable frames otherwise score 0.0.
    """
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[0] != pb.shape[0]:
        raise LengthMismatch(f"trajectory lengths differ: {pa.shape[0]} vs {pb.shape[0]}")
    if pa.shape[0] < 2:
        raise LengthMismatch("need at least two points to compare displacements")
    da = np.diff(pa, axis=0)
    db = np.diff(pb, axis=0)
    na = np.linalg.norm(da, axis=1)
    nb = np.linalg.norm(db, axis=1)
    both = (na > 0) & (nb > 0)
    if not both.any():
        return 1.0 if (na.max(initial=0) == 0 and nb.max(initial=0) == 0) else 0.0
    cos = (da[both] * db[both]).sum(axis=1) / (na[both] * nb[both])
    return float(cos.mean())


def mean_displacement(a) -> float:
    """Average per-frame displacement magnitude of one trajectory."""
    pa = _as_points(a)
    if pa.shape[0] < 2:
        raise LengthMismatch("need at least two points")
    return float(np.linalg.norm(np.diff(pa, axis=0), axis=1).mean())


def descriptor_distance(d1: MotionDescriptor, d2: MotionDescriptor) -> tuple[float, int]:
    """Sum of squared delta distances over pairs valid in both descriptors.

    Returns (distance, number of compared unordered pairs); disjoint
    valid-pair sets yield (0.0, 0), which callers should treat as a
    vacuous comparison. Descriptors of other frame or channel counts raise
    LengthMismatch; one without pairs has no channels to compare.
    """
    if d1.n_frames != d2.n_frames:
        raise LengthMismatch(f"frame counts differ: {d1.n_frames} vs {d2.n_frames}")
    if len(d1.pairs) and len(d2.pairs) and d1.n_channels != d2.n_channels:
        raise LengthMismatch(f"channel counts differ: {d1.n_channels} vs {d2.n_channels}")
    rows = d2.rows_of(d1.pairs)
    shared = rows >= 0
    if not shared.any():
        return 0.0, 0
    r = d1.deltas[shared] - d2.deltas[rows[shared]]
    return float(np.sum(r * r)), int(np.count_nonzero(shared))


def compare_trajectories(a, b) -> dict:
    """The dict ``run_metrics`` stores per subject: RMSE, displacement similarity, frame count."""
    return {
        "rmse_px": trajectory_rmse(a, b),
        "displacement_similarity": displacement_similarity(a, b),
        "n_frames_compared": len(a),
    }

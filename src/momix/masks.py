"""Set algebra on binary region masks and mask tracks.

A region mask is a plain 2-D boolean numpy array. A subject's pair region
for frames (i, j) is the union of its exclusive masks across the pair,
where "exclusive" removes the opposite frame's other-subject masks; this
is what keeps one subject's pooled features free of the others. The
background uses the intersection of the two frames' background masks so
camera statistics never include cells a subject occupies in either frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, BadValue
from .tensors import MaskTrack

BACKGROUND_ID = "background"
# every source id names files in the stage directories
SAFE_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_subject_ids(ids: Sequence[str]) -> None:
    """Reject subject ids that are not filesystem-safe, not unique, or the background's."""
    seen: set[str] = set()
    for sid in ids:
        if not SAFE_NAME.fullmatch(sid):
            raise BadValue(f"subject id {sid!r} is not filesystem-safe "
                           "(use letters, digits, _ . -)")
        if sid == BACKGROUND_ID:
            raise BadValue(f"subject id {BACKGROUND_ID!r} is reserved")
        if sid in seen:
            raise BadValue(f"duplicate subject id {sid!r}")
        seen.add(sid)


def _check_region(m: np.ndarray, name: str = "mask") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if m.dtype != np.bool_:
        m = m.astype(bool)
    return m


def _check_same(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimMismatch(f"region dims differ: {a.shape} vs {b.shape}")


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _check_region(a, "a"), _check_region(b, "b")
    _check_same(a, b)
    return a | b


def set_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cells true in ``a`` and false in ``b``."""
    a, b = _check_region(a, "a"), _check_region(b, "b")
    _check_same(a, b)
    return a & ~b


def exclusive_region(subject_frame: np.ndarray, others_frame: Sequence[np.ndarray]) -> np.ndarray:
    """Subject mask minus the union of all other-subject masks (from the opposing frame)."""
    out = _check_region(subject_frame, "subject").copy()
    for other in others_frame:
        other = _check_region(other, "other")
        _check_same(out, other)
        out &= ~other
    return out


def pair_region(
    subject: MaskTrack, others: Sequence[MaskTrack], i: int, j: int
) -> np.ndarray:
    """Union of the subject's exclusive masks across the frame pair (i, j).

    Other-subject masks from BOTH frames of the pair are subtracted: a cell
    another subject occupies in either frame would leak that subject's
    content into one side of the pooled difference, so it is excluded from
    the region outright. With an empty ``others`` list this degenerates to
    the plain union of the subject's masks at the two frames.
    """
    n = subject.n_frames
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"frame pair ({i}, {j}) outside range 0..{n - 1}")
    for o in others:
        if o.data.shape != subject.data.shape:
            raise DimMismatch(
                f"other track {o.subject_id!r} shape {o.data.shape} != subject {subject.data.shape}"
            )
    cut = [o.frame(i) for o in others] + [o.frame(j) for o in others]
    a = exclusive_region(subject.frame(i), cut)
    b = exclusive_region(subject.frame(j), cut)
    return a | b


def background_track(
    subjects: Sequence[MaskTrack], dims: tuple[int, int, int] | None = None
) -> MaskTrack:
    """Per-frame complement of the union of all subject masks."""
    if not subjects:
        if dims is None:
            raise DimMismatch("background_track needs at least one subject or explicit dims")
        return MaskTrack(np.ones(dims, dtype=bool), subject_id=BACKGROUND_ID)
    shape = subjects[0].data.shape
    occupied = np.zeros(shape, dtype=bool)
    for s in subjects:
        if s.data.shape != shape:
            raise DimMismatch(f"subject {s.subject_id!r} shape {s.data.shape} != {shape}")
        occupied |= s.data
    return MaskTrack(~occupied, subject_id=BACKGROUND_ID)


def background_pair_region(background: MaskTrack, i: int, j: int) -> np.ndarray:
    """Cells that are background in both frames of the pair."""
    n = background.n_frames
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"frame pair ({i}, {j}) outside range 0..{n - 1}")
    return background.frame(i) & background.frame(j)


# --- geometric mask edits -------------------------------------------------


@dataclass(frozen=True)
class MaskEdit:
    """A shift (integer pixels) or scale (about an anchor) applied to a track.

    Scaling uses nearest-neighbor inverse mapping with round-half-up so the
    result stays binary and bit-reproducible.
    """

    kind: Literal["shift", "scale"]
    dx: int = 0
    dy: int = 0
    factor: float = 1.0
    anchor: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("shift", "scale"):
            raise BadValue(f"unknown edit kind {self.kind!r}")
        if self.kind == "scale":
            if not 0 < self.factor < np.inf:
                raise BadValue(f"scale factor must be finite and positive, got {self.factor}")
            if self.anchor is None:
                raise BadValue("scale edit requires an anchor (row, col)")


def shift_mask(frame: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate a 2-D mask by (dy, dx); content leaving the frame is dropped."""
    frame = _check_region(frame)
    h, w = frame.shape
    out = np.zeros_like(frame)
    src_r0, src_r1 = max(0, -dy), min(h, h - dy)
    src_c0, src_c1 = max(0, -dx), min(w, w - dx)
    if src_r0 >= src_r1 or src_c0 >= src_c1:
        return out
    out[src_r0 + dy : src_r1 + dy, src_c0 + dx : src_c1 + dx] = frame[
        src_r0:src_r1, src_c0:src_c1
    ]
    return out


def scale_mask(frame: np.ndarray, factor: float, anchor: tuple[float, float]) -> np.ndarray:
    """Scale a 2-D mask about ``anchor`` by ``factor`` using inverse mapping."""
    frame = _check_region(frame)
    h, w = frame.shape
    ar, ac = float(anchor[0]), float(anchor[1])
    if not (0 <= ar <= h - 1 and 0 <= ac <= w - 1):
        raise BadValue(f"anchor {anchor} outside frame bounds {(h, w)}")
    rows = ar + (np.arange(h) - ar) / factor
    cols = ac + (np.arange(w) - ac) / factor
    # past 2**53 a float has no fractional part, so rounding half up is no longer exact
    if max(np.abs(rows).max(), np.abs(cols).max()) >= 2.0**53:
        raise BadValue(f"scale factor {factor} maps cells past 2**53 pixels from the anchor")
    # round half up, and test the bounds before the integer cast
    src_r, src_c = np.floor(rows + 0.5), np.floor(cols + 0.5)
    ok_r, ok_c = (src_r >= 0) & (src_r < h), (src_c >= 0) & (src_c < w)
    out = np.zeros_like(frame)
    out[np.ix_(ok_r, ok_c)] = frame[np.ix_(src_r[ok_r].astype(int), src_c[ok_c].astype(int))]
    return out


def apply_edit(track: MaskTrack, edit: MaskEdit) -> MaskTrack:
    """Apply a shift or scale edit to every frame of a mask track."""
    if edit.kind == "shift":
        frames = [shift_mask(track.frame(f), edit.dy, edit.dx) for f in range(track.n_frames)]
    else:
        frames = [
            scale_mask(track.frame(f), edit.factor, edit.anchor) for f in range(track.n_frames)
        ]
    return MaskTrack(np.stack(frames), subject_id=track.subject_id)

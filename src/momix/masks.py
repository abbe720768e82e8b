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


def _check_region(m: np.ndarray, name: str = "mask", ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim not in ndims:
        raise DimMismatch(f"{name} must be {' or '.join(map(str, ndims))}-D, got shape {m.shape}")
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
        if self.kind == "shift":
            if (self.factor, self.anchor) != (1.0, None):
                raise BadValue(f"a shift edit takes no factor or anchor, got factor "
                               f"{self.factor} and anchor {self.anchor}")
        elif self.kind == "scale":
            if (self.dx, self.dy) != (0, 0):
                raise BadValue(f"a scale edit takes no dx or dy, got ({self.dx}, {self.dy})")
            if not 0 < self.factor < np.inf:
                raise BadValue(f"scale factor must be finite and positive, got {self.factor}")
            if self.anchor is None:
                raise BadValue("scale edit requires an anchor (row, col)")
        else:
            raise BadValue(f"unknown edit kind {self.kind!r}")


def shift_mask(frames: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate a mask or an (F, H, W) track by (dy, dx); content leaving the frame is dropped."""
    frames = _check_region(frames, ndims=(2, 3))
    h, w = frames.shape[-2:]
    out = np.zeros_like(frames)
    src_r0, src_r1 = max(0, -dy), min(h, h - dy)
    src_c0, src_c1 = max(0, -dx), min(w, w - dx)
    if src_r0 >= src_r1 or src_c0 >= src_c1:
        return out
    out[..., src_r0 + dy : src_r1 + dy, src_c0 + dx : src_c1 + dx] = frames[
        ..., src_r0:src_r1, src_c0:src_c1
    ]
    return out


def scale_sources(height: int, width: int, factor: float,
                  anchor: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's and each column's source, rounded half up, in a frame scaled about ``anchor``.

    A source may lie outside the frame. An anchor outside the frame, or a
    factor that maps a cell past 2**53 pixels from it, raises BadValue, so a
    caller can check a scale edit before it has any mask.
    """
    ar, ac = float(anchor[0]), float(anchor[1])
    if not (0 <= ar <= height - 1 and 0 <= ac <= width - 1):
        raise BadValue(f"anchor {anchor} outside frame bounds {(height, width)}")
    rows = ar + (np.arange(height) - ar) / factor
    cols = ac + (np.arange(width) - ac) / factor
    # past 2**53 a float has no fractional part, so rounding half up is no longer exact
    if max(np.abs(rows).max(), np.abs(cols).max()) >= 2.0**53:
        raise BadValue(f"scale factor {factor} maps cells past 2**53 pixels from the anchor")
    return np.floor(rows + 0.5), np.floor(cols + 0.5)


def scale_mask(frames: np.ndarray, factor: float, anchor: tuple[float, float]) -> np.ndarray:
    """Scale a mask or an (F, H, W) track about ``anchor`` by ``factor``, by inverse mapping."""
    frames = _check_region(frames, ndims=(2, 3))
    h, w = frames.shape[-2:]
    src_r, src_c = scale_sources(h, w, factor, anchor)
    # test the bounds before the integer cast
    ok_r, ok_c = (src_r >= 0) & (src_r < h), (src_c >= 0) & (src_c < w)
    out = np.zeros_like(frames)
    out[(..., *np.ix_(ok_r, ok_c))] = frames[
        (..., *np.ix_(src_r[ok_r].astype(int), src_c[ok_c].astype(int)))]
    return out


def apply_edit(track: MaskTrack, edit: MaskEdit) -> MaskTrack:
    """Apply a shift or scale edit to all frames of a mask track in one call."""
    data = (shift_mask(track.data, edit.dy, edit.dx) if edit.kind == "shift"
            else scale_mask(track.data, edit.factor, edit.anchor))
    return MaskTrack(data, subject_id=track.subject_id)

"""Masked motion descriptors: pooled feature vectors, pairwise deltas, blends.

The motion cue for a source (a subject or the background) at one timestep
is the set of pairwise deltas ``delta(i, j) = mean over the pair region of
frame i  -  mean over the same region of frame j``, one vector of channel
means per ordered frame pair. Both means share one region per pair, so
antisymmetry ``delta(i, j) == -delta(j, i)`` holds exactly in floating
point. Pairs whose region is empty carry no vector at all: an absent pair
means "no evidence", not "no motion".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Literal, Mapping, Sequence

import numpy as np

from .errors import (
    BadValue,
    DimMismatch,
    EmptyRegion,
    LengthMismatch,
    MissingBackground,
    NoValidPairs,
    UnknownSubject,
)
from .masks import (
    BACKGROUND_ID,
    MaskEdit,
    background_pair_region,
    background_track,
    pair_region,
)
from .tensors import (
    LatentVideo,
    MaskTrack,
    check_keys,
    ensure_same_geometry,
    read_array,
    read_json,
    typed_field,
    write_array,
    write_json,
)

log = logging.getLogger(__name__)


def lsmm(frame_features: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Per-channel mean of a (channels, height, width) frame over a region."""
    frame_features = np.asarray(frame_features)
    if frame_features.ndim != 3:
        raise DimMismatch(f"frame features must be 3-D, got {frame_features.shape}")
    region = np.asarray(region, dtype=bool)
    if region.shape != frame_features.shape[1:]:
        raise DimMismatch(
            f"region {region.shape} does not match frame spatial dims {frame_features.shape[1:]}"
        )
    n = int(np.count_nonzero(region))
    if n == 0:
        raise EmptyRegion("cannot pool over an empty region")
    flat = np.flatnonzero(region.ravel())
    sums = frame_features.reshape(frame_features.shape[0], -1)[:, flat].sum(
        axis=1, dtype=np.float64
    )
    return sums / n


def motion_delta(
    latents_i: np.ndarray,
    latents_j: np.ndarray,
    subject: MaskTrack,
    others: Sequence[MaskTrack],
    i: int,
    j: int,
) -> np.ndarray:
    """Delta of pooled features between frames i and j over their shared pair region."""
    region = pair_region(subject, others, i, j)
    return lsmm(latents_i, region) - lsmm(latents_j, region)


@dataclass(frozen=True, eq=False, repr=False)
class MotionDescriptor:
    """All pairwise deltas for one motion source at one timestep.

    ``pairs`` is the sorted (n_pairs, 2) array of forward pairs (i < j)
    whose region was non-empty, and row k of the (n_pairs, C) ``deltas``
    is ``delta(*pairs[k])``: the layout of a pair operator's rows and of
    the archive tensor. The mirror ``delta(j, i)`` is read as the exact
    negation. Both arrays are read-only.
    """

    source_id: str
    timestep: int
    n_frames: int
    pairs: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        name = f"descriptor {self.source_id!r} t={self.timestep}"
        pairs = np.asarray(self.pairs, dtype=np.int64)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs.view()
        deltas = np.asarray(self.deltas, dtype=np.float64).view()
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DimMismatch(f"{name}: pairs must be (n_pairs, 2), got {pairs.shape}")
        if deltas.ndim != 2 or deltas.shape[0] != pairs.shape[0]:
            raise DimMismatch(
                f"{name}: deltas {deltas.shape} do not match {pairs.shape[0]} pairs"
            )
        if pairs.size:
            i, j = pairs.T
            if i.min() < 0 or j.max() >= self.n_frames or np.any(i >= j):
                raise BadValue(f"{name}: pairs must satisfy 0 <= i < j < {self.n_frames}")
            if np.any(np.diff(i * self.n_frames + j) <= 0):
                raise BadValue(f"{name}: pairs must be sorted and distinct")
        pairs.setflags(write=False)
        deltas.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "deltas", deltas)

    @classmethod
    def from_forward_pairs(
        cls,
        source_id: str,
        timestep: int,
        n_frames: int,
        forward: Mapping[tuple[int, int], np.ndarray],
    ) -> "MotionDescriptor":
        """Build from a {(i, j): delta} mapping of forward pairs, in any order."""
        pairs = sorted(forward)
        deltas = [np.asarray(forward[p], dtype=np.float64) for p in pairs]
        return cls(source_id, timestep, n_frames, pairs, deltas if pairs else np.zeros((0, 0)))

    @property
    def n_channels(self) -> int:
        return int(self.deltas.shape[1])

    @cached_property
    def _rows(self) -> np.ndarray:
        """(n_frames, n_frames) row of pair (i, j) in either orientation; -1 if absent."""
        rows = np.full((self.n_frames, self.n_frames), -1, dtype=np.intp)
        i, j = self.pairs.T
        rows[i, j] = rows[j, i] = np.arange(len(self.pairs))
        return rows

    def rows_of(self, pairs: np.ndarray) -> np.ndarray:
        """Row of each frame pair in an (n, 2) array, -1 where this descriptor lacks it."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        return self._rows[pairs[:, 0], pairs[:, 1]]

    @cached_property
    def valid_pairs(self) -> frozenset[tuple[int, int]]:
        """Every valid ordered pair, both orientations."""
        forward = [tuple(p) for p in self.pairs.tolist()]
        return frozenset(forward + [(j, i) for i, j in forward])

    def delta(self, i: int, j: int) -> np.ndarray:
        if i == j:
            return np.zeros(self.n_channels)
        if not self.has_pair(i, j):
            raise KeyError((i, j))
        row = self.deltas[self._rows[i, j]]
        return row if i < j else -row

    def has_pair(self, i: int, j: int) -> bool:
        return 0 <= i < self.n_frames and 0 <= j < self.n_frames and bool(self._rows[i, j] >= 0)

    def forward_pairs(self) -> list[tuple[int, int]]:
        return [tuple(p) for p in self.pairs.tolist()]

    def __repr__(self):
        return (
            f"MotionDescriptor({self.source_id!r}, t={self.timestep}, "
            f"pairs={len(self.pairs)})"
        )


class PairOperator:
    """Region-mean deltas over every non-empty pair region of a mask set, as one linear map.

    Row r is one source's pair (i, j) = ``ij[r]``, i < j, with its cell set and area;
    rows run by source in mask-set order, then by (i, j), and an empty
    region never becomes a row. Subjects use ``pair_region`` (no other
    subjects cut out if ``legacy_region``), the background track uses
    ``background_pair_region``. Cell sets are stored as one 0/1 bool
    matrix per frame holding every row that touches it, so ``apply`` and
    ``adjoint`` are one matmul per frame.
    """

    def __init__(self, tracks: Mapping[str, MaskTrack], *, legacy_region: bool = False):
        if not tracks:
            raise BadValue("mask set must not be empty")
        shape = next(iter(tracks.values())).data.shape
        for track in tracks.values():
            if track.data.shape != shape:
                raise DimMismatch(f"mask shapes differ: {track.data.shape} vs {shape}")
        self.n_frames, self.spatial = shape[0], shape[1:]
        self._n_cells = int(np.prod(self.spatial))
        subjects = {sid: t for sid, t in tracks.items() if sid != BACKGROUND_ID}
        rows: list[tuple[str, int, int]] = []
        by_frame: list[list[tuple[int, float, np.ndarray]]] = [[] for _ in range(shape[0])]
        self.slices: dict[str, slice] = {}
        for sid, track in tracks.items():
            others = [] if legacy_region else [t for o, t in subjects.items() if o != sid]
            first = len(rows)
            for i in range(self.n_frames):
                for j in range(i + 1, self.n_frames):
                    if sid == BACKGROUND_ID:
                        region = background_pair_region(track, i, j)
                    else:
                        region = pair_region(track, others, i, j)
                    if region.any():
                        by_frame[i].append((len(rows), 1.0, region.ravel()))
                        by_frame[j].append((len(rows), -1.0, region.ravel()))
                        rows.append((sid, i, j))
            self.slices[sid] = slice(first, len(rows))
        self.rows = tuple(rows)
        self.ij = np.array([row[1:] for row in rows], dtype=np.int64).reshape(-1, 2)
        self.area = np.zeros(len(rows), dtype=np.int64)
        self._groups = []
        for entries in by_frame:
            index = np.array([e[0] for e in entries], dtype=np.intp)
            sign = np.array([e[1] for e in entries], dtype=np.float64)
            cells = np.array([e[2] for e in entries], dtype=bool).reshape(-1, self._n_cells)
            self.area[index[sign > 0]] = cells[sign > 0].sum(axis=1)
            self._groups.append((index, sign, cells))

    def source_ids(self) -> list[str]:
        return list(self.slices)

    @cached_property
    def pairs(self) -> dict[str, dict[tuple[int, int], tuple[np.ndarray, int]]]:
        """source_id -> {(i, j): (flat cell indices, area)}: the rows, one pair at a time."""
        table: dict[str, dict] = {sid: {} for sid in self.slices}
        for index, sign, cells in self._groups:
            for k in np.flatnonzero(sign > 0):
                sid, i, j = self.rows[index[k]]
                table[sid][(i, j)] = (np.flatnonzero(cells[k]), int(self.area[index[k]]))
        return {sid: dict(sorted(pairs.items())) for sid, pairs in table.items()}

    def apply(self, latents: np.ndarray) -> np.ndarray:
        """(F, C, H, W) latents -> (n_rows, C) region-mean deltas ``mean_i - mean_j``."""
        data = np.asarray(latents, dtype=np.float64)
        if data.ndim != 4 or (data.shape[0], *data.shape[2:]) != (self.n_frames, *self.spatial):
            raise DimMismatch(
                f"latents {data.shape} do not match pair regions "
                f"({self.n_frames}, *, {self.spatial})"
            )
        flat = data.reshape(self.n_frames, data.shape[1], self._n_cells)
        out = np.zeros((len(self.rows), data.shape[1]))
        # frames run in order and i < j, so each row gets +mean_i before -mean_j
        for f, (index, sign, cells) in enumerate(self._groups):
            if index.size:
                means = (cells.astype(np.float64) @ flat[f].T) / self.area[index, None]
                out[index] += sign[:, None] * means
        return out

    def adjoint(self, coef: np.ndarray) -> np.ndarray:
        """(n_rows, C) coefficients -> (F, C, H, W) gradient of ``sum(coef * apply(z))``.

        Row r adds ``coef[r] / area`` over its cells on frame i and
        subtracts it on frame j.
        """
        per_cell = coef / self.area[:, None]
        grad = np.zeros((self.n_frames, coef.shape[1], self._n_cells))
        for f, (index, sign, cells) in enumerate(self._groups):
            if index.size:
                grad[f] = (sign[:, None] * per_cell[index]).T @ cells.astype(np.float64)
        return grad.reshape(self.n_frames, coef.shape[1], *self.spatial)


def compile_sources(
    latents: LatentVideo,
    subjects: Sequence[MaskTrack],
    *,
    include_background: bool = True,
    legacy_region: bool = False,
) -> PairOperator:
    """The pair operator over subject tracks plus (optionally) their background.

    ``latents`` fixes the geometry every track must match; the operator
    applies to any latents of that geometry, whatever their timestep.
    """
    tracks: dict[str, MaskTrack] = {}
    for track in subjects:
        ensure_same_geometry(latents, track)
        if track.subject_id in tracks:
            raise BadValue(f"duplicate subject id {track.subject_id!r}")
        if track.subject_id == BACKGROUND_ID:
            raise BadValue(f"subject id {BACKGROUND_ID!r} is reserved")
        tracks[track.subject_id] = track
    dims = (latents.n_frames, latents.height, latents.width)
    if include_background:
        tracks[BACKGROUND_ID] = background_track(list(tracks.values()), dims=dims)
    if not tracks:
        raise NoValidPairs("no source to extract")
    return PairOperator(tracks, legacy_region=legacy_region)


def extract_descriptors(
    latents: LatentVideo,
    subjects: Sequence[MaskTrack],
    timestep: int,
    *,
    include_background: bool = True,
    legacy_region: bool = False,
    strict: bool = True,
    operator: PairOperator | None = None,
) -> list[MotionDescriptor]:
    """One descriptor per subject plus one for the background.

    ``operator``, compiled by ``compile_sources`` from the same subjects
    and options, skips the compile when many timesteps share one mask set.
    A subject whose region is empty for every frame pair raises
    NoValidPairs when ``strict``, otherwise it is skipped with a warning.
    The background degrades to an empty descriptor instead of raising, so
    an all-covering subject (the global-mean degenerate case) still works.
    """
    if operator is None:
        operator = compile_sources(
            latents, subjects, include_background=include_background, legacy_region=legacy_region
        )
    deltas = operator.apply(latents.data)
    out: list[MotionDescriptor] = []
    for sid, rows in operator.slices.items():
        empty = rows.start == rows.stop
        if empty and sid != BACKGROUND_ID:
            if strict:
                raise NoValidPairs(
                    f"subject {sid!r} has no non-empty pair region in any frame pair"
                )
            log.warning("skipping source %r: no valid frame pairs", sid)
            continue
        if empty:
            log.warning("background has no valid frame pairs (subjects cover every frame)")
        out.append(
            MotionDescriptor(sid, timestep, operator.n_frames, operator.ij[rows], deltas[rows])
        )
    if not any(len(d.pairs) for d in out):
        raise NoValidPairs("no source has any valid frame pair")
    return out


def soft_blend(subject_delta: np.ndarray, camera_delta: np.ndarray, w_c: float) -> np.ndarray:
    """Blend a subject delta toward the camera delta: (s + w_c*c) / (w_c + 1)."""
    s = np.asarray(subject_delta, dtype=np.float64)
    c = np.asarray(camera_delta, dtype=np.float64)
    if s.shape != c.shape:
        raise LengthMismatch(f"delta lengths differ: {s.shape} vs {c.shape}")
    if not w_c >= 0:
        raise BadValue(f"w_c must be non-negative, got {w_c}")
    if w_c == 0:
        return s.copy()
    return (s + w_c * c) / (w_c + 1.0)


# --- edit plans and recomposition ------------------------------------------


@dataclass(frozen=True)
class Directive:
    """Per-subject recomposition directive."""

    kind: Literal["keep", "remove", "soften", "mask_edit"]
    w_c: float | None = None
    edit: MaskEdit | None = None

    def __post_init__(self):
        if self.kind not in ("keep", "remove", "soften", "mask_edit"):
            raise BadValue(f"unknown directive kind {self.kind!r}")
        if self.kind == "mask_edit" and self.edit is None:
            raise BadValue("mask_edit directive requires an edit")
        if self.w_c is not None and not self.w_c >= 0:
            raise BadValue(f"w_c must be non-negative, got {self.w_c}")


@dataclass(frozen=True)
class EditPlan:
    """What to do with each source when recomposing motion for a new sample.

    Subjects without an explicit directive are kept. ``camera_only`` drops
    every subject and enforces only the background descriptor.
    """

    directives: Mapping[str, Directive] = field(default_factory=dict)
    include_background: bool = True
    w_c: float = 0.0
    camera_only: bool = False

    def __post_init__(self):
        object.__setattr__(self, "directives", dict(self.directives))
        if not self.w_c >= 0:
            raise BadValue(f"w_c must be non-negative, got {self.w_c}")

    def directive_for(self, subject_id: str) -> Directive:
        return self.directives.get(subject_id, Directive("keep"))


def recompose(descriptors: Sequence[MotionDescriptor], plan: EditPlan) -> list[MotionDescriptor]:
    """Apply an edit plan to a set of extracted descriptors.

    Mask edits pass the descriptor through untouched; they take effect on
    the target-side regions when the guidance problem is assembled.
    """
    by_id = {d.source_id: d for d in descriptors}
    background = by_id.get(BACKGROUND_ID)
    for sid in plan.directives:
        if sid == BACKGROUND_ID:
            raise UnknownSubject("directives apply to subjects, not the background")
        if sid not in by_id:
            raise UnknownSubject(f"plan references unknown subject {sid!r}")

    needs_background = plan.camera_only or any(
        d.kind in ("remove", "soften") for d in plan.directives.values()
    )
    if needs_background and background is None:
        raise MissingBackground("plan needs the background descriptor but none was extracted")

    if plan.camera_only:
        return [background]

    out: list[MotionDescriptor] = []
    for desc in descriptors:
        if desc.source_id == BACKGROUND_ID:
            if plan.include_background:
                out.append(desc)
            continue
        directive = plan.directive_for(desc.source_id)
        if directive.kind in ("keep", "mask_edit"):
            out.append(desc)
        elif directive.kind == "remove":
            out.append(
                MotionDescriptor(
                    desc.source_id, desc.timestep, desc.n_frames, background.pairs, background.deltas
                )
            )
        else:  # soften, over the pairs the background also has
            w_c = directive.w_c if directive.w_c is not None else plan.w_c
            rows = background.rows_of(desc.pairs)
            shared = rows >= 0
            deltas = desc.deltas[shared]
            if shared.any():
                deltas = soft_blend(deltas, background.deltas[rows[shared]], w_c)
            out.append(
                MotionDescriptor(
                    desc.source_id, desc.timestep, desc.n_frames, desc.pairs[shared], deltas
                )
            )
    return out


def plan_to_json(plan: EditPlan) -> dict:
    subjects = {}
    for sid, d in plan.directives.items():
        entry: dict = {"op": d.kind}
        if d.w_c is not None:
            entry["w_c"] = d.w_c
        if d.edit is not None:
            entry["edit"] = {
                "kind": d.edit.kind,
                "dx": d.edit.dx,
                "dy": d.edit.dy,
                "factor": d.edit.factor,
                "anchor": list(d.edit.anchor) if d.edit.anchor is not None else None,
            }
        subjects[sid] = entry
    return {
        "subjects": subjects,
        "include_background": plan.include_background,
        "w_c": plan.w_c,
        "camera_only": plan.camera_only,
    }


_PLAN_KEYS = ("subjects", "include_background", "w_c", "camera_only")
_DIRECTIVE_KEYS = ("op", "w_c", "edit")
_EDIT_KEYS = ("kind", "dx", "dy", "factor", "anchor")


def plan_from_json(doc: dict) -> EditPlan:
    """The plan ``plan_to_json`` writes; a key it would not write is rejected."""
    check_keys(doc, _PLAN_KEYS, "edit plan")
    try:
        directives = {}
        for sid, entry in doc.get("subjects", {}).items():
            check_keys(entry, _DIRECTIVE_KEYS, f"plan entry {sid!r}")
            edit = None
            if entry.get("edit") is not None:
                e = check_keys(entry["edit"], _EDIT_KEYS, f"plan edit of {sid!r}")
                edit = MaskEdit(
                    kind=e["kind"],
                    dx=typed_field(e, "dx", int, 0, "edit plan"),
                    dy=typed_field(e, "dy", int, 0, "edit plan"),
                    factor=float(e.get("factor", 1.0)),
                    anchor=tuple(e["anchor"]) if e.get("anchor") is not None else None,
                )
            directives[str(sid)] = Directive(
                kind=entry["op"],
                w_c=float(entry["w_c"]) if "w_c" in entry else None,
                edit=edit,
            )
        return EditPlan(
            directives=directives,
            include_background=typed_field(doc, "include_background", bool, True, "edit plan"),
            w_c=float(doc.get("w_c", 0.0)),
            camera_only=typed_field(doc, "camera_only", bool, False, "edit plan"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadValue(f"malformed edit plan: {exc}") from exc


def load_plan(path) -> EditPlan:
    return plan_from_json(read_json(path))


def save_plan(plan: EditPlan, path) -> None:
    write_json(path, plan_to_json(plan))


# --- descriptor archive -----------------------------------------------------


def save_descriptor(desc: MotionDescriptor, json_path) -> None:
    """Write a descriptor as a JSON manifest plus its (n_pairs, n_channels) tensor."""
    json_path = Path(json_path)
    if len(desc.pairs):
        write_array(json_path.with_suffix(".cmt"), desc.deltas)
    write_json(
        json_path,
        {
            "source_id": desc.source_id,
            "timestep": desc.timestep,
            "n_frames": desc.n_frames,
            "valid_pairs": desc.pairs.tolist(),
            "tensor": json_path.with_suffix(".cmt").name,
        },
    )


def load_descriptor(json_path) -> MotionDescriptor:
    json_path = Path(json_path)
    doc = read_json(json_path)
    try:
        pairs = np.asarray(doc["valid_pairs"], dtype=np.int64)
        deltas = read_array(json_path.parent / doc["tensor"]) if pairs.size else np.zeros((0, 0))
        return MotionDescriptor(
            str(doc["source_id"]), int(doc["timestep"]), int(doc["n_frames"]), pairs, deltas
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadValue(f"{json_path}: malformed descriptor: {exc}") from exc

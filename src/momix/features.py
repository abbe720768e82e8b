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
    background_track,
    check_subject_ids,
    pair_region,
)
from .tensors import (
    LatentVideo,
    MaskTrack,
    read_array,
    read_json,
    typed_fields,
    typed_numbers,
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
            di, dj = np.diff(i), np.diff(j)
            if np.any((di < 0) | ((di == 0) & (dj <= 0))):
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
    region never becomes a row. A subject's region is ``pair_region``'s: its
    cells at i or j minus those of every other subject at i or j (none cut
    out if ``legacy_region``). The background track's is
    ``background_pair_region``'s: its cells at both i and j.

    Both region kinds are cellwise set algebra on the tracks, so cells that
    carry the same bit in every track at every frame (an *atom*) belong to
    exactly the same rows. The algebra runs on one representative cell per
    atom, for every source and frame pair in one array expression, and the
    regions are stored once, as one 0/1 (rows, atoms) matrix; each frame keeps
    only the indices and signs of the rows that touch it. ``apply`` sums each
    frame's cells per atom with ``np.bincount`` and ``adjoint`` gathers
    per-atom coefficients back to the cells; every product is a fixed-order
    einsum or bincount, not BLAS, so the bytes do not depend on the thread
    count.
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
        # label each cell by its bits over every track and frame
        bits = np.stack([t.data.reshape(-1, self._n_cells) for t in tracks.values()])
        packed = np.ascontiguousarray(np.packbits(bits.reshape(-1, self._n_cells), axis=0).T)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
        _, rep, labels = np.unique(keys, return_index=True, return_inverse=True)
        self._labels = labels.reshape(-1)
        self._sizes = np.bincount(self._labels).astype(np.float64)
        # every source's region at every forward pair at once: (sources, pairs, atoms)
        atoms = bits[:, :, rep]
        is_subject = np.array([sid != BACKGROUND_ID for sid in tracks])[:, None, None]
        # per source and frame, the atoms some other subject holds
        held = np.count_nonzero(atoms & is_subject, axis=0)
        others = np.zeros_like(atoms) if legacy_region else held - atoms > 0
        i, j = np.triu_indices(self.n_frames, 1)
        region = np.where(is_subject, (atoms[:, i] | atoms[:, j]) & ~(others[:, i] | others[:, j]),
                          atoms[:, i] & atoms[:, j])
        kept = region.any(axis=2)
        source, pair = np.nonzero(kept)
        self._member = region[source, pair].astype(np.float64)
        self.ij = np.column_stack((i[pair], j[pair])).astype(np.int64)
        sids = list(tracks)
        self.rows = tuple((sids[s], a, b) for s, a, b in zip(source.tolist(), *self.ij.T.tolist()))
        bounds = [0, *np.cumsum(np.count_nonzero(kept, axis=1)).tolist()]
        self.slices = {sid: slice(a, b) for sid, a, b in zip(sids, bounds, bounds[1:])}
        # sums of integer cell counts, exact in float64
        self.area = np.einsum("ra,a->r", self._member, self._sizes).astype(np.int64)
        self._curvatures: dict[bytes, float] = {}
        # per frame, the rows that touch it in row order: +1 where it is i, -1 where it is j
        self._groups = []
        for f in range(self.n_frames):
            index = np.flatnonzero((self.ij == f).any(axis=1))
            self._groups.append((index, np.where(self.ij[index, 0] == f, 1.0, -1.0)))

    def source_ids(self) -> list[str]:
        return list(self.slices)

    @cached_property
    def pairs(self) -> dict[str, dict[tuple[int, int], tuple[np.ndarray, int]]]:
        """source_id -> {(i, j): (flat cell indices, area)}: the rows, one pair at a time."""
        table: dict[str, dict] = {sid: {} for sid in self.slices}
        for r, (sid, i, j) in enumerate(self.rows):
            table[sid][(i, j)] = (np.flatnonzero(self._member[r, self._labels]), int(self.area[r]))
        return table

    @cached_property
    def gram(self) -> np.ndarray:
        """(n_rows, n_rows) Gram matrix ``W Wᵀ``: ``apply(adjoint(c)) == gram @ c``.

        Entry (r, s) sums, over the frames both rows touch, the overlap count
        of their cells times ``sign_r sign_s / (area_r area_s)``. The counts
        are sums of atom sizes, integers exact in float64 in any order. Read-only.
        """
        gram = np.zeros((len(self.rows), len(self.rows)))
        for index, sign in self._groups:
            if index.size:
                member = self._member[index]
                overlap = np.einsum("ra,sa->rs", member * self._sizes, member)
                scale = sign / self.area[index]
                gram[np.ix_(index, index)] += np.outer(scale, scale) * overlap
        gram.setflags(write=False)
        return gram

    def curvature(self, weight: np.ndarray) -> float:
        """λmax of ``D½ G D½``, D = diag(weight), G = ``gram``; memoized per weight vector."""
        if (key := weight.tobytes()) not in self._curvatures:
            top = weight.max() or 1.0
            root = np.sqrt(weight / top)  # entries at most 1: no underflow or overflow
            self._curvatures[key] = top * _top_eigenvalue(root[:, None] * self.gram * root)
        return self._curvatures[key]

    def apply(self, latents: np.ndarray) -> np.ndarray:
        """(F, C, H, W) latents -> (n_rows, C) region-mean deltas ``mean_i - mean_j``."""
        data = np.asarray(latents)
        if data.ndim != 4 or (data.shape[0], *data.shape[2:]) != (self.n_frames, *self.spatial):
            raise DimMismatch(
                f"latents {data.shape} do not match pair regions "
                f"({self.n_frames}, *, {self.spatial})"
            )
        n_channels, n_atoms = data.shape[1], self._sizes.size
        flat = data.reshape(self.n_frames, n_channels * self._n_cells)
        # channel c of a frame sums into bins c * n_atoms + label
        bins = (self._labels + n_atoms * np.arange(n_channels)[:, None]).reshape(-1)
        out = np.zeros((len(self.rows), n_channels))
        # frames run in order and i < j, so each row gets +mean_i before -mean_j
        for f, (index, sign) in enumerate(self._groups):
            if index.size:
                sums = np.bincount(bins, weights=flat[f], minlength=n_channels * n_atoms)
                sums = sums.reshape(n_channels, n_atoms)
                means = np.einsum("ra,ca->rc", self._member[index], sums) / self.area[index, None]
                out[index] += sign[:, None] * means
        return out

    def adjoint(self, coef: np.ndarray) -> np.ndarray:
        """(n_rows, C) coefficients -> (F, C, H, W) gradient of ``sum(coef * apply(z))``.

        Row r adds ``coef[r] / area`` over its cells on frame i and
        subtracts it on frame j.
        """
        per_cell = coef / self.area[:, None]
        atoms = np.zeros((self.n_frames, coef.shape[1], self._sizes.size))
        for f, (index, sign) in enumerate(self._groups):
            if index.size:
                atoms[f] = np.einsum("ra,rc->ca", self._member[index],
                                     sign[:, None] * per_cell[index])
        # np.take keeps the gathered axis last, so the result is C-contiguous;
        # atoms[:, :, labels] lays it out with frames and channels innermost
        cells = np.take(atoms, self._labels, axis=2)
        return cells.reshape(self.n_frames, coef.shape[1], *self.spatial)


def _top_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix, by power iteration.

    Fixed-order einsums, not LAPACK or BLAS, so the bytes do not depend on the thread count.
    The Rayleigh quotient only rises; it stops once a step gains less than 1e-6 of it.
    """
    u, rho, last = np.random.default_rng(0).standard_normal(len(a)), 0.0, -1.0
    while rho - last > 1e-6 * rho:
        v = u / np.sqrt(np.einsum("r,r->", u, u))
        u = np.einsum("rs,s->r", a, v)
        rho, last = float(np.einsum("r,r->", v, u)), rho
    return rho


def compile_sources(
    latent_shape: Sequence[int],
    subjects: Sequence[MaskTrack],
    *,
    legacy_region: bool = False,
) -> PairOperator:
    """The pair operator over subject tracks plus their background.

    ``latent_shape``, (frames, channels, height, width), fixes the geometry
    every track must match; the operator applies to any latents of that
    shape, whatever their timestep. The masks alone fix its rows, so it can
    be compiled before any latent exists.
    """
    check_subject_ids([track.subject_id for track in subjects])
    dims = (latent_shape[0], *latent_shape[2:])
    tracks: dict[str, MaskTrack] = {}
    for track in subjects:
        if track.data.shape != dims:
            raise DimMismatch(f"mask track {track.data.shape} does not match latents "
                              f"{tuple(latent_shape)}")
        tracks[track.subject_id] = track
    tracks[BACKGROUND_ID] = background_track(list(tracks.values()), dims=dims)
    return PairOperator(tracks, legacy_region=legacy_region)


def extract_descriptors(
    latents: LatentVideo,
    subjects: Sequence[MaskTrack],
    timestep: int,
    *,
    legacy_region: bool = False,
    strict: bool = True,
    operator: PairOperator | None = None,
) -> list[MotionDescriptor]:
    """One descriptor per subject plus one for the background.

    ``operator``, compiled by ``compile_sources`` from the same subjects,
    skips the compile when many timesteps share one mask set; it then
    fixes the regions, and ``legacy_region`` is not read.
    A subject whose region is empty for every frame pair raises
    NoValidPairs when ``strict``, otherwise it is skipped.
    The background degrades to an empty descriptor instead of raising, so
    an all-covering subject (the global-mean degenerate case) still works.
    Only regions compiled here are passed to ``warn_empty_sources``: a caller
    that passes ``operator`` warns once for every timestep it serves.
    """
    compiled = operator is None
    if compiled:
        operator = compile_sources(latents.shape, subjects, legacy_region=legacy_region)
    deltas = operator.apply(latents.data)
    out: list[MotionDescriptor] = []
    for sid, rows in operator.slices.items():
        if rows.start == rows.stop and sid != BACKGROUND_ID:
            if strict:
                raise NoValidPairs(
                    f"subject {sid!r} has no non-empty pair region in any frame pair"
                )
            continue
        out.append(
            MotionDescriptor(sid, timestep, operator.n_frames, operator.ij[rows], deltas[rows])
        )
    if compiled:
        warn_empty_sources(operator)
    if not any(len(d.pairs) for d in out):
        raise NoValidPairs("no source has any valid frame pair")
    return out


def warn_empty_sources(operator: PairOperator) -> None:
    """Log each source of ``operator`` with no pair region: extraction skips or empties it."""
    for sid, rows in operator.slices.items():
        if rows.start == rows.stop and sid == BACKGROUND_ID:
            log.warning("background has no valid frame pairs (subjects cover every frame)")
        elif rows.start == rows.stop:
            log.warning("skipping source %r: no valid frame pairs", sid)


def soft_blend(subject_delta: np.ndarray, camera_delta: np.ndarray, w_c: float) -> np.ndarray:
    """Blend a subject delta toward the camera delta: (s + w_c*c) / (w_c + 1)."""
    s = np.asarray(subject_delta, dtype=np.float64)
    c = np.asarray(camera_delta, dtype=np.float64)
    if s.shape != c.shape:
        raise LengthMismatch(f"delta lengths differ: {s.shape} vs {c.shape}")
    if not 0 <= w_c < np.inf:
        raise BadValue(f"w_c must be finite and non-negative, got {w_c}")
    if w_c == 0:
        return s.copy()
    return (s + w_c * c) / (w_c + 1.0)


# --- edit plans and recomposition ------------------------------------------


@dataclass(frozen=True)
class Directive:
    """Per-subject recomposition directive.

    Only ``soften`` takes a ``w_c``, its strength, and only ``mask_edit`` an
    ``edit``; each requires its own.
    """

    kind: Literal["keep", "remove", "soften", "mask_edit"]
    w_c: float | None = None
    edit: MaskEdit | None = None

    def __post_init__(self):
        if self.kind not in ("keep", "remove", "soften", "mask_edit"):
            raise BadValue(f"unknown directive kind {self.kind!r}")
        if self.w_c is not None and self.kind != "soften":
            raise BadValue(f"a {self.kind} directive takes no w_c; only soften does")
        if self.edit is not None and self.kind != "mask_edit":
            raise BadValue(f"a {self.kind} directive takes no edit; only mask_edit does")
        if self.kind == "soften" and self.w_c is None:
            raise BadValue("soften directive requires a w_c")
        if self.kind == "mask_edit" and self.edit is None:
            raise BadValue("mask_edit directive requires an edit")
        if self.w_c is not None and not 0 <= self.w_c < np.inf:
            raise BadValue(f"w_c must be finite and non-negative, got {self.w_c}")


@dataclass(frozen=True)
class EditPlan:
    """What to do with each source when recomposing motion for a new sample.

    ``directives`` maps a subject id to its directive, which carries every
    parameter of its edit. Subjects without an explicit directive are kept,
    and so is the background: a guidance weight of 0 for it stops enforcing
    camera motion. ``camera_only`` drops every subject and enforces only the
    background descriptor.
    """

    directives: Mapping[str, Directive] = field(default_factory=dict)
    camera_only: bool = False

    def __post_init__(self):
        object.__setattr__(self, "directives", dict(self.directives))

    def directive_for(self, subject_id: str) -> Directive:
        return self.directives.get(subject_id, Directive("keep"))


def recompose(descriptors: Sequence[MotionDescriptor], plan: EditPlan) -> list[MotionDescriptor]:
    """Apply an edit plan to a set of extracted descriptors.

    Mask edits pass the descriptor through untouched; they take effect on
    the target-side regions when the guidance problem is assembled.
    Descriptors of different frame counts raise DimMismatch.
    """
    n_frames = sorted({d.n_frames for d in descriptors})
    if len(n_frames) > 1:
        raise DimMismatch(f"descriptors span different frame counts {n_frames}")
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
        directive = plan.directive_for(desc.source_id)  # the background's is keep
        if directive.kind in ("keep", "mask_edit"):
            out.append(desc)
        elif directive.kind == "remove":
            out.append(
                MotionDescriptor(
                    desc.source_id, desc.timestep, desc.n_frames, background.pairs, background.deltas
                )
            )
        else:  # soften, over the pairs the background also has
            rows = background.rows_of(desc.pairs)
            shared = rows >= 0
            deltas = desc.deltas[shared]
            if shared.any():
                deltas = soft_blend(deltas, background.deltas[rows[shared]], directive.w_c)
            out.append(
                MotionDescriptor(
                    desc.source_id, desc.timestep, desc.n_frames, desc.pairs[shared], deltas
                )
            )
    return out


def plan_from_json(doc: dict) -> EditPlan:
    """The plan in ``doc``: ``subjects`` (id -> ``op``, ``w_c``, ``edit`` with ``kind``,
    ``dx``, ``dy``, ``factor``, ``anchor``) and ``camera_only``; any other key
    is rejected. A ``soften`` entry needs its ``w_c``, a ``mask_edit`` its ``edit``."""
    fields = typed_fields(doc, {"subjects": dict, "camera_only": bool}, "edit plan")
    directives = {}
    for sid, entry in fields.pop("subjects", {}).items():
        d = typed_fields(entry, {"op": str, "w_c": float, "edit": dict | None},
                         f"plan entry {sid!r}", required=("op",))
        if d.get("edit") is not None:
            d["edit"] = MaskEdit(**typed_fields(d["edit"], {
                "kind": str, "dx": int, "dy": int, "factor": float,
                "anchor": lambda v, label: None if v is None else typed_numbers(v, 2, label),
            }, f"plan edit of {sid!r}", required=("kind",)))
        directives[sid] = Directive(d.pop("op"), **d)
    return EditPlan(directives, **fields)


def load_plan(path) -> EditPlan:
    return plan_from_json(read_json(path))


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
    """The descriptor ``save_descriptor`` wrote at ``json_path``, every field typed.

    Its tensor is the file beside it with the suffix ``.cmt``; a ``tensor``
    field naming any other file is rejected.
    """
    json_path = Path(json_path)
    what = f"descriptor {json_path}"
    kinds = {"source_id": str, "timestep": int, "n_frames": int, "valid_pairs": list,
             "tensor": str}
    doc = typed_fields(read_json(json_path), kinds, what, required=kinds)
    tensor = json_path.with_suffix(".cmt")
    if doc["tensor"] != tensor.name:
        raise BadValue(f"malformed {what}: tensor must be {tensor.name!r}, got {doc['tensor']!r}")
    n_frames, pairs = doc["n_frames"], doc["valid_pairs"]
    if not all(isinstance(p, list) and len(p) == 2
               and all(type(f) is int and 0 <= f < n_frames for f in p) for p in pairs):
        raise BadValue(f"malformed {what}: valid_pairs must hold [i, j] pairs of JSON integers "
                       f"in 0..{n_frames - 1}")
    return MotionDescriptor(
        doc["source_id"],
        doc["timestep"],
        n_frames,
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        read_array(tensor) if pairs else np.zeros((0, 0)),
    )

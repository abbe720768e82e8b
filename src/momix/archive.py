"""The descriptor archive: one delta tensor per timestep, and an index that holds their rows.

``t###/deltas.cmt`` is a timestep's (n_rows, C) tensor, ``PairOperator.apply``'s
output: each source's rows in turn, each source's pairs in order. The masks
alone fix the pairs, so ``extract_index.json`` holds the row table of every
timestep once: ``n_frames`` and, per source, ``valid_pairs`` and the
``[start, stop]`` of its ``rows``. ``t000/<source>.json`` documents each
source at t = 0 alone, for ``load_descriptor``; no stage reads it.

Every reader takes its file names from this fixed layout, never from a name
stored in a file, so a stray file is never read, and every check of the row
table runs once, when the index is read, not once per timestep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import BadValue, DimMismatch
from .features import MotionDescriptor
from .masks import SAFE_NAME
from .tensors import (
    atomic_write,
    make_dir,
    read_array,
    read_json,
    remove_file,
    typed_fields,
    write_array,
)

_DELTAS = "deltas.cmt"
_INDEX = "extract_index.json"
_ENTRY = {"valid_pairs": list, "rows": list}


def _write_compact(path: Path, doc: dict) -> None:
    # compact, so the C encoder writes it: indent=2 runs in pure Python
    atomic_write(path, (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode())


def save_descriptors(descs: Sequence[MotionDescriptor], t_dir, documents: bool = True) -> dict:
    """Write a timestep's descriptors, some with a pair, to ``t_dir``; returns their row table.

    Their deltas, stacked in order, are the (n_rows, C) tensor ``deltas.cmt``;
    the table maps each source to its ``valid_pairs`` and ``rows`` of it. With
    ``documents``, each source's entry, ``source_id``, ``timestep`` and
    ``n_frames`` are also its compact JSON document ``<source>.json``.
    """
    write_array(Path(t_dir) / _DELTAS, np.concatenate([d.deltas for d in descs if len(d.pairs)]))
    stops = np.cumsum([len(d.pairs) for d in descs]).tolist()
    table = {d.source_id: {"valid_pairs": d.pairs.tolist(), "rows": [stop - len(d.pairs), stop]}
             for d, stop in zip(descs, stops)}
    for d in descs if documents else ():
        _write_compact(Path(t_dir) / f"{d.source_id}.json", {
            "source_id": d.source_id, "timestep": d.timestep, "n_frames": d.n_frames,
            **table[d.source_id]})
    return table


def load_descriptor(json_path) -> MotionDescriptor:
    """The descriptor documented at ``json_path``: its ``rows`` of the ``deltas.cmt`` beside it."""
    json_path = Path(json_path)
    deltas = _read_deltas(json_path.parent)
    kinds = {"source_id": str, "timestep": int, "n_frames": int, **_ENTRY}
    doc = typed_fields(read_json(json_path), kinds, f"descriptor {json_path}", required=kinds)
    pairs, rows = _pairs_and_rows(doc, doc["n_frames"], len(deltas), f"descriptor {json_path}")
    return MotionDescriptor(doc["source_id"], doc["timestep"], doc["n_frames"], pairs,
                            deltas[rows])


def _read_deltas(t_dir: Path) -> np.ndarray:
    """A timestep's ``deltas.cmt``, which must be a (rows, channels) matrix."""
    deltas = read_array(t_dir / _DELTAS)
    if deltas.ndim != 2:
        raise DimMismatch(f"{t_dir / _DELTAS}: deltas must be (rows, channels), "
                          f"got {deltas.shape}")
    return deltas


def _pairs_and_rows(doc: dict, n_frames: int, n_rows: int | None,
                    what: str) -> tuple[np.ndarray, slice]:
    """A source's sorted forward ``valid_pairs``, read-only (n_pairs, 2), and its ``rows`` slice."""
    pairs, rows = doc["valid_pairs"], doc["rows"]
    if not all(isinstance(p, list) and len(p) == 2
               and all(type(f) is int and 0 <= f < n_frames for f in p) for p in pairs):
        raise BadValue(f"malformed {what}: valid_pairs must hold [i, j] pairs of JSON integers "
                       f"in 0..{n_frames - 1}")
    bound = "" if n_rows is None else f" <= {n_rows}, the rows of {_DELTAS}"
    if not (len(rows) == 2 and all(type(r) is int for r in rows)
            and 0 <= rows[0] <= rows[1] <= (rows[1] if n_rows is None else n_rows)):
        raise BadValue(f"malformed {what}: rows must be [start, stop], JSON integers with "
                       f"0 <= start <= stop{bound}; got {rows!r}")
    if rows[1] - rows[0] != len(pairs):
        raise BadValue(f"malformed {what}: rows {rows} hold {rows[1] - rows[0]} rows, "
                       f"valid_pairs {len(pairs)} pairs")
    if any(i >= j for i, j in pairs) or any(p >= q for p, q in zip(pairs, pairs[1:])):
        raise BadValue(f"malformed {what}: valid_pairs must be sorted and distinct, with i < j")
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs, slice(*rows)


@dataclass(frozen=True, eq=False)
class ExtractIndex:
    """A descriptor archive's ``extract_index.json``, over the tensors ``root/t###/deltas.cmt``.

    ``table`` gives each source, in ``sources`` order, its pairs, one read-only
    (n_pairs, 2) array, and its rows of every tensor, which ``deltas`` hands
    out. ``manifest`` is the scene manifest's path relative to ``root``.
    """

    root: Path
    n_steps: int
    sources: list[str]
    manifest: str
    n_frames: int
    table: dict[str, tuple[np.ndarray, slice]]

    def deltas(self, timesteps=None) -> dict[int, np.ndarray]:
        """Each timestep's float32 (n_rows, C) tensor (default: every timestep's).

        Only the tensors of those timesteps are read, each once. Each must be
        (n_rows, C), with the table's n_rows and one C across them.
        """
        n_rows = max((rows.stop for _, rows in self.table.values()), default=0)
        out: dict[int, np.ndarray] = {}
        channels = set()
        for t in range(self.n_steps + 1) if timesteps is None else timesteps:
            if t not in range(self.n_steps + 1):
                raise BadValue(f"{self.root}: extract index lists no timestep {t}")
            deltas = _read_deltas(self.root / f"t{t:03d}")
            if len(deltas) != n_rows:
                raise BadValue(f"{self.root / f't{t:03d}' / _DELTAS}: holds {len(deltas)} "
                               f"rows, the row table {n_rows}")
            channels.add(deltas.shape[1])
            if len(channels) > 1:
                raise BadValue(f"{self.root}: descriptors up to timestep {t} have channel "
                               f"counts {sorted(channels)}")
            out[t] = deltas
        return out


def run_extract(descriptors: Iterable[Sequence[MotionDescriptor]], out_dir, *,
                manifest_path) -> ExtractIndex:
    """Archive the descriptors at t = 0..n_steps of a stream; returns the index written.

    Every timestep must have the sources and pairs of t = 0, and a stream of
    none raises BadValue. Each timestep is written before the next is asked
    for. The old index goes before the first, the new one is written after the
    last, so a rerun that fails half way leaves an archive no reader accepts.
    """
    out_dir = make_dir(out_dir)
    remove_file(out_dir / _INDEX)
    table = None
    for t, descs in enumerate(descriptors):
        rows = save_descriptors(descs, make_dir(out_dir / f"t{t:03d}"), documents=t == 0)
        if table is None:
            table, n_frames = rows, descs[0].n_frames
        elif rows != table:
            raise BadValue(f"{out_dir}: the sources and pairs at timestep {t} are not "
                           f"those at t = 0")
    if table is None:
        raise BadValue(f"{out_dir}: the stream held no timestep to archive")
    doc = {"n_steps": t, "timesteps": list(range(t + 1)), "sources": sorted(table),
           "manifest": str(manifest_path), "n_frames": n_frames, "table": table}
    _write_compact(out_dir / _INDEX, doc)
    return _extract_index(out_dir, doc)


def read_extract_index(desc_dir) -> ExtractIndex:
    """The typed index ``run_extract`` wrote; a missing or mistyped field is rejected."""
    desc_dir = Path(desc_dir)
    return _extract_index(desc_dir, read_json(desc_dir / _INDEX))


def _extract_index(desc_dir: Path, doc: dict) -> ExtractIndex:
    """``doc`` over ``desc_dir``. Its row table is checked once, for every timestep.

    Each source must have an entry, its pairs sorted and distinct forward
    pairs, and the sources' rows must tile 0..n_rows.
    """
    what = f"extract index {desc_dir}"
    kinds = {"n_steps": int, "timesteps": list, "sources": list, "manifest": str,
             "n_frames": int, "table": dict}
    fields = typed_fields(doc, kinds, what, required=kinds)
    n_steps, timesteps, sources = fields["n_steps"], fields.pop("timesteps"), fields["sources"]
    if len(timesteps) != n_steps + 1 or any(type(t) is not int or t != k
                                            for k, t in enumerate(timesteps)):
        raise BadValue(f"malformed {what}: timesteps must be 0..{n_steps}, got {timesteps!r}")
    if not all(isinstance(sid, str) and SAFE_NAME.fullmatch(sid) for sid in sources):
        raise BadValue(f"malformed {what}: sources must be filesystem-safe strings, "
                       f"got {sources!r}")
    table, n_frames, fields["table"] = fields["table"], fields["n_frames"], {}
    if sorted(table) != sorted(sources):
        raise BadValue(f"malformed {what}: table holds sources {sorted(table)}, "
                       f"the index lists {sorted(sources)}")
    for sid in sources:
        where = f"{what} source {sid!r}"
        fields["table"][sid] = _pairs_and_rows(
            typed_fields(table[sid], _ENTRY, where, required=_ENTRY), n_frames, None, where)
    spans = sorted((rows.start, rows.stop) for _, rows in fields["table"].values())
    stops = [0] + [stop for _, stop in spans]
    if [start for start, _ in spans] != stops[:-1]:
        raise BadValue(f"malformed {what}: the sources' rows {spans} do not tile 0..{stops[-1]}")
    return ExtractIndex(desc_dir, **fields)

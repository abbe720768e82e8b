"""The descriptor archive's timesteps: one tensor of every source's deltas, a document per source.

``t###/deltas.cmt`` is the (n_rows, C) tensor of a timestep, exactly
``PairOperator.apply``'s output: each source's rows in turn, each source's
pairs in order. ``t###/<source>.json`` is the source's compact JSON document,
naming its pairs and its ``rows`` of that tensor. The index over the
timesteps, ``extract_index.json``, is ``pipeline.ExtractIndex``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadValue, DimMismatch
from .features import MotionDescriptor
from .tensors import atomic_write, read_array, read_json, typed_fields, write_array

_DELTAS = "deltas.cmt"


def save_descriptors(descs: Sequence[MotionDescriptor], t_dir) -> None:
    """Write one timestep's descriptors, some with a pair, into ``t_dir``.

    Their deltas, stacked in the order given, are the (n_rows, C) tensor
    ``deltas.cmt``. Each source then gets a compact JSON document
    ``<source>.json`` with its ``source_id``, ``timestep``, ``n_frames``,
    ``valid_pairs`` and ``rows``, the ``[start, stop]`` of its rows in the tensor.
    """
    t_dir = Path(t_dir)
    write_array(t_dir / _DELTAS, np.concatenate([d.deltas for d in descs if len(d.pairs)]))
    start = 0
    for d in descs:
        doc = {"source_id": d.source_id, "timestep": d.timestep, "n_frames": d.n_frames,
               "valid_pairs": d.pairs.tolist(), "rows": [start, start + len(d.pairs)]}
        # compact, so the C encoder writes it: indent=2 runs in pure Python
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        atomic_write(t_dir / f"{d.source_id}.json", text.encode())
        start += len(d.pairs)


def load_descriptor(json_path) -> MotionDescriptor:
    """The descriptor ``save_descriptors`` documented at ``json_path``, every field typed.

    Its deltas are its ``rows`` of the ``deltas.cmt`` beside the document, the
    one tensor of its timestep.
    """
    json_path = Path(json_path)
    return _descriptor(json_path, _read_deltas(json_path.parent))[0]


def _read_timestep(t_dir: Path, timestep: int, sources: Sequence[str]) -> list[MotionDescriptor]:
    """The descriptors of ``sources`` at ``timestep`` in ``t_dir``, from one read of its tensor.

    Each document must hold the source and timestep of its name, and the
    sources' rows, taken by their starts, must tile the tensor's rows.
    """
    deltas = _read_deltas(t_dir)
    descs, spans = [], []
    for sid in sources:
        path = t_dir / f"{sid}.json"
        desc, rows = _descriptor(path, deltas)
        if (desc.source_id, desc.timestep) != (sid, timestep):
            raise BadValue(f"{path}: holds source {desc.source_id!r} at timestep "
                           f"{desc.timestep}, not {sid!r} at {timestep}")
        descs.append(desc)
        spans.append(rows)
    spans.sort()
    if [start for start, _ in spans] + [len(deltas)] != [0] + [stop for _, stop in spans]:
        raise BadValue(f"{t_dir}: the sources' rows {spans} do not tile the {len(deltas)} "
                       f"rows of {_DELTAS}")
    return descs


def _read_deltas(t_dir: Path) -> np.ndarray:
    """A timestep's ``deltas.cmt``, which must be a (rows, channels) matrix."""
    deltas = read_array(t_dir / _DELTAS)
    if deltas.ndim != 2:
        raise DimMismatch(f"{t_dir / _DELTAS}: deltas must be (rows, channels), "
                          f"got {deltas.shape}")
    return deltas


def _descriptor(json_path: Path, deltas: np.ndarray) -> tuple[MotionDescriptor, tuple[int, int]]:
    """The descriptor documented at ``json_path`` over its timestep's ``deltas``, and its rows."""
    what = f"descriptor {json_path}"
    kinds = {"source_id": str, "timestep": int, "n_frames": int, "valid_pairs": list,
             "rows": list}
    doc = typed_fields(read_json(json_path), kinds, what, required=kinds)
    n_frames, pairs, rows = doc["n_frames"], doc["valid_pairs"], doc["rows"]
    if not all(isinstance(p, list) and len(p) == 2
               and all(type(f) is int and 0 <= f < n_frames for f in p) for p in pairs):
        raise BadValue(f"malformed {what}: valid_pairs must hold [i, j] pairs of JSON integers "
                       f"in 0..{n_frames - 1}")
    if not (len(rows) == 2 and all(type(r) is int for r in rows)
            and 0 <= rows[0] <= rows[1] <= len(deltas)):
        raise BadValue(f"malformed {what}: rows must be [start, stop], JSON integers with "
                       f"0 <= start <= stop <= {len(deltas)}, the rows of {_DELTAS}; "
                       f"got {rows!r}")
    start, stop = rows
    if stop - start != len(pairs):
        raise BadValue(f"malformed {what}: rows {rows} hold {stop - start} rows, "
                       f"valid_pairs {len(pairs)} pairs")
    desc = MotionDescriptor(doc["source_id"], doc["timestep"], n_frames,
                            np.array(pairs, dtype=np.int64).reshape(-1, 2), deltas[start:stop])
    return desc, (start, stop)

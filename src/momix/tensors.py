"""Dense latent-video tensors, binary mask tracks, and their file formats.

Two tiny binary container formats are used throughout:

* Tensor file, magic ``CMT1``: 4 magic bytes, u32 little-endian ndim,
  ndim x u32 dims, then ``prod(dims)`` float32 little-endian values in
  row-major order.
* Mask file, magic ``CMM1``: 4 magic bytes, u32 ndim (always 3), 3 x u32
  dims, then one byte per element, each 0 or 1.

Both formats round-trip bit-exactly. All in-memory types are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadMagic, BadValue, DimMismatch, IoFailure, NonFinite

TENSOR_MAGIC = b"CMT1"
MASK_MAGIC = b"CMM1"
_MAX_NDIM = 8
_MAX_ELEMENTS = 1 << 31


def _as_float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class LatentVideo:
    """A (n_frames, n_channels, height, width) array of finite reals, never writable.

    A read-only float array that owns its memory is kept uncopied; anything
    else, such as a writable array or a view, is copied and the copy marked read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.data)
        if arr.ndim != 4:
            raise DimMismatch(f"latent video must be 4-D, got shape {arr.shape}")
        f, c, h, w = arr.shape
        if f < 2 or c < 1 or h < 1 or w < 1:
            raise DimMismatch(f"invalid latent dims {arr.shape}: need >=2 frames and positive dims")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("latent video contains NaN or Inf")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = np.array(arr, copy=True)
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def __repr__(self):
        return f"LatentVideo(shape={self.data.shape}, dtype={self.data.dtype})"


@dataclass(frozen=True, eq=False, repr=False)
class MaskTrack:
    """Per-frame binary masks for one subject, shape (n_frames, height, width)."""

    data: np.ndarray
    subject_id: str = "subject"

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise DimMismatch(f"mask track must be 3-D, got shape {arr.shape}")
        if arr.dtype != np.bool_:
            vals = np.unique(arr)
            if not np.all(np.isin(vals, (0, 1))):
                raise BadValue("mask values must be 0 or 1")
            arr = arr.astype(bool)
        if min(arr.shape) < 1:
            raise DimMismatch(f"invalid mask dims {arr.shape}")
        arr = np.array(arr, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    def frame(self, i: int) -> np.ndarray:
        return self.data[i]

    def __repr__(self):
        return f"MaskTrack({self.subject_id!r}, shape={self.data.shape})"


# --- low-level binary container I/O -------------------------------------


def _read_header(fh, magic: bytes, path) -> tuple[int, ...]:
    got = fh.read(4)
    if got != magic:
        raise BadMagic(f"{path}: expected magic {magic!r}, found {got!r}")
    raw = fh.read(4)
    if len(raw) != 4:
        raise DimMismatch(f"{path}: truncated header")
    (ndim,) = struct.unpack("<I", raw)
    if not 1 <= ndim <= _MAX_NDIM:
        raise DimMismatch(f"{path}: unreasonable ndim {ndim}")
    raw = fh.read(4 * ndim)
    if len(raw) != 4 * ndim:
        raise DimMismatch(f"{path}: truncated dims")
    dims = struct.unpack(f"<{ndim}I", raw)
    if any(d == 0 for d in dims):
        raise DimMismatch(f"{path}: zero-size dim in {dims}")
    if int(np.prod(dims, dtype=np.int64)) > _MAX_ELEMENTS:
        raise DimMismatch(f"{path}: element count overflow for dims {dims}")
    return dims


def _check_dims(shape: tuple[int, ...]) -> None:
    if any(int(d) <= 0 for d in shape):
        raise DimMismatch(f"zero-size dim in shape {shape}")


def atomic_write(path, *chunks: bytes) -> None:
    """Write the concatenated ``chunks`` to ``path``, all or nothing.

    The bytes go to a temp file in the same directory, which ``os.replace``
    then renames over ``path``, so a reader never sees a partial file. On
    any error the temp file is removed and ``path`` keeps what it held; an
    ``OSError`` is raised as ``IoFailure``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # report the error that brought us here
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def make_dir(path) -> Path:
    """``path`` as a directory, made with its parents if absent.

    An ``OSError``, such as a regular file in the way, is raised as ``IoFailure``.
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot make directory {path}: {exc}") from exc
    return path


def remove_file(path) -> None:
    """Remove ``path`` if it exists; an ``OSError`` is raised as ``IoFailure``."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot remove {path}: {exc}") from exc


def write_array(path, arr: np.ndarray) -> None:
    """Write any float array as a CMT1 tensor file (stored as float32).

    The float32 payload is checked, so a finite value past float32's range,
    which the cast turns into inf, raises NonFinite as well; nothing is
    written then.
    """
    arr = np.ascontiguousarray(arr)
    _check_dims(arr.shape)
    with np.errstate(over="ignore"):  # overflow shows as inf in the scan below
        payload = arr.astype("<f4", copy=False)
    if not np.all(np.isfinite(payload)):
        raise NonFinite(f"refusing to write values that are not finite in float32 to {path}")
    header = TENSOR_MAGIC + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    atomic_write(path, header, payload)


def read_array(path, out: np.ndarray | None = None) -> np.ndarray:
    """Read a CMT1 tensor file into a float32 array of the encoded shape.

    With ``out``, an array of the encoded shape, the values are cast into it
    instead and ``out`` is returned; dims that differ raise DimMismatch.
    """
    try:
        with open(path, "rb") as fh:
            dims = _read_header(fh, TENSOR_MAGIC, path)
            if out is not None and dims != out.shape:
                raise DimMismatch(f"{path}: dims {dims}, expected {out.shape}")
            n = int(np.prod(dims, dtype=np.int64))
            if (size := os.fstat(fh.fileno()).st_size - fh.tell()) == 4 * n:  # allocate no more
                arr = np.empty(dims, dtype="<f4")
                size = fh.readinto(arr) + len(fh.read(1))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if size != 4 * n:
        raise DimMismatch(f"{path}: header says {n} values, payload holds {size} bytes")
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # NaN and inf show in these
        raise NonFinite(f"{path}: payload contains NaN or Inf")
    if out is None:
        return arr
    out[...] = arr
    return out


def save_tensor(t: LatentVideo, path) -> None:
    write_array(path, t.data)


def load_tensor(path) -> LatentVideo:
    arr = read_array(path)
    if arr.ndim != 4:
        raise DimMismatch(f"{path}: latent video file must be 4-D, got {arr.shape}")
    arr.setflags(write=False)  # a fresh array: LatentVideo keeps it uncopied
    return LatentVideo(arr)


def save_mask(m: MaskTrack, path) -> None:
    _check_dims(m.data.shape)
    header = MASK_MAGIC + struct.pack("<I3I", 3, *m.data.shape)
    atomic_write(path, header, m.data.astype(np.uint8).tobytes(order="C"))


def load_mask(path, subject_id: str | None = None) -> MaskTrack:
    try:
        with open(path, "rb") as fh:
            dims = _read_header(fh, MASK_MAGIC, path)
            payload = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(dims) != 3:
        raise DimMismatch(f"{path}: mask file must be 3-D, got {dims}")
    n = int(np.prod(dims, dtype=np.int64))
    if len(payload) != n:
        raise DimMismatch(f"{path}: header says {n} bytes, payload holds {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size and int(raw.max(initial=0)) > 1:
        raise BadValue(f"{path}: mask payload contains a byte outside {{0, 1}}")
    name = subject_id if subject_id is not None else Path(path).stem
    return MaskTrack(raw.reshape(dims).astype(bool), subject_id=name)


def peek_dims(path, magic: bytes) -> tuple[int, ...]:
    """Read only the header of a container file and return its dims."""
    try:
        with open(path, "rb") as fh:
            return _read_header(fh, magic, path)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


# --- JSON documents -------------------------------------------------------


def read_json(path) -> dict:
    """Read a JSON document whose top level is an object."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(data)  # decoded as UTF-8, the only encoding JSON allows
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadValue(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadValue(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


_JSON_NAMES = {bool: "boolean", int: "integer", str: "string", list: "array", dict: "object",
               float: "number", type(None): "null"}


def typed_fields(doc, kinds: dict, what: str, required=(), where: str | None = None) -> dict:
    """The keys of ``doc``, each checked against its JSON type in ``kinds``.

    Every JSON document momix reads goes through here. ``doc`` must be an
    object whose keys all lie in ``kinds``, so a misspelt key is rejected
    instead of read as absent. A key in ``required`` must be present; any
    other absent key is left out, so a constructor given the result as
    keywords supplies its own default. A table of free keys, such as a
    manifest's masks, is typed ``dict`` and then read with the kinds
    ``dict.fromkeys(table, kind)`` and ``required=table``. ``what`` names the
    document in every error, ``where`` (default ``what``) in those about one value.

    A kind is ``bool``, ``int``, ``str``, ``list``, ``dict``, ``float`` (a
    finite JSON number, integer or not, returned as a float), a union of
    these such as ``float | None`` (``None`` admits JSON null), a tuple of
    the allowed strings, or a function ``(value, label)`` that returns the
    value converted or raises ``BadValue`` naming ``label``. Nothing else is
    coerced: ``"false"`` is no boolean, ``2.9`` or ``true`` no integer,
    ``5`` or ``["x"]`` no string, and ``"2"``, ``true`` or ``Infinity`` no
    number.
    """
    if not isinstance(doc, dict):
        raise BadValue(f"{what} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise BadValue(f"unknown {what} keys {unknown}; known: {sorted(kinds)}")
    where = what if where is None else where
    return {key: _typed_field(doc, key, kind, where)
            for key, kind in kinds.items() if key in doc or key in required}


def _typed_field(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise BadValue(f"malformed {where}: missing {key}")
    value, label = doc[key], f"malformed {where}: {key}"
    if isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            raise BadValue(f"{label} must be one of {list(kind)}, got {value!r}")
        return value
    if not isinstance(kind, (type, types.UnionType)):
        return kind(value, label)
    kinds = typing.get_args(kind) or (kind,)
    if float in kinds and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite_number(value, label)
    if not any(isinstance(value, k) and not (k is int and isinstance(value, bool)) for k in kinds):
        names = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise BadValue(f"{label} must be a JSON {names}, got {value!r}")
    return value


def typed_numbers(value, length: int | None, label: str) -> tuple[float, ...]:
    """``value`` as floats, once it is an array of finite JSON numbers.

    ``length`` fixes the array's length; None allows any. ``label`` names
    the value in the ``BadValue`` raised otherwise.
    """
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise BadValue(f"{label} must be a JSON array of {size}numbers, got {value!r}")
    return tuple(_finite_number(v, label) for v in value)


def _finite_number(value, label: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadValue(f"{label} must be a JSON number, got {value!r}")
    try:
        number = float(value)  # an integer past the float range overflows
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise BadValue(f"{label} must be finite, got {value!r}")
    return number


def typed_points(value, label: str) -> tuple[tuple[float, ...], ...]:
    """``value`` as points, once it is an array of arrays of two finite JSON numbers."""
    if not isinstance(value, (list, tuple)):
        raise BadValue(f"{label} must be a JSON array of points, got {value!r}")
    return tuple(typed_numbers(p, 2, f"{label} point {k}") for k, p in enumerate(value))


def write_json(path, doc) -> None:
    """Write ``doc`` as sorted, two-space-indented JSON with a trailing newline."""
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


# --- scene manifest -------------------------------------------------------


@dataclass(frozen=True)
class SceneManifest:
    """Index of a scene on disk: latent files per timestep and mask files per subject.

    Paths are stored relative to the manifest's directory.
    """

    frames: int
    channels: int
    height: int
    width: int
    latents: dict[str, str] = field(default_factory=dict)
    masks: dict[str, str] = field(default_factory=dict)
    root: Path = Path(".")

    @property
    def latent_shape(self) -> tuple[int, int, int, int]:
        return (self.frames, self.channels, self.height, self.width)

    @property
    def subject_ids(self) -> list[str]:
        return list(self.masks.keys())

    def latent_path(self, timestep: str | int) -> Path:
        if str(timestep) not in self.latents:
            raise BadValue(f"manifest lists no latents for timestep {timestep}")
        return self.root / self.latents[str(timestep)]

    def mask_path(self, subject_id: str) -> Path:
        return self.root / self.masks[subject_id]

    def load_latent(self, timestep: str | int = "0") -> LatentVideo:
        return load_tensor(self.latent_path(timestep))

    def load_masks(self) -> list[MaskTrack]:
        return [load_mask(self.mask_path(s), subject_id=s) for s in self.subject_ids]

    def verify(self) -> None:
        """Check that every referenced file exists with matching header dims."""
        for t, rel in self.latents.items():
            dims = peek_dims(self.root / rel, TENSOR_MAGIC)
            if dims != self.latent_shape:
                raise DimMismatch(f"latent {rel} has dims {dims}, manifest says {self.latent_shape}")
        want_mask = (self.frames, self.height, self.width)
        for s, rel in self.masks.items():
            dims = peek_dims(self.root / rel, MASK_MAGIC)
            if tuple(dims) != want_mask:
                raise DimMismatch(f"mask {rel} has dims {dims}, manifest says {want_mask}")


def save_manifest(manifest: SceneManifest, path) -> None:
    write_json(
        path,
        {
            "frames": manifest.frames,
            "channels": manifest.channels,
            "height": manifest.height,
            "width": manifest.width,
            "latents": dict(sorted(manifest.latents.items())),
            "masks": dict(sorted(manifest.masks.items())),
        },
    )


def load_manifest(path) -> SceneManifest:
    """The manifest ``save_manifest`` wrote, once every file it lists has its dims.

    The sizes must be JSON integers and every latent and mask path a JSON
    string; ``masks`` may be absent, but a key ``save_manifest`` never writes
    is rejected.
    """
    path = Path(path)
    what = f"manifest {path}"
    kinds = {"frames": int, "channels": int, "height": int, "width": int, "latents": dict,
             "masks": dict}
    fields = typed_fields(read_json(path), kinds, what, required=set(kinds) - {"masks"})
    for table in (fields["latents"], fields.get("masks", {})):  # each maps keys to paths
        typed_fields(table, dict.fromkeys(table, str), what, required=table)
    manifest = SceneManifest(**fields, root=path.parent)
    manifest.verify()
    return manifest

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

import json
import struct
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
    """A (n_frames, n_channels, height, width) array of finite reals.

    The buffer is copied on construction and marked read-only.
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
    def height(self) -> int:
        return self.data.shape[2]

    @property
    def width(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def frame(self, i: int) -> np.ndarray:
        return self.data[i]

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

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def frame(self, i: int) -> np.ndarray:
        return self.data[i]

    def area(self, i: int) -> int:
        return int(np.count_nonzero(self.data[i]))

    def __repr__(self):
        return f"MaskTrack({self.subject_id!r}, shape={self.data.shape})"


def ensure_same_geometry(latents: LatentVideo, track: MaskTrack) -> None:
    """Raise DimMismatch unless the track matches the latent geometry."""
    if (track.n_frames, track.height, track.width) != (
        latents.n_frames,
        latents.height,
        latents.width,
    ):
        raise DimMismatch(
            f"mask track {track.data.shape} does not match latents {latents.shape}"
        )


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


def write_array(path, arr: np.ndarray) -> None:
    """Write any float array as a CMT1 tensor file (stored as float32)."""
    arr = np.ascontiguousarray(arr)
    _check_dims(arr.shape)
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"refusing to write non-finite values to {path}")
    payload = arr.astype("<f4", copy=False)
    header = TENSOR_MAGIC + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload.tobytes(order="C"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_array(path) -> np.ndarray:
    """Read a CMT1 tensor file into a float32 array of the encoded shape."""
    try:
        with open(path, "rb") as fh:
            dims = _read_header(fh, TENSOR_MAGIC, path)
            payload = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    n = int(np.prod(dims, dtype=np.int64))
    if len(payload) != 4 * n:
        raise DimMismatch(f"{path}: header says {n} values, payload holds {len(payload)} bytes")
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{path}: payload contains NaN or Inf")
    return arr.copy()


def save_tensor(t: LatentVideo, path) -> None:
    write_array(path, t.data)


def load_tensor(path) -> LatentVideo:
    arr = read_array(path)
    if arr.ndim != 4:
        raise DimMismatch(f"{path}: latent video file must be 4-D, got {arr.shape}")
    return LatentVideo(arr)


def save_mask(m: MaskTrack, path) -> None:
    _check_dims(m.data.shape)
    header = MASK_MAGIC + struct.pack("<I3I", 3, *m.data.shape)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(m.data.astype(np.uint8).tobytes(order="C"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


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
        text = Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadValue(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadValue(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def check_keys(doc, known, what: str) -> dict:
    """``doc`` itself, once it is an object whose keys all lie in ``known``.

    A misspelt key would otherwise fall back silently to its default.
    """
    if not isinstance(doc, dict):
        raise BadValue(f"{what} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise BadValue(f"unknown {what} keys {unknown}; known: {sorted(known)}")
    return doc


def typed_field(doc: dict, key: str, kind, default, what: str):
    """``doc[key]`` (``default`` when absent), once it has the JSON type ``kind``.

    ``kind`` is ``bool``, ``int`` or a tuple of the allowed strings. Nothing
    is coerced: ``"false"`` is no boolean, and ``2.9`` or ``true`` no integer.
    """
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            raise BadValue(f"malformed {what}: {key} must be one of {list(kind)}, got {value!r}")
    elif not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        name = "boolean" if kind is bool else "integer"
        raise BadValue(f"malformed {what}: {key} must be a JSON {name}, got {value!r}")
    return value


def write_json(path, doc) -> None:
    """Write ``doc`` as sorted, two-space-indented JSON with a trailing newline."""
    try:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


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
    def subject_ids(self) -> list[str]:
        return list(self.masks.keys())

    def latent_path(self, timestep: str | int) -> Path:
        return self.root / self.latents[str(timestep)]

    def mask_path(self, subject_id: str) -> Path:
        return self.root / self.masks[subject_id]

    def load_latent(self, timestep: str | int = "0") -> LatentVideo:
        return load_tensor(self.latent_path(timestep))

    def load_masks(self) -> list[MaskTrack]:
        return [load_mask(self.mask_path(s), subject_id=s) for s in self.subject_ids]

    def verify(self) -> None:
        """Check that every referenced file exists with matching header dims."""
        want_latent = (self.frames, self.channels, self.height, self.width)
        for t, rel in self.latents.items():
            dims = peek_dims(self.root / rel, TENSOR_MAGIC)
            if tuple(dims) != want_latent:
                raise DimMismatch(f"latent {rel} has dims {dims}, manifest says {want_latent}")
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


def load_manifest(path, verify: bool = True) -> SceneManifest:
    path = Path(path)
    doc = read_json(path)
    try:
        manifest = SceneManifest(
            frames=int(doc["frames"]),
            channels=int(doc["channels"]),
            height=int(doc["height"]),
            width=int(doc["width"]),
            latents={str(k): str(v) for k, v in doc["latents"].items()},
            masks={str(k): str(v) for k, v in doc.get("masks", {}).items()},
            root=path.parent,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadValue(f"{path}: malformed manifest: {exc}") from exc
    if verify:
        manifest.verify()
    return manifest

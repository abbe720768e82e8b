"""Synthetic moving-blob scenes with exact masks and ground-truth trajectories.

Scenes are rendered directly in latent space: a smooth per-channel
background texture (a seeded sum of a few long-wavelength sinusoids,
sampled at drift-shifted coordinates so camera motion is visible in the
values) with opaque disks on top. Blobs occlude the texture and each
other (later blobs in the list win), which is what makes their position
readable through masked spatial means: a disk that moves uncovers texture
behind it and covers different texture ahead of it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadValue, DimMismatch
from .masks import check_subject_ids
from .tensors import (
    _MAX_ELEMENTS,
    LatentVideo,
    MaskTrack,
    atomic_write,
    make_dir,
    read_json,
    typed_fields,
    typed_numbers,
    typed_points,
    write_json,
)

log = logging.getLogger(__name__)

_N_WAVES = 3
# the latents are stored as float32: a larger value could only be written as inf
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class BlobSpec:
    """One opaque disk: per-frame center, radius in pixels, per-channel value."""

    subject_id: str
    trajectory: tuple[tuple[float, float], ...]
    radius: float
    channel_signature: tuple[float, ...]

    def __post_init__(self):
        radius = float(self.radius)
        if not (radius > 0 and radius * radius < math.inf):  # ``_disk`` takes the square
            raise BadValue(f"blob radius must be positive, with a finite square, "
                           f"got {self.radius}")
        object.__setattr__(
            self, "trajectory", tuple((float(r), float(c)) for r, c in self.trajectory)
        )
        object.__setattr__(
            self, "channel_signature", tuple(float(v) for v in self.channel_signature)
        )


@dataclass(frozen=True)
class SceneSpec:
    """Full description of a synthetic scene, deterministic given the seed."""

    n_frames: int
    n_channels: int
    height: int
    width: int
    blobs: tuple[BlobSpec, ...] = ()
    background_drift: tuple[tuple[float, float], ...] | None = None
    texture_seed: int = 0
    texture_amplitude: float = 0.5
    # wave lengths drawn uniformly from this range, in units of max(height, width);
    # longer waves keep pooled-mean deltas meaningful under larger mask edits
    texture_wavelengths: tuple[float, float] = (1.5, 3.0)

    def __post_init__(self):
        if self.n_frames < 2 or self.n_channels < 1 or self.height < 1 or self.width < 1:
            raise DimMismatch(
                f"invalid scene dims ({self.n_frames}, {self.n_channels}, "
                f"{self.height}, {self.width})"
            )
        # checked before anything is rendered or written: a frame stack past the
        # cap no file could hold either
        if self.n_frames * self.n_channels * self.height * self.width > _MAX_ELEMENTS:
            raise DimMismatch(
                f"scene dims ({self.n_frames}, {self.n_channels}, {self.height}, "
                f"{self.width}) hold more than {_MAX_ELEMENTS} latent elements"
            )
        if self.texture_seed < 0:
            raise BadValue(f"texture_seed must be >= 0, got {self.texture_seed}")
        # the texture's waves sum to at most the amplitude in magnitude
        if not abs(self.texture_amplitude) <= _FLOAT32_MAX:
            raise BadValue(f"texture_amplitude {self.texture_amplitude} is past float32's range")
        lo, hi = self.texture_wavelengths
        if not 0 < lo <= hi:
            raise BadValue(f"need 0 < texture wavelengths lo <= hi, got {self.texture_wavelengths}")
        drift = self.background_drift
        if drift is None:
            drift = tuple((0.0, 0.0) for _ in range(self.n_frames))
        else:
            drift = tuple((float(r), float(c)) for r, c in drift)
        if len(drift) != self.n_frames:
            raise DimMismatch(
                f"drift length {len(drift)} != n_frames {self.n_frames}"
            )
        object.__setattr__(self, "background_drift", drift)
        object.__setattr__(self, "blobs", tuple(self.blobs))
        check_subject_ids([b.subject_id for b in self.blobs])
        for b in self.blobs:
            if len(b.trajectory) != self.n_frames:
                raise DimMismatch(
                    f"blob {b.subject_id!r} trajectory length {len(b.trajectory)} "
                    f"!= n_frames {self.n_frames}"
                )
            if len(b.channel_signature) != self.n_channels:
                raise DimMismatch(
                    f"blob {b.subject_id!r} signature length {len(b.channel_signature)} "
                    f"!= n_channels {self.n_channels}"
                )
            # ``_disk`` sums the squared offsets of every cell from the point
            for r, c in b.trajectory:
                far_r = max(abs(r), abs(r - (self.height - 1)))
                far_c = max(abs(c), abs(c - (self.width - 1)))
                if not far_r * far_r + far_c * far_c < math.inf:
                    raise BadValue(f"blob {b.subject_id!r} trajectory point ({r}, {c}) lies so "
                                   f"far off the frame that its squared distance overflows")
            if not all(abs(v) <= _FLOAT32_MAX for v in b.channel_signature):
                raise BadValue(f"blob {b.subject_id!r} signature {b.channel_signature} "
                               f"is past float32's range")
            # the metrics find the blob by projecting onto its signature
            _projector(b.channel_signature, f"blob {b.subject_id!r} signature")

    @property
    def latent_shape(self) -> tuple[int, int, int, int]:
        return (self.n_frames, self.n_channels, self.height, self.width)


def _texture_waves(spec: SceneSpec) -> list[list[tuple[float, float, float, float]]]:
    """Per-channel wave parameters (freq_r, freq_c, phase, amplitude)."""
    rng = np.random.default_rng(np.random.PCG64(spec.texture_seed))
    side = max(spec.height, spec.width)
    lo, hi = spec.texture_wavelengths
    per_channel = []
    for _ in range(spec.n_channels):
        waves = []
        for _ in range(_N_WAVES):
            wavelength = rng.uniform(lo * side, hi * side)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            fr = np.cos(angle) / wavelength
            fc = np.sin(angle) / wavelength
            amp = spec.texture_amplitude / _N_WAVES
            waves.append((float(fr), float(fc), float(phase), float(amp)))
        per_channel.append(waves)
    return per_channel


def _texture_frame(
    waves: list[list[tuple[float, float, float, float]]],
    height: int,
    width: int,
    drift: tuple[float, float],
) -> np.ndarray:
    rr, cc = np.mgrid[0:height, 0:width].astype(np.float64)
    rr = rr - drift[0]
    cc = cc - drift[1]
    out = np.zeros((len(waves), height, width))
    for ch, channel_waves in enumerate(waves):
        for fr, fc, phase, amp in channel_waves:
            out[ch] += amp * np.sin(2.0 * np.pi * (fr * rr + fc * cc) + phase)
    return out


def _disk(height: int, width: int, center: tuple[float, float], radius: float) -> np.ndarray:
    rr, cc = np.mgrid[0:height, 0:width].astype(np.float64)
    return (rr - center[0]) ** 2 + (cc - center[1]) ** 2 <= radius**2


def scene_masks(spec: SceneSpec) -> list[MaskTrack]:
    """Each blob's disk at every frame, in blob order; nothing else is rendered."""
    return [MaskTrack(np.stack([_disk(spec.height, spec.width, center, b.radius)
                                for center in b.trajectory]), subject_id=b.subject_id)
            for b in spec.blobs]


def _render_into(spec: SceneSpec, frames: np.ndarray,
                 tracks: list[MaskTrack] | None = None) -> list[MaskTrack]:
    """Render the scene's latents into ``frames``, an array of its latent shape.

    Every cell is written. Returns ``scene_masks(spec)``; ``tracks``, if given,
    is taken to be it.
    """
    waves = _texture_waves(spec)
    textures: dict[tuple[float, float], np.ndarray] = {}  # one per distinct drift
    tracks = scene_masks(spec) if tracks is None else tracks
    for f in range(spec.n_frames):
        drift = spec.background_drift[f]
        if drift not in textures:
            textures[drift] = _texture_frame(waves, spec.height, spec.width, drift)
        frames[f] = textures[drift]
        for blob, track in zip(spec.blobs, tracks):
            disk = track.data[f]
            if not disk.any():
                continue
            sig = np.asarray(blob.channel_signature, dtype=np.float64)
            frames[f][:, disk] = sig[:, None]
            r, c = blob.trajectory[f]
            if (
                r - blob.radius < 0
                or c - blob.radius < 0
                or r + blob.radius > spec.height - 1
                or c + blob.radius > spec.width - 1
            ):
                log.warning(
                    "blob %s clipped by frame border at frame %d", blob.subject_id, f
                )
    return tracks


def render_scene(
    spec: SceneSpec,
) -> tuple[LatentVideo, list[MaskTrack], dict[str, list[tuple[float, float]]]]:
    """Render a scene into (latents, mask tracks, ground-truth trajectories).

    Blobs are opaque: a covered cell takes the topmost blob's signature
    instead of the texture value. Masks are reported for every blob even
    where another blob occludes it.
    """
    frames = np.empty(spec.latent_shape)
    tracks = _render_into(spec, frames)
    latents = LatentVideo(frames)
    trajectories = {b.subject_id: list(b.trajectory) for b in spec.blobs}
    return latents, tracks, trajectories


def centroid_trajectory(mask: MaskTrack) -> list[tuple[float, float] | None]:
    """Arithmetic mean of true-cell coordinates per frame; None for empty frames."""
    out: list[tuple[float, float] | None] = []
    for f in range(mask.n_frames):
        rows, cols = np.nonzero(mask.frame(f))
        if rows.size == 0:
            out.append(None)
        else:
            out.append((float(rows.mean()), float(cols.mean())))
    return out


def _projector(signature: Sequence[float], what: str) -> tuple[np.ndarray, float]:
    """The float64 signature and its squared norm, which a projection onto it divides by.

    A norm of 0, from a zero signature or from squares that all underflow,
    is rejected.
    """
    sig = np.asarray(signature, dtype=np.float64)
    norm2 = float(sig @ sig)
    if not norm2 > 0:
        raise BadValue(f"{what} must be a nonzero vector with a nonzero float64 norm, "
                       f"got {list(signature)}")
    return sig, norm2


def estimate_blob_track(
    latents: LatentVideo,
    signature: Sequence[float],
    threshold: float,
) -> tuple[list[tuple[float, float] | None], list[int]]:
    """Locate a blob in arbitrary latents by projecting onto its signature.

    The projection is normalized so cells carrying exactly the signature
    score 1.0; cells with projection >= threshold count toward the blob.
    All frames are thresholded at once. Returns the selection's
    ``centroid_trajectory`` (None where nothing passes) and its per-frame areas.
    """
    sig, norm2 = _projector(signature, "signature")
    proj = np.einsum("fchw,c->fhw", latents.data.astype(np.float64), sig) / norm2
    selected = MaskTrack(proj >= threshold)
    areas = [int(n) for n in np.count_nonzero(selected.data, axis=(1, 2))]
    return centroid_trajectory(selected), areas


# --- edits used to build scene variants ------------------------------------


def _edit_blob(spec: SceneSpec, subject_id: str, fn, radius_factor: float = 1.0) -> SceneSpec:
    """Variant with one blob's trajectory replaced by ``fn(trajectory)``, radius scaled."""
    if subject_id not in {b.subject_id for b in spec.blobs}:
        raise BadValue(f"no blob named {subject_id!r}")
    blobs = tuple(
        replace(b, trajectory=tuple(fn(b.trajectory)), radius=b.radius * radius_factor)
        if b.subject_id == subject_id
        else b
        for b in spec.blobs
    )
    return replace(spec, blobs=blobs)


def shift_blob(spec: SceneSpec, subject_id: str, dy: float, dx: float) -> SceneSpec:
    """Variant of the scene with one blob's trajectory translated."""
    return _edit_blob(spec, subject_id, lambda traj: ((r + dy, c + dx) for r, c in traj))


def freeze_blob(spec: SceneSpec, subject_id: str, frame: int = 0) -> SceneSpec:
    """Variant with one blob pinned to its position at ``frame``."""
    return _edit_blob(spec, subject_id, lambda traj: (traj[frame] for _ in traj))


def reverse_blob(spec: SceneSpec, subject_id: str) -> SceneSpec:
    """Variant with one blob's trajectory played backwards."""
    return _edit_blob(spec, subject_id, reversed)


def retime_blob(spec: SceneSpec, subject_id: str, rate: float) -> SceneSpec:
    """Variant with one blob's motion amplitude scaled about its start position."""

    def retime(traj):
        r0, c0 = traj[0]
        return ((r0 + rate * (r - r0), c0 + rate * (c - c0)) for r, c in traj)

    return _edit_blob(spec, subject_id, retime)


def scale_blob(
    spec: SceneSpec, subject_id: str, factor: float, anchor: tuple[float, float]
) -> SceneSpec:
    """Variant with one blob's radius and trajectory scaled about ``anchor``."""
    ar, ac = anchor
    return _edit_blob(
        spec,
        subject_id,
        lambda traj: ((ar + factor * (r - ar), ac + factor * (c - ac)) for r, c in traj),
        radius_factor=factor,
    )


# --- JSON (de)serialization -------------------------------------------------


def scene_to_json(spec: SceneSpec) -> dict:
    return {
        "n_frames": spec.n_frames,
        "n_channels": spec.n_channels,
        "height": spec.height,
        "width": spec.width,
        "texture_seed": spec.texture_seed,
        "texture_amplitude": spec.texture_amplitude,
        "texture_wavelengths": list(spec.texture_wavelengths),
        "background_drift": [list(d) for d in spec.background_drift],
        "blobs": [
            {
                "subject_id": b.subject_id,
                "trajectory": [list(p) for p in b.trajectory],
                "radius": b.radius,
                "channel_signature": list(b.channel_signature),
            }
            for b in spec.blobs
        ],
    }


def _blob_from_json(doc) -> BlobSpec:
    where = f"scene blob {doc.get('subject_id')!r}" if isinstance(doc, dict) else "scene blob"
    kinds = {"subject_id": str, "trajectory": typed_points, "radius": float,
             "channel_signature": lambda v, label: typed_numbers(v, None, label)}
    return BlobSpec(**typed_fields(doc, kinds, "scene blob", required=kinds, where=where))


def scene_from_json(doc: dict) -> SceneSpec:
    """The spec ``scene_to_json`` writes; a key it would not write is rejected.

    Sizes and the texture seed must be JSON integers, and every other
    number a finite JSON number: nothing is coerced.
    """
    fields = typed_fields(doc, {
        "n_frames": int, "n_channels": int, "height": int, "width": int, "texture_seed": int,
        "texture_amplitude": float,
        "texture_wavelengths": lambda v, label: typed_numbers(v, 2, label),
        "background_drift": lambda v, label: None if v is None else typed_points(v, label),
        "blobs": list,
    }, "scene spec", required=("n_frames", "n_channels", "height", "width"))
    if "blobs" in fields:
        fields["blobs"] = tuple(_blob_from_json(b) for b in fields["blobs"])
    return SceneSpec(**fields)


def load_scene(path) -> SceneSpec:
    return scene_from_json(read_json(path))


def save_scene(spec: SceneSpec, path) -> None:
    write_json(path, scene_to_json(spec))


def write_frame_images(latents: LatentVideo, out_dir) -> list[Path]:
    """Dump one normalized PGM of channel 0 per frame for eyeballing a latent video."""
    out_dir = make_dir(out_dir)
    lo = float(latents.data[:, 0].min())
    hi = float(latents.data[:, 0].max())
    span = (hi - lo) or 1.0
    paths = []
    for f in range(latents.n_frames):
        img = ((latents.data[f, 0] - lo) / span * 255.0).astype(np.uint8)
        header = f"P5\n{latents.shape[3]} {latents.shape[2]}\n255\n".encode()
        p = out_dir / f"frame{f:03d}.pgm"
        atomic_write(p, header, img.tobytes())
        paths.append(p)
    return paths

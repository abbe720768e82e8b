import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momix.errors import BadMagic, BadValue, DimMismatch, IoFailure, NonFinite
from momix.synth import write_frame_images
from momix.tensors import (
    REQUIRED,
    LatentVideo,
    MaskTrack,
    SceneManifest,
    load_manifest,
    load_mask,
    load_tensor,
    save_manifest,
    save_mask,
    save_tensor,
    typed_field,
    write_array,
    write_json,
)


def test_latent_invariants():
    with pytest.raises(DimMismatch):
        LatentVideo(np.zeros((1, 1, 2, 2)))  # needs >= 2 frames
    with pytest.raises(DimMismatch):
        LatentVideo(np.zeros((2, 2, 2)))
    bad = np.zeros((2, 1, 2, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFinite):
        LatentVideo(bad)


def test_latent_is_immutable():
    lv = LatentVideo(np.zeros((2, 1, 2, 2)))
    with pytest.raises(ValueError):
        lv.data[0, 0, 0, 0] = 1.0


def test_zero_tensor_round_trip(tmp_path):
    lv = LatentVideo(np.zeros((2, 1, 2, 2), dtype=np.float32))
    p = tmp_path / "t.cmt"
    save_tensor(lv, p)
    back = load_tensor(p)
    assert np.array_equal(back.data, lv.data)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.cmt"
    p.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        load_tensor(p)


def test_random_tensor_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    lv = LatentVideo(rng.uniform(-5, 5, size=(4, 4, 8, 8)).astype(np.float32))
    p1, p2 = tmp_path / "a.cmt", tmp_path / "b.cmt"
    save_tensor(lv, p1)
    back = load_tensor(p1)
    assert np.array_equal(back.data, lv.data)
    # byte-level oracle: saving the loaded tensor reproduces the file exactly
    save_tensor(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_layout_matches_format():
    # independent byte oracle for a (2,1,1,1) tensor holding [1.0, 2.0]
    expected = (
        b"CMT1"
        + struct.pack("<I", 4)
        + struct.pack("<4I", 2, 1, 1, 1)
        + struct.pack("<2f", 1.0, 2.0)
    )
    assert len(expected) == 32


def test_save_layout(tmp_path):
    lv = LatentVideo(np.array([1.0, 2.0], dtype=np.float32).reshape(2, 1, 1, 1))
    p = tmp_path / "t.cmt"
    save_tensor(lv, p)
    raw = p.read_bytes()
    assert len(raw) == 32
    assert raw[:4] == b"CMT1"
    assert struct.unpack("<I", raw[4:8])[0] == 4
    assert struct.unpack("<4I", raw[8:24]) == (2, 1, 1, 1)
    assert struct.unpack("<2f", raw[24:]) == (1.0, 2.0)


def test_zero_dim_rejected_before_write():
    with pytest.raises(DimMismatch):
        LatentVideo(np.zeros((2, 0, 2, 2)))


def test_save_twice_identical(tmp_path):
    lv = LatentVideo(np.linspace(0, 1, 16, dtype=np.float32).reshape(2, 2, 2, 2))
    p1, p2 = tmp_path / "a.cmt", tmp_path / "b.cmt"
    save_tensor(lv, p1)
    save_tensor(lv, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_payload_mismatch(tmp_path):
    p = tmp_path / "short.cmt"
    header = b"CMT1" + struct.pack("<I4I", 4, 2, 1, 2, 2)
    p.write_bytes(header + b"\x00" * 4)  # 8 floats expected, 1 given
    with pytest.raises(DimMismatch):
        load_tensor(p)


def test_nan_payload_rejected(tmp_path):
    p = tmp_path / "nan.cmt"
    payload = np.array([np.nan] * 8, dtype="<f4").tobytes()
    p.write_bytes(b"CMT1" + struct.pack("<I4I", 4, 2, 1, 2, 2) + payload)
    with pytest.raises(NonFinite):
        load_tensor(p)


def test_mask_bad_value(tmp_path):
    p = tmp_path / "m.cmm"
    p.write_bytes(b"CMM1" + struct.pack("<I3I", 3, 2, 1, 2) + bytes([0, 1, 2, 0]))
    with pytest.raises(BadValue):
        load_mask(p)


def test_mask_file_must_be_3d(tmp_path):
    # load_manifest rejects such a file by its dims first; load_mask alone must too
    p = tmp_path / "m.cmm"
    p.write_bytes(b"CMM1" + struct.pack("<I2I", 2, 2, 2) + bytes(4))
    with pytest.raises(DimMismatch, match="mask file must be 3-D"):
        load_mask(p)


def test_all_zeros_mask_round_trip(tmp_path):
    m = MaskTrack(np.zeros((2, 3, 3), dtype=bool), subject_id="a")
    p = tmp_path / "m.cmm"
    save_mask(m, p)
    back = load_mask(p, subject_id="a")
    assert np.array_equal(back.data, m.data)
    assert back.subject_id == "a"


def test_random_mask_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(1)
    m = MaskTrack(rng.random((3, 8, 8)) < 0.5, subject_id="s")
    p1, p2 = tmp_path / "a.cmm", tmp_path / "b.cmm"
    save_mask(m, p1)
    save_mask(load_mask(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(
        st.integers(2, 4), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_round_trip_property(tmp_path_factory, shape, seed):
    rng = np.random.default_rng(seed)
    lv = LatentVideo(rng.standard_normal(shape).astype(np.float32))
    p = tmp_path_factory.mktemp("rt") / "t.cmt"
    save_tensor(lv, p)
    assert np.array_equal(load_tensor(p).data, lv.data)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_round_trip_property(tmp_path_factory, shape, seed):
    rng = np.random.default_rng(seed)
    m = MaskTrack(rng.random(shape) < 0.4, subject_id="s")
    p = tmp_path_factory.mktemp("rt") / "m.cmm"
    save_mask(m, p)
    assert np.array_equal(load_mask(p).data, m.data)


def test_manifest_round_trip_and_verify(tmp_path):
    lv = LatentVideo(np.zeros((2, 1, 4, 4), dtype=np.float32))
    m = MaskTrack(np.zeros((2, 4, 4), dtype=bool), subject_id="a")
    save_tensor(lv, tmp_path / "z.cmt")
    save_mask(m, tmp_path / "a.cmm")
    manifest = SceneManifest(
        frames=2, channels=1, height=4, width=4,
        latents={"0": "z.cmt"}, masks={"a": "a.cmm"}, root=tmp_path,
    )
    save_manifest(manifest, tmp_path / "manifest.json")
    back = load_manifest(tmp_path / "manifest.json")
    assert back.frames == 2 and back.subject_ids == ["a"]


def test_manifest_dim_disagreement(tmp_path):
    lv = LatentVideo(np.zeros((2, 1, 4, 4), dtype=np.float32))
    save_tensor(lv, tmp_path / "z.cmt")
    doc = {
        "frames": 3, "channels": 1, "height": 4, "width": 4,
        "latents": {"0": "z.cmt"}, "masks": {},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DimMismatch):
        load_manifest(tmp_path / "manifest.json")


def _manifest_doc(tmp_path):
    save_tensor(LatentVideo(np.zeros((2, 1, 4, 4))), tmp_path / "z.cmt")
    save_mask(MaskTrack(np.zeros((2, 4, 4), dtype=bool)), tmp_path / "a.cmm")
    return {"frames": 2, "channels": 1, "height": 4, "width": 4,
            "latents": {"0": "z.cmt"}, "masks": {"a": "a.cmm"}}


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"frames": "2"}, "frames must be a JSON integer"),
        ({"height": 4.7}, "height must be a JSON integer"),
        ({"width": True}, "width must be a JSON integer"),
        ({"channels": None}, "channels must be a JSON integer"),
        ({"latents": {"0": 5}}, "0 must be a JSON string"),
        ({"masks": {"a": ["a.cmm"]}}, "a must be a JSON string"),
        ({"masks": ["a.cmm"]}, "masks must be a JSON object"),
    ],
    ids=["frames-string", "height-float", "width-bool", "channels-null", "latent-path-integer",
         "mask-path-array", "masks-array"],
)
def test_manifest_rejects_mistyped_values(tmp_path, patch, message):
    # "2" and 4.7 used to be read as 2 and 4, and a path 5 as the file "5"
    doc = dict(_manifest_doc(tmp_path), **patch)
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(BadValue, match=message):
        load_manifest(tmp_path / "manifest.json")


def test_manifest_without_clean_latents_is_a_usage_error(tmp_path):
    # a manifest listing no latents for t=0 used to end in a KeyError traceback
    doc = dict(_manifest_doc(tmp_path), latents={})
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(BadValue, match="no latents for timestep 0"):
        load_manifest(tmp_path / "manifest.json").load_latent("0")


def test_typed_field_required_and_container_kinds():
    doc = {"n": 3, "xs": [1], "table": {}}
    assert typed_field(doc, "n", int, REQUIRED, "doc") == 3
    assert typed_field(doc, "xs", list, REQUIRED, "doc") == [1]
    assert typed_field(doc, "missing", dict, {}, "doc") == {}
    with pytest.raises(BadValue, match="malformed doc: missing m"):
        typed_field(doc, "m", int, REQUIRED, "doc")
    with pytest.raises(BadValue, match="table must be a JSON array"):
        typed_field(doc, "table", list, REQUIRED, "doc")
    with pytest.raises(BadValue, match="xs must be a JSON object"):
        typed_field(doc, "xs", dict, REQUIRED, "doc")


_WRITERS = {
    "cmt": lambda path: write_array(path, np.ones((2, 3))),
    "cmm": lambda path: save_mask(MaskTrack(np.ones((2, 3, 3), dtype=bool)), path),
    "json": lambda path: write_json(path, {"new": True}),
    "pgm": lambda path: write_frame_images(LatentVideo(np.ones((2, 1, 3, 3))), path.parent),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, kind):
    # a write that fails at the rename leaves the previous file whole and no temp file
    path = tmp_path / "frame000.pgm" if kind == "pgm" else tmp_path / f"file.{kind}"
    path.write_bytes(b"old contents")

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoFailure, match="no space left"):
        _WRITERS[kind](path)
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == [path.name]
    monkeypatch.undo()
    _WRITERS[kind](path)
    assert path.read_bytes() != b"old contents"
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

import numpy as np
import pytest

from momix.errors import BadValue, DimMismatch
from momix.features import extract_descriptors
from momix.synth import (
    BlobSpec,
    SceneSpec,
    _texture_frame,
    _texture_waves,
    centroid_trajectory,
    estimate_blob_track,
    load_scene,
    render_scene,
    reverse_blob,
    save_scene,
    scale_blob,
    scene_from_json,
    scene_to_json,
    shift_blob,
)
from momix.tensors import LatentVideo, MaskTrack


def linear(p0, p1, n):
    return tuple(
        (p0[0] + (p1[0] - p0[0]) * f / (n - 1), p0[1] + (p1[1] - p0[1]) * f / (n - 1))
        for f in range(n)
    )


def two_blob_scene(n=6, seed=7, amp=0.6):
    return SceneSpec(
        n_frames=n, n_channels=3, height=32, width=32,
        blobs=(
            BlobSpec("A", linear((10, 6), (10, 22), n), 3.0, (0.0, 2.5, 0.0)),
            BlobSpec("B", linear((22, 24), (22, 8), n), 3.0, (0.0, 0.0, 2.5)),
        ),
        texture_seed=seed, texture_amplitude=amp,
    )


def test_no_blobs_static_texture():
    spec = SceneSpec(n_frames=3, n_channels=2, height=8, width=8, texture_seed=1)
    lat, tracks, traj = render_scene(spec)
    assert tracks == [] and traj == {}
    assert np.array_equal(lat.data[0], lat.data[1])
    assert np.array_equal(lat.data[0], lat.data[2])


@pytest.mark.parametrize(
    "drift",
    [None, tuple((0.5 * f, -1.5 * f) for f in range(6)), ((0.0, 0.0), (1.0, 2.0)) * 3],
    ids=["static", "drifting", "repeated-drift"],
)
def test_render_scene_texture_matches_each_frame(drift):
    # frames that share a drift share one texture; each must stay byte-identical
    # to a texture rendered for its own frame
    spec = SceneSpec(n_frames=6, n_channels=3, height=9, width=11, background_drift=drift,
                     texture_seed=3)
    latents, _, _ = render_scene(spec)
    waves = _texture_waves(spec)
    for f in range(spec.n_frames):
        want = _texture_frame(waves, spec.height, spec.width, spec.background_drift[f])
        assert latents.data[f].tobytes() == want.tobytes(), f


def test_blob_centroid_tracks_trajectory():
    n = 5
    spec = SceneSpec(
        n_frames=n, n_channels=1, height=24, width=24,
        blobs=(BlobSpec("A", linear((12, 4), (12, 18), n), 3.0, (2.0,)),),
        texture_seed=3,
    )
    lat, tracks, traj = render_scene(spec)
    cents = centroid_trajectory(tracks[0])
    for c, t in zip(cents, traj["A"]):
        assert c is not None
        assert np.hypot(c[0] - t[0], c[1] - t[1]) <= 0.5


def test_identical_specs_identical_masks():
    spec = two_blob_scene()
    _, t1, _ = render_scene(spec)
    _, t2, _ = render_scene(spec)
    assert np.array_equal(t1[0].data, t2[0].data)
    assert np.array_equal(t1[1].data, t2[1].data)


def test_masks_and_latents_consistent():
    # topmost blob's signature replaces the texture on every mask-true cell
    spec = two_blob_scene()
    lat, tracks, _ = render_scene(spec)
    a, b = tracks
    for f in range(spec.n_frames):
        b_cells = b.frame(f)
        assert np.allclose(lat.data[f][:, b_cells], np.array([0, 0, 2.5])[:, None])
        only_a = a.frame(f) & ~b_cells
        if only_a.any():
            assert np.allclose(lat.data[f][:, only_a], np.array([0, 2.5, 0])[:, None])


def test_static_scene_zero_deltas():
    n = 4
    spec = SceneSpec(
        n_frames=n, n_channels=2, height=16, width=16,
        blobs=(BlobSpec("A", tuple((8.0, 8.0) for _ in range(n)), 3.0, (2.0, 0.0)),),
        texture_seed=5,
    )
    lat, tracks, _ = render_scene(spec)
    for desc in extract_descriptors(lat, tracks, timestep=0):
        for i, j in desc.forward_pairs():
            assert np.linalg.norm(desc.delta(i, j)) <= 1e-6


def test_pure_drift_camera_signal():
    n = 5
    spec = SceneSpec(
        n_frames=n, n_channels=1, height=16, width=16,
        background_drift=tuple((0.0, 1.5 * f) for f in range(n)),
        texture_seed=9, texture_amplitude=1.0,
    )
    lat, tracks, _ = render_scene(spec)
    descs = extract_descriptors(lat, tracks, timestep=0)
    assert [d.source_id for d in descs] == ["background"]
    norms = [np.linalg.norm(descs[0].delta(i, j)) for i, j in descs[0].forward_pairs()]
    assert max(norms) > 1e-3


def test_constant_background_hides_camera_motion():
    # drift is invisible to pooled means when the texture is flat
    n = 4
    spec = SceneSpec(
        n_frames=n, n_channels=1, height=16, width=16,
        background_drift=tuple((0.0, 2.0 * f) for f in range(n)),
        texture_seed=9, texture_amplitude=0.0,
    )
    lat, _, _ = render_scene(spec)
    descs = extract_descriptors(lat, [], timestep=0)
    for i, j in descs[0].forward_pairs():
        assert np.linalg.norm(descs[0].delta(i, j)) <= 1e-12


def test_centroid_trivia():
    m = np.zeros((2, 10, 10), dtype=bool)
    m[0, 3, 7] = True
    cents = centroid_trajectory(MaskTrack(m, subject_id="p"))
    assert cents[0] == (3.0, 7.0)
    assert cents[1] is None
    disk = np.zeros((1, 17, 17), dtype=bool)
    rr, cc = np.mgrid[0:17, 0:17]
    disk[0] = (rr - 8) ** 2 + (cc - 8) ** 2 <= 9
    c = centroid_trajectory(MaskTrack(disk, subject_id="d"))[0]
    assert c == (8.0, 8.0)


def test_estimate_blob_track_on_clean_scene():
    spec = two_blob_scene()
    lat, tracks, traj = render_scene(spec)
    # one more frame, all zero, where nothing passes the threshold
    lat = LatentVideo(np.concatenate([lat.data, np.zeros_like(lat.data[:1])]))
    cents, areas = estimate_blob_track(lat, (0.0, 2.5, 0.0), 0.5)
    true_cents = centroid_trajectory(tracks[0])
    assert len(cents) == len(areas) == spec.n_frames + 1
    for est, true in zip(cents, true_cents):
        assert est is not None
        assert np.hypot(est[0] - true[0], est[1] - true[1]) <= 0.75
    assert all(a > 0 for a in areas[:-1])
    assert cents[-1] is None and areas[-1] == 0
    assert all(type(a) is int for a in areas)
    with pytest.raises(BadValue):
        estimate_blob_track(lat, (0.0, 0.0, 0.0), 0.5)


def test_scene_spec_validation():
    with pytest.raises(DimMismatch):
        SceneSpec(n_frames=3, n_channels=1, height=8, width=8,
                  background_drift=((0, 0), (1, 1)))
    with pytest.raises(DimMismatch):
        SceneSpec(
            n_frames=3, n_channels=2, height=8, width=8,
            blobs=(BlobSpec("A", ((1, 1), (2, 2)), 1.0, (1.0, 0.0)),),
        )
    with pytest.raises(BadValue):
        BlobSpec("A", ((1, 1),), 0.0, (1.0,))


def test_scene_json_round_trip(tmp_path):
    spec = two_blob_scene()
    doc = scene_to_json(spec)
    back = scene_from_json(doc)
    assert back == spec
    save_scene(spec, tmp_path / "scene.json")
    assert load_scene(tmp_path / "scene.json") == spec


def test_scene_from_json_rejects_unknown_keys():
    doc = scene_to_json(two_blob_scene())
    # "blob" for "blobs" used to render a scene with no subjects
    typo = {("blob" if k == "blobs" else k): v for k, v in doc.items()}
    with pytest.raises(BadValue, match=r"unknown scene spec keys \['blob'\]"):
        scene_from_json(typo)
    blob = dict(doc["blobs"][1], radus=3.0)
    with pytest.raises(BadValue, match=r"unknown scene blob keys \['radus'\]"):
        scene_from_json(dict(doc, blobs=[doc["blobs"][0], blob]))


def test_scene_variants():
    spec = two_blob_scene()
    sh = shift_blob(spec, "A", 1.0, 2.0)
    assert sh.blobs[0].trajectory[0] == (11.0, 8.0)
    rv = reverse_blob(spec, "B")
    assert rv.blobs[1].trajectory[0] == spec.blobs[1].trajectory[-1]
    sc = scale_blob(spec, "A", 2.0, (10.0, 6.0))
    assert sc.blobs[0].radius == 6.0
    assert sc.blobs[0].trajectory[0] == (10.0, 6.0)
    with pytest.raises(BadValue):
        shift_blob(spec, "nope", 1, 1)

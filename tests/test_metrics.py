import numpy as np
import pytest

from momix.errors import LengthMismatch
from momix.features import MotionDescriptor, PairOperator, extract_descriptors
from momix.guidance import GuidanceTarget, guidance_loss
from momix.metrics import (
    compare_trajectories,
    descriptor_distance,
    displacement_similarity,
    mean_displacement,
    trajectory_rmse,
)
from momix.synth import BlobSpec, SceneSpec, render_scene
from momix.tensors import LatentVideo


def test_rmse_trivia():
    a = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
    assert trajectory_rmse(a, a) == 0.0
    b = [(r + 3.0, c + 4.0) for r, c in a]
    assert trajectory_rmse(a, b) == pytest.approx(5.0)
    assert trajectory_rmse([(0.0, 0.0)], [(0.0, 2.5)]) == pytest.approx(2.5)
    with pytest.raises(LengthMismatch):
        trajectory_rmse(a, a[:2])


def test_rmse_is_a_metric():
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y, z = (rng.standard_normal((4, 2)) for _ in range(3))
        assert trajectory_rmse(x, y) == pytest.approx(trajectory_rmse(y, x))
        assert trajectory_rmse(x, x) == 0.0
        assert trajectory_rmse(x, z) <= trajectory_rmse(x, y) + trajectory_rmse(y, z) + 1e-12


def test_similarity_trivia():
    a = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
    assert displacement_similarity(a, a) == pytest.approx(1.0)
    mirrored = [(0.0, 0.0), (0.0, -1.0), (0.0, -2.0)]
    assert displacement_similarity(a, mirrored) == pytest.approx(-1.0)


def test_similarity_diagonal_vs_projection():
    a = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    b = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
    assert displacement_similarity(a, b) == pytest.approx(1.0 / np.sqrt(2.0))


def test_similarity_static_handling():
    static = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
    moving = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
    assert displacement_similarity(static, static) == 1.0
    assert displacement_similarity(static, moving) == 0.0
    assert mean_displacement(static) == 0.0
    assert mean_displacement(moving) == pytest.approx(1.0)


def test_descriptor_distance_examples():
    d1 = MotionDescriptor.from_forward_pairs(
        "s", 0, 3, {(0, 1): np.array([1.0, 1.0]), (0, 2): np.array([0.5, 0.0])}
    )
    same, n = descriptor_distance(d1, d1)
    assert same == 0.0 and n == 2
    d2 = MotionDescriptor.from_forward_pairs(
        "s", 0, 3, {(0, 1): np.array([0.0, 0.0])}
    )
    dist, n = descriptor_distance(d1, d2)
    assert dist == pytest.approx(2.0) and n == 1
    d3 = MotionDescriptor.from_forward_pairs("s", 0, 3, {(1, 2): np.array([1.0, 0.0])})
    dist, n = descriptor_distance(d2, d3)
    assert dist == 0.0 and n == 0
    # an empty descriptor (as loaded from an archive: no tensor, no channels)
    empty = MotionDescriptor.from_forward_pairs("s", 0, 3, {})
    assert descriptor_distance(d1, empty) == (0.0, 0)
    assert descriptor_distance(empty, d1) == (0.0, 0)


def test_descriptor_distance_equals_guidance_loss():
    # cross-module consistency: distance(ref, extracted(z)) == loss(z) at unit weights
    n = 4
    spec = SceneSpec(
        n_frames=n, n_channels=2, height=16, width=16,
        blobs=(BlobSpec("A", tuple((8.0, 4.0 + 2.0 * f) for f in range(n)), 2.5, (0, 2.0)),),
        texture_seed=2, texture_amplitude=0.8,
    )
    lat, tracks, _ = render_scene(spec)
    ref_descs = extract_descriptors(lat, tracks, timestep=0)
    rng = np.random.default_rng(1)
    other = LatentVideo(lat.data + 0.1 * rng.standard_normal(lat.shape))
    other_descs = {d.source_id: d for d in extract_descriptors(other, tracks, timestep=0)}
    from momix.masks import background_track

    masks = {t.subject_id: t for t in tracks}
    masks["background"] = background_track(tracks)
    target = GuidanceTarget(ref_descs, PairOperator(masks))
    loss = guidance_loss(other, target)
    total = 0.0
    for ref in ref_descs:
        dist, _ = descriptor_distance(ref, other_descs[ref.source_id])
        total += dist
    assert loss == pytest.approx(total, rel=1e-12)


def test_compare_trajectories_report():
    a = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
    b = [(0.0, 0.5), (0.0, 1.5), (0.0, 2.5)]
    report = compare_trajectories(a, b)
    assert report.rmse_px == pytest.approx(0.5)
    assert report.displacement_similarity == pytest.approx(1.0)
    assert report.n_frames_compared == 3
    doc = report.to_json()
    assert set(doc) == {"rmse_px", "displacement_similarity", "n_frames_compared"}

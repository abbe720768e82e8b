import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momix.errors import BadValue, DimMismatch, NoValidPairs, UnknownSubject
from momix.features import MotionDescriptor, PairOperator
from momix.gradcheck import (
    finite_difference_gradient,
    max_relative_error,
    random_case,
    run_gradcheck,
)
from momix.guidance import (
    GuidanceConfig,
    GuidanceTarget,
    guidance_gradient,
    guidance_loss,
    guided_update,
    loss_and_gradient,
    stable_step_size,
)
from momix.tensors import LatentVideo, MaskTrack


def _single_pair_setup(delta=(1.0, 0.0), weight=1.0):
    """2 frames, 2 channels, 4x4, one full-frame source with one pair."""
    mask = MaskTrack(np.ones((2, 4, 4), dtype=bool), subject_id="s")
    ref = MotionDescriptor.from_forward_pairs(
        "s", timestep=0, n_frames=2, forward={(0, 1): np.asarray(delta, dtype=float)}
    )
    target = GuidanceTarget([ref], {"s": mask}, weights={"s": weight})
    return target


def test_loss_zero_at_reproducing_point():
    target = _single_pair_setup(delta=(0.25, -0.5))
    z = np.zeros((2, 2, 4, 4))
    z[0, 0] = 0.25  # mean difference across frames equals the reference
    z[0, 1] = -0.5
    lat = LatentVideo(z)
    assert guidance_loss(lat, target) == pytest.approx(0.0, abs=1e-15)
    grad = guidance_gradient(lat, target)
    assert np.allclose(grad, 0.0)


def test_loss_single_pair_value():
    target = _single_pair_setup(delta=(1.0, 0.0))
    lat = LatentVideo(np.zeros((2, 2, 4, 4)))
    assert guidance_loss(lat, target) == pytest.approx(1.0)


def test_loss_linear_in_weights():
    lat = LatentVideo(np.zeros((2, 2, 4, 4)))
    l1 = guidance_loss(lat, _single_pair_setup(weight=1.0))
    l2 = guidance_loss(lat, _single_pair_setup(weight=2.0))
    assert l2 == pytest.approx(2.0 * l1)


def test_gradient_locality():
    # cells outside every region have exactly zero gradient
    rng = np.random.default_rng(0)
    mask = np.zeros((2, 6, 6), dtype=bool)
    mask[:, 2:4, 2:4] = True
    track = MaskTrack(mask, subject_id="s")
    ref = MotionDescriptor.from_forward_pairs(
        "s", 0, 2, {(0, 1): rng.standard_normal(2)}
    )
    target = GuidanceTarget([ref], {"s": track})
    lat = LatentVideo(rng.standard_normal((2, 2, 6, 6)))
    grad = guidance_gradient(lat, target)
    outside = ~mask[0]
    assert np.all(grad[:, :, outside] == 0.0)


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(1)
    case = random_case(rng, 2, 2, 6, 6, 2)
    analytic = guidance_gradient(case.latents, case.target)
    numeric = finite_difference_gradient(case.latents, case.target, h=1e-3)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_gradcheck_suite_and_fault_injection():
    report = run_gradcheck(seed=0, n_cases=6)
    assert report["passed"] and report["checked"] >= 5
    bad = run_gradcheck(seed=0, n_cases=3, fault="sign-flip")
    assert not bad["passed"]
    vac = run_gradcheck(seed=0, n_cases=3, zero_weights=True)
    assert vac["passed"] and vac["vacuous"]


def test_exact_line_search_reaches_minimum():
    # single source, single pair: the loss is exactly quadratic along the gradient
    rng = np.random.default_rng(2)
    target = _single_pair_setup(delta=(0.7, -0.3))
    lat = LatentVideo(rng.standard_normal((2, 2, 4, 4)))
    loss0, grad = loss_and_gradient(lat, target)
    d = -grad

    def loss_at(s):
        return guidance_loss(LatentVideo(lat.data + s * d), target)

    # fit the 1-D quadratic through three samples and jump to its vertex
    s1 = 1.0
    f0, f1, f2 = loss_at(0.0), loss_at(s1), loss_at(2 * s1)
    denom = f2 - 2 * f1 + f0
    s_star = s1 * (3 * f0 - 4 * f1 + f2) / (2 * denom)
    assert loss_at(s_star) < 1e-10


def test_guided_update_monotone_at_stable_step():
    rng = np.random.default_rng(3)
    for k in range(6):
        case = random_case(rng, 3, 2, 8, 8, 2)
        config = GuidanceConfig(step_size=None, n_inner_steps=8)
        _, losses = guided_update(case.latents, case.target, config)
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:])), losses


def test_guided_update_zero_steps_identity():
    target = _single_pair_setup()
    lat = LatentVideo(np.ones((2, 2, 4, 4)))
    out, losses = guided_update(lat, target, GuidanceConfig(n_inner_steps=0))
    assert np.array_equal(out.data, lat.data)
    assert len(losses) == 1


def test_uniform_mask_mean_dynamics():
    # with one all-true source the update moves every frame's spatial mean by
    # the closed-form rule m_i' = m_i - step * r_i / n_cells
    rng = np.random.default_rng(4)
    f, c, h, w = 3, 1, 4, 4
    track = MaskTrack(np.ones((f, h, w), dtype=bool), subject_id="bg")
    refs = {
        (0, 1): np.array([0.3]),
        (0, 2): np.array([-0.2]),
        (1, 2): np.array([0.1]),
    }
    ref = MotionDescriptor.from_forward_pairs("bg", 0, f, refs)
    target = GuidanceTarget([ref], {"bg": track})
    lat = LatentVideo(rng.standard_normal((f, c, h, w)))
    step = 0.5
    out, _ = guided_update(lat, target, GuidanceConfig(step_size=step, n_inner_steps=1))
    n = h * w
    m = lat.data.mean(axis=(1, 2, 3))
    residual = {p: (m[p[0]] - m[p[1]]) - refs[p][0] for p in refs}
    r = np.zeros(f)
    for (i, j), res in residual.items():
        r[i] += 2 * res
        r[j] -= 2 * res
    want = m - step * r / n
    got = out.data.mean(axis=(1, 2, 3))
    assert np.allclose(got, want)
    # and the means moved toward matching the reference differences
    before = sum(res**2 for res in residual.values())
    after = sum(((got[i] - got[j]) - refs[(i, j)][0]) ** 2 for (i, j) in refs)
    assert after < before


def test_pair_validity_intersection():
    # a pair valid on the reference side but with an empty target region is dropped;
    # the subject only exists in frame 0, so the (1, 2) region is empty
    mask = np.zeros((3, 4, 4), dtype=bool)
    mask[0, 1:3, 1:3] = True
    track = MaskTrack(mask, subject_id="s")
    ref = MotionDescriptor.from_forward_pairs(
        "s", 0, 3,
        {(0, 1): np.array([1.0]), (0, 2): np.array([1.0]), (1, 2): np.array([1.0])},
    )
    target = GuidanceTarget([ref], {"s": track})
    assert target.enforced_pair_count() == 2
    # reference missing a pair the target has also drops it
    ref2 = MotionDescriptor.from_forward_pairs("s", 0, 3, {})
    with pytest.raises(NoValidPairs):
        guidance_loss(LatentVideo(np.zeros((3, 1, 4, 4))), target.with_references([ref2]))


def test_unknown_source_and_config_validation():
    ref = MotionDescriptor.from_forward_pairs("ghost", 0, 2, {(0, 1): np.array([1.0])})
    mask = MaskTrack(np.ones((2, 4, 4), dtype=bool), subject_id="s")
    with pytest.raises(UnknownSubject):
        GuidanceTarget([ref], {"s": mask})
    dup = MotionDescriptor.from_forward_pairs("s", 0, 2, {(0, 1): np.array([1.0])})
    with pytest.raises(BadValue):
        GuidanceTarget([dup, dup], {"s": mask})
    longer = MotionDescriptor.from_forward_pairs("s", 0, 3, {(0, 1): np.array([1.0])})
    with pytest.raises(DimMismatch):
        GuidanceTarget([longer], {"s": mask})
    with pytest.raises(BadValue):
        GuidanceConfig(step_size=0.0)
    with pytest.raises(BadValue):
        GuidanceConfig(t_start=2, t_end=5)
    with pytest.raises(BadValue):
        GuidanceConfig(per_source_weight={"s": -1.0})


def test_stable_step_size_bound():
    target = _single_pair_setup(weight=2.0)
    # L = 4 * weight * pairs / min_area = 4 * 2 * 1 / 16
    assert stable_step_size(target) == pytest.approx(16.0 / 8.0)


def test_guidance_window_default():
    cfg = GuidanceConfig()
    assert cfg.window(20) == (20, 5)  # first 80% of the denoising steps
    cfg2 = GuidanceConfig(t_start=12, t_end=3)
    assert cfg2.window(20) == (12, 3)


@settings(max_examples=60, deadline=None)
@given(
    n_sources=st.integers(1, 3),
    n_frames=st.integers(2, 5),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_target_rows_match_naive_loop(n_sources, n_frames, keep, seed):
    # oracle: one has_pair/delta lookup per operator row
    rng = np.random.default_rng(seed)
    masks = {
        f"s{k}": MaskTrack(rng.random((n_frames, 4, 3)) < 0.5, subject_id=f"s{k}")
        for k in range(n_sources)
    }
    regions = PairOperator(masks)
    all_pairs = [(i, j) for i in range(n_frames) for j in range(i + 1, n_frames)]
    references, weights = [], {}
    for sid in masks:
        if rng.random() < 0.2:
            continue  # a source with no reference at all
        # any subset of pairs, including ones whose target region is empty
        chosen = [p for p in all_pairs if rng.random() < keep]
        rng.shuffle(chosen)
        forward = {p: rng.standard_normal(2) for p in chosen}
        references.append(MotionDescriptor.from_forward_pairs(sid, 0, n_frames, forward))
        weights[sid] = float(rng.uniform(0.1, 3.0))
    target = GuidanceTarget(references, regions=regions, weights=weights)

    by_source = {ref.source_id: ref for ref in references}
    n_channels = 2 if any(len(ref.pairs) for ref in references) else 0
    want_ref = np.zeros((len(regions.rows), n_channels))
    want_weight = np.zeros(len(regions.rows))
    want_enforced = np.zeros(len(regions.rows), dtype=bool)
    for r, (sid, i, j) in enumerate(regions.rows):
        ref = by_source.get(sid)
        if ref is not None and ref.has_pair(i, j):
            want_ref[r] = ref.delta(i, j)
            want_weight[r] = weights[sid]
            want_enforced[r] = True
    assert np.array_equal(target.ref, want_ref)
    assert np.array_equal(target.weight, want_weight)
    assert np.array_equal(target.enforced, want_enforced)

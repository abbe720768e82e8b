import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momix
from momix import gradcheck, guidance
from momix.errors import BadValue, DimMismatch, NoValidPairs, UnknownSubject
from momix.features import (
    Directive,
    EditPlan,
    MotionDescriptor,
    PairOperator,
    compile_sources,
    extract_descriptors,
    recompose,
)
from momix.gradcheck import (
    _CHUNK,
    _loss_terms,
    _perturbed,
    _plane_losses,
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
from momix.masks import MaskEdit, apply_edit
from momix.synth import BlobSpec, SceneSpec, render_scene
from momix.tensors import LatentVideo, MaskTrack


def _single_pair_setup(delta=(1.0, 0.0), weight=1.0):
    """2 frames, 2 channels, 4x4, one full-frame source with one pair."""
    mask = MaskTrack(np.ones((2, 4, 4), dtype=bool), subject_id="s")
    ref = MotionDescriptor.from_forward_pairs(
        "s", timestep=0, n_frames=2, forward={(0, 1): np.asarray(delta, dtype=float)}
    )
    target = GuidanceTarget([ref], PairOperator({"s": mask}), weights={"s": weight})
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
    target = GuidanceTarget([ref], PairOperator({"s": track}))
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
    assert vac["passed"] and vac["vacuous"] == "all source weights are zero"
    assert report["vacuous"] is None and bad["vacuous"] is None


@pytest.mark.parametrize(
    "kwargs",
    [{"n_cases": 0}, {"n_cases": -3}, {"seed": -1}, {"h": 0.0}, {"h": -1e-3},
     {"h": float("nan")}, {"h": float("inf")}],
    ids=["no-cases", "negative-cases", "negative-seed", "zero-h", "negative-h", "nan-h",
         "infinite-h"],
)
def test_run_gradcheck_rejects_bad_arguments(kwargs):
    with pytest.raises(BadValue):
        run_gradcheck(**kwargs)


def _oracle_targets():
    """Targets for the finite-difference oracle, each with a label.

    The five ``run_gradcheck`` sizes (``random_case`` leaves about 15% of
    the pairs unreferenced), then a fixed scene with a source that has no
    rows, a source with half its pairs referenced, a source with no
    reference at all, and zero weights on some or all sources.
    """
    rng = np.random.default_rng(11)
    for label, _, target in _gradcheck_cases(rng):
        yield label, target
    n = 4
    a = np.zeros((n, 10, 10), dtype=bool)
    b = np.zeros_like(a)
    for f in range(n):
        a[f, 1:5, f : f + 4] = True
        b[f, 4:8, 6 - f : 9 - f] = True
    masks = {
        "A": MaskTrack(a, subject_id="A"),
        "B": MaskTrack(b, subject_id="B"),
        "ghost": MaskTrack(np.zeros_like(a), subject_id="ghost"),
        "background": MaskTrack(~(a | b), subject_id="background"),
    }
    regions = PairOperator(masks)
    assert regions.slices["ghost"] == slice(regions.slices["B"].stop, regions.slices["B"].stop)
    pairs_b = list(regions.pairs["B"])
    references = [
        MotionDescriptor.from_forward_pairs(
            "A", 0, n, {p: rng.standard_normal(2) for p in regions.pairs["A"]}
        ),
        MotionDescriptor.from_forward_pairs(
            "B", 0, n, {p: rng.standard_normal(2) for p in pairs_b[::2]}
        ),
        MotionDescriptor.from_forward_pairs("ghost", 0, n, {}),
    ]
    for weights in ({"A": 1.3, "B": 0.7}, {"A": 0.0, "B": 0.7}, {"A": 0.0, "B": 0.0}):
        yield f"fixed-scene-{weights}", GuidanceTarget(references, regions, weights=weights)


def test_plane_losses_match_guidance_loss_per_row():
    # the oracle against the operator's loss, one perturbed row at a time
    rng = np.random.default_rng(12)
    for label, target in _oracle_targets():
        n_channels = target.ref.shape[1]
        shape = (target.regions.n_frames, n_channels, *target.regions.spatial)
        base = rng.standard_normal(shape)
        planes = base.reshape(*shape[:2], -1)
        terms = _loss_terms(planes, target)
        for f, c in ((0, 0), (shape[0] - 1, n_channels - 1), (1, n_channels // 2)):
            stack = planes[f, c] + rng.standard_normal((5, planes.shape[2]))
            got = _plane_losses(terms, stack, f, c)
            want = []
            for row in stack:
                z = base.copy()
                z[f, c] = row.reshape(shape[2:])
                want.append(guidance_loss(LatentVideo(z), target))
            want = np.array(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (label, f, c, got, want)


def _full_stack_loss(z_batch, target):
    """Loss of each latent tensor in a (batch, F, C, H, W) stack, every mean recomputed."""
    b, f, c, h, w = z_batch.shape
    flat = z_batch.reshape(b, f, c, -1)
    total = np.zeros(b)
    for ref in sorted(target.references, key=lambda d: d.source_id):
        weight = float(target.weights.get(ref.source_id, 1.0))
        for (i, j), (idx, _) in target.regions.pairs[ref.source_id].items():
            if not ref.has_pair(i, j):
                continue
            mask = np.zeros(flat.shape[3])
            mask[idx] = 1.0
            means_i = np.einsum("bcn,n->bc", flat[:, i], mask) / idx.size
            means_j = np.einsum("bcn,n->bc", flat[:, j], mask) / idx.size
            r = (means_i - means_j) - ref.delta(i, j)[None, :]
            total += weight * np.einsum("bc,bc->b", r, r)
    return total


def _full_stack_gradient(z, target, h=1e-3):
    """The central differences over whole perturbed copies of the latents, chunk by chunk."""
    base = z.data.astype(np.float64, copy=True)
    n = base.size
    grad = np.zeros(n)
    flat = base.reshape(-1)
    for start in range(0, n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n))
        stacked = _perturbed(flat, idx, h).reshape(2 * idx.size, *base.shape)
        losses = _full_stack_loss(stacked, target)
        grad[idx] = (losses[: idx.size] - losses[idx.size :]) / (2.0 * h)
    return grad.reshape(base.shape)


def test_plane_by_plane_gradient_bytes_match_the_full_stack():
    # reusing the base means outside the perturbed plane changes no bit
    rng = np.random.default_rng(14)
    for label, target in _oracle_targets():
        n_channels = target.ref.shape[1]
        shape = (target.regions.n_frames, n_channels, *target.regions.spatial)
        z = LatentVideo(rng.standard_normal(shape))
        got = finite_difference_gradient(z, target)
        want = _full_stack_gradient(z, target)
        assert got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_finite_difference_gradient_rejects_a_bad_step(h):
    # h = 0 used to give an all-NaN gradient with only a warning
    case = random_case(np.random.default_rng(15), 2, 2, 6, 6, 1)
    with pytest.raises(BadValue):
        finite_difference_gradient(case.latents, case.target, h=h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_is_an_infinite_error(bad):
    # NaN used to count as 0 error, and inf against a finite value as NaN
    assert max_relative_error(np.array([bad, 1.0]), np.array([0.0, 1.0])) == np.inf
    assert max_relative_error(np.array([0.0, 1.0]), np.array([bad, 1.0])) == np.inf
    assert max_relative_error(np.array([bad]), np.array([bad])) == np.inf
    assert max_relative_error(np.array([0.0, 2.0]), np.array([0.0, 1.0])) == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradcheck_fails_a_non_finite_analytic_gradient(monkeypatch, bad):
    real = guidance.guidance_gradient
    monkeypatch.setattr(
        gradcheck, "guidance_gradient", lambda lat, target: np.full_like(real(lat, target), bad)
    )
    report = run_gradcheck(seed=0, n_cases=3)
    assert not report["passed"] and report["max_rel_err"] == np.inf


def test_perturbation_stack_matches_separate_plus_and_minus_copies():
    flat = np.random.default_rng(13).standard_normal(600)
    h = 1e-3
    for start, stop in ((0, 256), (256, 512), (512, 600)):
        idx = np.arange(start, stop)
        plus = np.repeat(flat[None, :], idx.size, axis=0)
        minus = plus.copy()
        plus[np.arange(idx.size), idx] += h
        minus[np.arange(idx.size), idx] -= h
        want = np.concatenate([plus, minus])
        got = _perturbed(flat, idx, h)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
        _, losses = guided_update(case.latents.data, case.target, config)
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:])), losses


def test_guided_update_zero_steps_identity():
    target = _single_pair_setup()
    lat = LatentVideo(np.ones((2, 2, 4, 4)))
    out, losses = guided_update(lat.data, target, GuidanceConfig(n_inner_steps=0))
    assert np.array_equal(out, lat.data)
    assert len(losses) == 1


def _descent_oracle(latents, target, config):
    """Steepest descent on the latents: one gradient and one step per inner step."""
    z, losses = latents.data.astype(np.float64), []
    for _ in range(config.n_inner_steps):
        loss, grad = loss_and_gradient(LatentVideo(z), target)
        losses.append(loss)
        z = z - config.step_size * grad
    losses.append(guidance_loss(LatentVideo(z), target))
    return z, losses


def _cgls_oracle(latents, target, config):
    """Conjugate gradients on the latents: Fletcher-Reeves directions, exact line search.

    The loss is quadratic, so its gradient is affine and the Hessian product
    along a direction p is ``grad(z + p) - grad(z)``.
    """
    z = latents.data.astype(np.float64)
    loss, grad = loss_and_gradient(LatentVideo(z), target)
    losses, direction = [loss], None
    for _ in range(config.n_inner_steps):
        gamma = np.sum(grad * grad)
        if gamma == 0:
            losses.append(losses[-1])
            continue
        direction = -grad if direction is None else direction * (gamma / last) - grad
        hessian_p = loss_and_gradient(LatentVideo(z + direction), target)[1] - grad
        z = z + (-np.sum(grad * direction) / np.sum(direction * hessian_p)) * direction
        loss, grad = loss_and_gradient(LatentVideo(z), target)
        losses.append(loss)
        last = gamma
    return z, losses


def _gradcheck_cases(rng):
    """One case per size ``run_gradcheck`` draws, redrawn until some pair is enforced."""
    sizes = [
        (2, 2, 6, 6, 1), (3, 1, 8, 8, 2), (2, 3, 6, 6, 2), (4, 2, 10, 10, 3), (4, 4, 16, 16, 3)
    ]
    for size in sizes:
        case = random_case(rng, *size)
        while not case.target.enforced.any():
            case = random_case(rng, *size)
        yield case.label, case.latents, case.target


def _mask_edit_case(rng):
    """Clean-latent references of a two-blob scene, guiding a shifted A over noise."""
    n = 5
    spec = SceneSpec(
        n_frames=n, n_channels=3, height=20, width=20,
        blobs=(
            BlobSpec("A", tuple((6.0, 4.0 + 2.0 * f) for f in range(n)), 3.0, (1.0, 0.0, 0.5)),
            BlobSpec("B", tuple((14.0, 15.0 - 1.5 * f) for f in range(n)), 2.5, (0.0, 1.0, 0.0)),
        ),
        texture_seed=5,
    )
    latents, tracks, _ = render_scene(spec)
    edit = MaskEdit("shift", dx=3, dy=1)
    plan = EditPlan({"A": Directive("mask_edit", edit=edit)})
    refs = recompose(extract_descriptors(latents, tracks, timestep=0), plan)
    regions = compile_sources(latents.shape, [apply_edit(tracks[0], edit), tracks[1]])
    target = GuidanceTarget(refs, regions)
    return "mask_edit", LatentVideo(rng.standard_normal(latents.shape)), target


@pytest.mark.parametrize("step_size", [None, 0.3], ids=["stable-step", "fixed-step"])
def test_guided_update_matches_descent_on_the_latents(step_size):
    # the pair-space iterations against the same iterations on the latents: with the
    # default (null) step, conjugate gradients; with a fixed step, the steepest-descent
    # loop the pair-space one replaced. Losses that reach 0 are compared relative to
    # the starting loss
    rng = np.random.default_rng(7)
    config = GuidanceConfig(step_size=step_size, n_inner_steps=5)
    oracle, rtol = (_cgls_oracle, 1e-10) if step_size is None else (_descent_oracle, 1e-12)
    for label, latents, target in [*_gradcheck_cases(rng), _mask_edit_case(rng)]:
        out, losses = guided_update(latents.data, target, config)
        want, want_losses = oracle(latents, target, config)
        assert np.max(np.abs(out - want)) <= rtol * np.max(np.abs(want)), label
        np.testing.assert_allclose(
            losses, want_losses, rtol=1e-6, atol=1e-12 * want_losses[0], err_msg=label
        )


@pytest.mark.parametrize("n_inner_steps", [0, 4])
@pytest.mark.parametrize("step_size", [None, 0.3], ids=["stable-step", "fixed-step"])
def test_guided_update_with_carried_deltas(step_size, n_inner_steps):
    # the carried W z stands in for the apply: the same latents up to rounding, and
    # W of them left in the deltas, which the update overwrites
    rng = np.random.default_rng(9)
    config = GuidanceConfig(step_size=step_size, n_inner_steps=n_inner_steps)
    for label, latents, target in [*_gradcheck_cases(rng), _mask_edit_case(rng)]:
        z = latents.data.astype(np.float64)
        want, want_losses = guided_update(z, target, config)
        deltas = target.regions.apply(z)
        out, losses = guided_update(z, target, config, deltas)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want)), label
        assert losses == want_losses, label  # the first apply is the carried one, bit for bit
        exact = target.regions.apply(out)
        assert np.max(np.abs(deltas - exact)) <= 1e-12 * np.max(np.abs(exact)), label


@pytest.mark.parametrize("size", [(3, 2, 8, 8, 2), (4, 1, 6, 6, 3), (5, 1, 5, 5, 2),
                                  (6, 1, 4, 4, 2)])
def test_default_step_reaches_the_least_squares_minimum(size):
    # conjugate gradients end in at most one step per enforced row, and a few more
    # in rounding; the minimum comes from lstsq on the dense D½ W, built one unit
    # latent at a time. These Gram matrices are singular: past the minimum, steps on
    # rounding noise could move the latents far from it while the pair-space trace
    # kept falling, so the trace's last loss must be the loss of the returned latents
    rng = np.random.default_rng(11)
    case = random_case(rng, *size)
    while not case.target.enforced.any():
        case = random_case(rng, *size)
    z, target = case.latents.data, case.target
    units = np.eye(z.size).reshape(z.size, *z.shape)
    dense = np.stack([target.regions.apply(e).reshape(-1) for e in units], axis=1)
    root = np.repeat(np.sqrt(target.weight), z.shape[1])  # rows of apply(z).reshape(-1)
    a, b = root[:, None] * dense, root * target.ref.reshape(-1)
    minimum = np.sum((a @ np.linalg.lstsq(a, b, rcond=None)[0] - b) ** 2)
    config = GuidanceConfig(n_inner_steps=3 * target.enforced_pair_count())
    out, losses = guided_update(z, target, config)
    assert abs(losses[-1] - minimum) <= 1e-8 * losses[0], (losses, minimum)
    assert abs(guidance_loss(LatentVideo(out), target) - losses[-1]) <= 1e-8 * losses[0]


def test_default_step_at_the_reference_stays_put():
    # γ is 0 at the first step: the losses repeat, the latents do not move, and
    # nothing divides by 0
    _, latents, target = _mask_edit_case(np.random.default_rng(12))
    regions = target.regions
    deltas = regions.apply(latents.data)
    target = target.with_references([
        MotionDescriptor(sid, 0, regions.n_frames, regions.ij[rows], deltas[rows])
        for sid, rows in regions.slices.items()
    ])
    assert target.enforced_pair_count() > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, losses = guided_update(latents.data, target, GuidanceConfig(n_inner_steps=4))
    assert losses == [losses[0]] * 5
    assert np.array_equal(out, latents.data)


@pytest.mark.parametrize("n_inner_steps", [0, 1, 2, 6])
def test_guided_update_makes_one_apply_and_one_adjoint(monkeypatch, n_inner_steps):
    calls = {"apply": 0, "adjoint": 0}

    def counted(name):
        method = getattr(PairOperator, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("guided_update must not evaluate the loss on the latents")

    monkeypatch.setattr(PairOperator, "apply", counted("apply"))
    monkeypatch.setattr(PairOperator, "adjoint", counted("adjoint"))
    monkeypatch.setattr(guidance, "loss_and_gradient", forbidden)
    monkeypatch.setattr(guidance, "guidance_loss", forbidden)
    case = random_case(np.random.default_rng(8), 4, 2, 10, 10, 3)
    config = GuidanceConfig(n_inner_steps=n_inner_steps)
    _, losses = guided_update(case.latents.data, case.target, config)
    assert len(losses) == n_inner_steps + 1
    assert calls == {"apply": 1, "adjoint": min(1, n_inner_steps)}


def test_guided_update_returns_c_contiguous_latents():
    # the sampler's DDIM passes run several times slower on a gradient laid out
    # with frames and channels innermost, as atoms[:, :, labels] gives it
    label, latents, target = _mask_edit_case(np.random.default_rng(9))
    coef = np.ones((len(target.regions.rows), latents.n_channels))
    assert target.regions.adjoint(coef).flags.c_contiguous
    out, _ = guided_update(latents.data, target, GuidanceConfig(n_inner_steps=2))
    assert out.flags.c_contiguous and out.shape == latents.shape


def _stdout_at_one_and_two_threads(probe):
    """The set of what ``probe`` prints, run at 1 and at 2 OpenBLAS threads."""
    src = str(Path(momix.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(done.stdout.strip())
    return outputs


# 1,260 rows: at this size OpenBLAS gives different bytes for the Gram product at 1
# and 2 threads, and the fixed step is large enough for that to reach the output
_THREAD_PROBE = """
import hashlib
import numpy as np
from momix.features import MotionDescriptor, PairOperator
from momix.guidance import GuidanceConfig, GuidanceTarget, guided_update
from momix.tensors import LatentVideo, MaskTrack

rng = np.random.default_rng(3)
f, c, h, w = 36, 3, 8, 8
masks = {sid: MaskTrack(rng.random((f, h, w)) < 0.5, subject_id=sid) for sid in ("a", "b")}
regions = PairOperator(masks)
assert len(regions.rows) >= 1200, len(regions.rows)
refs = [
    MotionDescriptor(sid, 0, f, regions.ij[rows], rng.standard_normal((rows.stop - rows.start, c)))
    for sid, rows in regions.slices.items()
]
target = GuidanceTarget(refs, regions, weights={"a": 1.0, "b": 0.5})
latents = LatentVideo(rng.standard_normal((f, c, h, w)))
out, losses = guided_update(latents.data, target, GuidanceConfig(step_size=0.3, n_inner_steps=4))
print(hashlib.sha256(out.tobytes() + np.array(losses).tobytes()).hexdigest())
"""


def test_guided_update_bytes_do_not_depend_on_blas_threads():
    digests = _stdout_at_one_and_two_threads(_THREAD_PROBE)
    assert len(digests) == 1, digests


# large-edit's geometry: 16 frames x 4 channels x 64x64 and 3 subjects, 480 rows,
# with random references
_LARGE_EDIT_REFERENCES = """
import numpy as np
from momix.features import MotionDescriptor, compile_sources
from momix.guidance import GuidanceConfig, GuidanceTarget, guided_update, stable_step_size
from momix.synth import BlobSpec, SceneSpec, render_scene

n = 16
spec = SceneSpec(
    n_frames=n, n_channels=4, height=64, width=64,
    blobs=(
        BlobSpec("A", tuple((20.0, 10.0 + 2.3 * f) for f in range(n)), 5.0, (0, 2.5, 0, 0)),
        BlobSpec("B", tuple((46.0, 54.0 - 2.3 * f) for f in range(n)), 5.0, (0, 0, 2.5, 0)),
        BlobSpec("C", tuple((8.0 + 2.3 * f, 56.0) for f in range(n)), 4.0, (0, 0, 0, 2.5)),
    ),
    texture_seed=1,
)
latents, tracks, _ = render_scene(spec)
regions = compile_sources(latents.shape, tracks)
assert len(regions.rows) == 480, len(regions.rows)
rng = np.random.default_rng(4)
refs = [
    MotionDescriptor(sid, 0, n, regions.ij[rows], rng.standard_normal((rows.stop - rows.start, 4)))
    for sid, rows in regions.slices.items()
]
"""

# for both weight sets, eigvalsh's largest eigenvalue has different bytes at 1 and
# 2 OpenBLAS threads
_STEP_THREAD_PROBE = _LARGE_EDIT_REFERENCES + """
for weights in ({"A": 2.0, "B": 2.0, "C": 0.5}, {"A": 1.0, "B": 0.0, "C": 1.0}):
    print(stable_step_size(GuidanceTarget(refs, regions, weights=weights)).hex())
"""


def test_stable_step_size_bytes_do_not_depend_on_blas_threads():
    steps = _stdout_at_one_and_two_threads(_STEP_THREAD_PROBE)
    assert len(steps) == 1, steps


# the default step: conjugate gradients, whose α and β feed the output
_CG_THREAD_PROBE = _LARGE_EDIT_REFERENCES + """
import hashlib
target = GuidanceTarget(refs, regions, weights={"A": 2.0, "B": 2.0, "C": 0.5})
z = rng.standard_normal(latents.shape)
out, losses = guided_update(z, target, GuidanceConfig(n_inner_steps=10))
print(hashlib.sha256(out.tobytes() + np.array(losses).tobytes()).hexdigest())
"""


def test_default_step_update_bytes_do_not_depend_on_blas_threads():
    digests = _stdout_at_one_and_two_threads(_CG_THREAD_PROBE)
    assert len(digests) == 1, digests


_GRADCHECK_PROBE = """
import json
from momix.gradcheck import run_gradcheck
print(json.dumps(run_gradcheck(1, n_cases=5), sort_keys=True))
"""


def test_gradcheck_report_does_not_depend_on_blas_threads():
    reports = _stdout_at_one_and_two_threads(_GRADCHECK_PROBE)
    assert len(reports) == 1, reports


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
    target = GuidanceTarget([ref], PairOperator({"bg": track}))
    lat = LatentVideo(rng.standard_normal((f, c, h, w)))
    step = 0.5
    out, _ = guided_update(lat.data, target, GuidanceConfig(step_size=step, n_inner_steps=1))
    n = h * w
    m = lat.data.mean(axis=(1, 2, 3))
    residual = {p: (m[p[0]] - m[p[1]]) - refs[p][0] for p in refs}
    r = np.zeros(f)
    for (i, j), res in residual.items():
        r[i] += 2 * res
        r[j] -= 2 * res
    want = m - step * r / n
    got = out.mean(axis=(1, 2, 3))
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
    target = GuidanceTarget([ref], PairOperator({"s": track}))
    assert target.enforced_pair_count() == 2
    # reference missing a pair the target has also drops it
    ref2 = MotionDescriptor.from_forward_pairs("s", 0, 3, {})
    with pytest.raises(NoValidPairs):
        guidance_loss(LatentVideo(np.zeros((3, 1, 4, 4))), target.with_references([ref2]))


def test_unknown_source_and_config_validation():
    ref = MotionDescriptor.from_forward_pairs("ghost", 0, 2, {(0, 1): np.array([1.0])})
    mask = MaskTrack(np.ones((2, 4, 4), dtype=bool), subject_id="s")
    with pytest.raises(UnknownSubject):
        GuidanceTarget([ref], PairOperator({"s": mask}))
    dup = MotionDescriptor.from_forward_pairs("s", 0, 2, {(0, 1): np.array([1.0])})
    with pytest.raises(BadValue):
        GuidanceTarget([dup, dup], PairOperator({"s": mask}))
    longer = MotionDescriptor.from_forward_pairs("s", 0, 3, {(0, 1): np.array([1.0])})
    with pytest.raises(DimMismatch):
        GuidanceTarget([longer], PairOperator({"s": mask}))
    with pytest.raises(BadValue):
        GuidanceConfig(step_size=0.0)
    with pytest.raises(BadValue):
        GuidanceConfig(t_start=2, t_end=5)
    with pytest.raises(BadValue):
        GuidanceConfig(weights={"s": -1.0})


def test_stable_step_size_bound():
    # closed forms of 1 / (2 lambda_max(D^1/2 G D^1/2))
    # one pair over 16 cells: G = 2/16, so lambda_max = weight/8 and the step 4/weight,
    # also for weights whose squares underflow or overflow
    for weight in (2.0, 1e-200, 1e200):
        step = stable_step_size(_single_pair_setup(weight=weight))
        assert step == pytest.approx(4.0 / weight, rel=1e-12), weight
    # a full-frame source over 3 frames with (0, 2) unenforced: G over (0, 1) and
    # (1, 2) is [[2, -1], [-1, 2]] / 16, whose top eigenvector (1, -1) a start
    # along the weights would miss, giving lambda 1/16 instead of 3/16
    track = MaskTrack(np.ones((3, 4, 4), dtype=bool), subject_id="s")
    ref = MotionDescriptor.from_forward_pairs(
        "s", 0, 3, {(0, 1): np.array([1.0]), (1, 2): np.array([1.0])}
    )
    target = GuidanceTarget([ref], PairOperator({"s": track}))
    assert stable_step_size(target) == pytest.approx(16.0 / 6.0, rel=1e-6)
    target = GuidanceTarget([ref], PairOperator({"s": track}), weights={"s": 0.0})
    with pytest.raises(NoValidPairs):
        stable_step_size(target)


def test_stable_step_size_matches_the_exact_curvature():
    # the step against an eigensolver on D^1/2 G D^1/2, with fractional and integer
    # weights, and with the smallest region left unenforced so that its row must not count
    rng = np.random.default_rng(5)
    sizes = [(3, 2, 8, 8, 2), (4, 2, 10, 10, 3), (6, 1, 12, 12, 3), (2, 2, 6, 6, 1)]
    checked = 0
    for k in range(24):
        regions = random_case(rng, *sizes[k % len(sizes)]).target.regions
        smallest = regions.rows[int(np.argmin(regions.area))]
        references = [
            MotionDescriptor.from_forward_pairs(
                sid, 0, regions.n_frames,
                {p: rng.standard_normal(2) for p in table if (sid, *p) != smallest},
            )
            for sid, table in regions.pairs.items()
        ]
        fractional = {sid: float(rng.uniform(0.2, 2.0)) for sid in regions.source_ids()}
        integer = {sid: float(n + 1) for n, sid in enumerate(regions.source_ids())}
        for weights in (fractional, integer):
            target = GuidanceTarget(references, regions, weights=weights)
            if not target.enforced.any():
                continue
            assert target.weight[regions.rows.index(smallest)] == 0.0
            root = np.sqrt(target.weight)
            want = 1.0 / (2.0 * np.linalg.eigvalsh(root[:, None] * regions.gram * root).max())
            assert stable_step_size(target) == pytest.approx(want, rel=1e-2), k
            checked += 1
    assert checked >= 20


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
    target = GuidanceTarget(references, regions, weights=weights)

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

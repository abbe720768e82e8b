import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momix
from momix.diffusion import (
    GaussianAtlasDenoiser,
    NoiseSchedule,
    SamplingGuidance,
    ZeroDenoiser,
    ddim_invert,
    ddim_sample,
    load_trajectory,
    make_initial_noise,
    save_trajectory,
)
from momix.errors import BadValue, DimMismatch, NonFinite
from momix.features import (
    EditPlan,
    MotionDescriptor,
    PairOperator,
    extract_descriptors,
    recompose,
)
from momix.guidance import GuidanceConfig, GuidanceTarget
from momix.synth import BlobSpec, SceneSpec, render_scene
from momix.tensors import LatentVideo


def test_schedule_invariants():
    sched = NoiseSchedule.default(n_steps=20)
    ab = sched.alpha_bar
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert np.all(ab > 0)
    # high powers stay strictly decreasing thanks to the affine floor
    sched4 = NoiseSchedule.default(n_steps=30, power=6.0)
    assert np.all(np.diff(sched4.alpha_bar) < 0)
    with pytest.raises(BadValue):
        NoiseSchedule(np.array([1.0, 0.5, 0.5]))
    with pytest.raises(BadValue):
        NoiseSchedule(np.array([0.9, 0.5]))


def _latents(seed=0, shape=(3, 2, 8, 8)):
    rng = np.random.default_rng(seed)
    return LatentVideo(rng.standard_normal(shape))


def test_zero_noise_inversion_closed_form():
    z0 = _latents()
    sched = NoiseSchedule.default(n_steps=12)
    traj = ddim_invert(z0, sched, ZeroDenoiser())
    assert len(traj) == 13
    for t, lat in enumerate(traj):
        want = np.sqrt(sched.alpha_bar[t]) * z0.data
        assert np.max(np.abs(lat.data - want)) < 1e-12


def test_zero_steps_trajectory_is_z0():
    z0 = _latents()
    sched = NoiseSchedule.default(n_steps=0)
    traj = ddim_invert(z0, sched, ZeroDenoiser())
    assert len(traj) == 1
    assert np.array_equal(traj[0].data, z0.data)


def test_zero_noise_sampling_inverts_inversion():
    z0 = _latents(seed=1)
    sched = NoiseSchedule.default(n_steps=10)
    traj = ddim_invert(z0, sched, ZeroDenoiser())
    back = ddim_sample(traj[-1], sched, ZeroDenoiser())
    assert np.max(np.abs(back.data - z0.data)) < 1e-12


def test_zero_noise_sampling_closed_form():
    # the whole reverse recursion collapses to z0 = zT / sqrt(alpha_bar[T])
    zT = _latents(seed=5)
    sched = NoiseSchedule.default(n_steps=7)
    out = ddim_sample(zT, sched, ZeroDenoiser())
    want = zT.data / np.sqrt(sched.alpha_bar[-1])
    assert np.max(np.abs(out.data - want)) < 1e-9


def _atlas_pair():
    n = 6
    spec_a = SceneSpec(
        n_frames=n, n_channels=2, height=24, width=24,
        blobs=(BlobSpec("A", tuple((8.0, 4.0 + 3.0 * f) for f in range(n)), 3.0, (0, 6.0)),),
        texture_seed=3, texture_amplitude=0.6,
    )
    spec_b = SceneSpec(
        n_frames=n, n_channels=2, height=24, width=24,
        blobs=(BlobSpec("A", tuple((16.0, 20.0 - 3.0 * f) for f in range(n)), 3.0, (0, 6.0)),),
        texture_seed=4, texture_amplitude=0.6,
    )
    return render_scene(spec_a)[0], render_scene(spec_b)[0]


def test_atlas_round_trip_on_members():
    a, b = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=20)
    den = GaussianAtlasDenoiser([a, b], sched, bandwidth=0.5)
    for member in (a, b):
        traj = ddim_invert(member, sched, den)
        back = ddim_sample(traj[-1], sched, den)
        assert np.max(np.abs(back.data - member.data)) < 1e-3


def _direct_posterior(members, z, ab, bandwidth):
    """The posterior mean from the (K, N) difference tensor, as first written."""
    c = np.sqrt(ab)
    var = ab * bandwidth**2 + (1.0 - ab)
    diffs = (z[None] - c * members).reshape(len(members), -1)
    logw = -np.einsum("kn,kn->k", diffs, diffs) / (2.0 * var)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = np.einsum("k,k...->...", w, members)
    return mean + c * bandwidth**2 / var * (z - c * mean), w


def test_posterior_mean_matches_direct_formula():
    a, b = _atlas_pair()
    members = np.stack([a.data, b.data])
    sched = NoiseSchedule.default(n_steps=20)
    den = GaussianAtlasDenoiser([a, b], sched, bandwidth=0.5)
    noisy = a.data + 0.3 * np.random.default_rng(0).standard_normal(a.shape)
    spread = 0.0
    for z in (a.data, noisy, 0.5 * (a.data + b.data)):
        for t in range(sched.n_steps + 1):
            want, w = _direct_posterior(members, z, sched.alpha_bar[t], 0.5)
            got = den.posterior_mean(z, t)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), t
            spread = max(spread, w.min())
    # the midpoint does reach mixed weights, where the expanded norms cancel most
    assert spread > 0.1


# 17 members of 100,820 cells: OpenBLAS 0.3.31 splits both gemv sums differently at
# 1 and 2 threads for this size (3 members it does not), and the members sit close
# enough together that the weights are mixed.
_THREAD_PROBE = """
import hashlib
import numpy as np
from momix.diffusion import GaussianAtlasDenoiser, NoiseSchedule
from momix.tensors import LatentVideo

rng = np.random.default_rng(11)
base = rng.standard_normal((5, 4, 71, 71))
atlas = [LatentVideo(base + 0.01 * rng.standard_normal(base.shape)) for _ in range(17)]
z = base + 0.01 * rng.standard_normal(base.shape)
den = GaussianAtlasDenoiser(atlas, NoiseSchedule.default(n_steps=10))
digest = hashlib.sha256()
for t in range(1, 11):
    digest.update(den.predict_noise(z, t).tobytes())
print(digest.hexdigest())
"""


def test_predict_noise_bytes_do_not_depend_on_blas_threads():
    src = str(Path(momix.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


def test_denoiser_validation():
    a, b = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=5)
    with pytest.raises(BadValue):
        GaussianAtlasDenoiser([], sched)
    with pytest.raises(BadValue):
        GaussianAtlasDenoiser([a], sched, bandwidth=0.0)
    small = LatentVideo(np.zeros((2, 2, 4, 4)))
    with pytest.raises(DimMismatch):
        GaussianAtlasDenoiser([a, small], sched)


class _BlowUpDenoiser:
    def predict_noise(self, latents, t):
        return np.full(latents.shape, np.inf)


def test_non_finite_denoiser_aborts():
    z0 = _latents()
    sched = NoiseSchedule.default(n_steps=4)
    with pytest.raises(NonFinite):
        ddim_invert(z0, sched, _BlowUpDenoiser())


def test_make_initial_noise_modes():
    ref = _latents(seed=2)
    shared = make_initial_noise(ref, mode="shared", seed=9)
    assert shared is ref
    f1 = make_initial_noise(ref, mode="fresh", seed=7)
    f2 = make_initial_noise(ref, mode="fresh", seed=7)
    assert np.array_equal(f1.data, f2.data)
    assert not np.array_equal(f1.data, ref.data)
    with pytest.raises(BadValue):
        make_initial_noise(ref, mode="weird", seed=0)


def test_fresh_noise_statistics():
    ref = LatentVideo(np.zeros((4, 4, 32, 32)))
    z = make_initial_noise(ref, mode="fresh", seed=123).data
    n = z.size
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) <= 0.02


def test_trajectory_archive_round_trip(tmp_path):
    z0 = _latents(seed=3, shape=(2, 1, 6, 6))
    sched = NoiseSchedule.default(n_steps=4)
    traj = ddim_invert(z0, sched, ZeroDenoiser())
    save_trajectory(traj, sched, tmp_path / "traj")
    back, sched2 = load_trajectory(tmp_path / "traj")
    assert sched2.n_steps == 4
    assert np.allclose(sched2.alpha_bar, sched.alpha_bar)
    for a, b in zip(traj, back):
        assert np.array_equal(
            b.data, a.data.astype(np.float32)
        )



@pytest.mark.parametrize(
    "edit",
    [
        lambda ix: ix.update(n_steps=2),  # fewer steps than alpha_bar holds
        lambda ix: ix.update(n_steps=5),  # more steps than alpha_bar holds
        lambda ix: ix["files"].pop("3"),  # a timestep without a file
        lambda ix: ix["files"].update({"9": "t004.cmt"}),  # a file for no timestep
    ],
)
def test_trajectory_index_must_agree_with_itself(tmp_path, edit):
    z0 = _latents(seed=3, shape=(2, 1, 6, 6))
    sched = NoiseSchedule.default(n_steps=4)
    save_trajectory(ddim_invert(z0, sched, ZeroDenoiser()), sched, tmp_path)
    index = json.loads((tmp_path / "index.json").read_text())
    edit(index)
    (tmp_path / "index.json").write_text(json.dumps(index))
    with pytest.raises(BadValue):
        load_trajectory(tmp_path)

def _guided_setup(n_steps=12):
    n = 6
    spec = SceneSpec(
        n_frames=n, n_channels=2, height=24, width=24,
        blobs=(BlobSpec("A", tuple((8.0, 4.0 + 3.0 * f) for f in range(n)), 3.0, (0, 2.5)),),
        texture_seed=3, texture_amplitude=0.6,
    )
    lat, tracks, _ = render_scene(spec)
    sched = NoiseSchedule.default(n_steps=n_steps)
    den = GaussianAtlasDenoiser([lat], sched, bandwidth=0.5)
    inv = ddim_invert(lat, sched, den)
    config = GuidanceConfig(n_inner_steps=4)
    refs_by_t = {
        t: recompose(extract_descriptors(inv[t], tracks, timestep=t), EditPlan())
        for t in range(1, n_steps + 1)
    }
    masks = {t.subject_id: t for t in tracks}
    from momix.masks import background_track

    masks["background"] = background_track(tracks)
    regions = PairOperator(masks)
    targets = {t: GuidanceTarget(refs, regions) for t, refs in refs_by_t.items()}
    return lat, sched, den, inv, config, targets


def test_guided_sampling_trace_monotone_within_timesteps():
    lat, sched, den, inv, config, targets = _guided_setup()
    guidance = SamplingGuidance(config=config, targets=targets)
    out = ddim_sample(inv[-1], sched, den, guidance=guidance)
    assert guidance.trace, "guidance should have produced a trace"
    by_t = {}
    for entry in guidance.trace:
        by_t.setdefault(entry["timestep"], []).append((entry["inner_step"], entry["loss"]))
    for t, entries in by_t.items():
        losses = [loss for _, loss in sorted(entries)]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
    # reconstruction stays faithful under self-guidance from the shared init
    assert np.max(np.abs(out.data - lat.data)) < 1e-2


def test_guidance_toward_zero_deltas_yields_static_stats():
    # static atlas + zero reference deltas: the sampled video's descriptors vanish
    n = 6
    static = SceneSpec(
        n_frames=n, n_channels=2, height=24, width=24,
        blobs=(BlobSpec("A", tuple((12.0, 12.0) for _ in range(n)), 3.0, (0, 2.5)),),
        texture_seed=5, texture_amplitude=0.6,
    )
    lat, tracks, _ = render_scene(static)
    n_steps = 12
    sched = NoiseSchedule.default(n_steps=n_steps)
    den = GaussianAtlasDenoiser([lat], sched, bandwidth=0.5)
    inv = ddim_invert(lat, sched, den)
    masks = {t.subject_id: t for t in tracks}
    from momix.masks import background_track

    masks["background"] = background_track(tracks)
    regions = PairOperator(masks)
    zero_refs = [
        MotionDescriptor.from_forward_pairs(
            sid, 0, n, {p: np.zeros(2) for p in regions.pairs[sid]}
        )
        for sid in regions.source_ids()
    ]
    target = GuidanceTarget(zero_refs, regions)
    config = GuidanceConfig(n_inner_steps=200)
    guidance = SamplingGuidance(
        config=config, targets={t: target for t in range(1, n_steps + 1)}
    )
    out = ddim_sample(
        make_initial_noise(inv[-1], mode="fresh", seed=11), sched, den, guidance=guidance
    )
    descs = extract_descriptors(out, tracks, timestep=0)
    for d in descs:
        for i, j in d.forward_pairs():
            assert np.linalg.norm(d.delta(i, j)) <= 1e-3


def test_determinism_bitwise():
    lat, sched, den, inv, config, targets = _guided_setup(n_steps=8)
    g1 = SamplingGuidance(config=config, targets=targets)
    g2 = SamplingGuidance(config=config, targets=targets)
    out1 = ddim_sample(inv[-1], sched, den, guidance=g1)
    out2 = ddim_sample(inv[-1], sched, den, guidance=g2)
    assert out1.data.tobytes() == out2.data.tobytes()


def test_sampler_guides_exactly_at_the_target_timesteps():
    lat, sched, den, inv, config, targets = _guided_setup(n_steps=8)
    guidance = SamplingGuidance(config=config, targets={t: targets[t] for t in (1, 5, 8)})
    ddim_sample(inv[-1], sched, den, guidance=guidance)
    assert sorted({e["timestep"] for e in guidance.trace}) == [1, 5, 8]
    assert len(guidance.trace) == 3 * (config.n_inner_steps + 1)

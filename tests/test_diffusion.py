import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momix
from momix import diffusion
from momix import pipeline as pl
from momix.diffusion import (
    GaussianAtlasDenoiser,
    NoiseSchedule,
    SamplingGuidance,
    ZeroDenoiser,
    _ddim_step,
    ddim_invert,
    ddim_invert_steps,
    ddim_sample,
    make_initial_noise,
    read_trajectory_index,
    trajectory_path,
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
from momix.tensors import LatentVideo, SceneManifest, load_tensor, save_tensor


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


def _evaluate(form, z):
    """The array a z + sum c_k v_k of an affine form, summed in term order."""
    a, terms = form
    out = a * z
    for ck, v in terms:
        out = out + ck * v
    return out


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
            got = _evaluate(den.posterior_mean(z, t), z)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), t
            spread = max(spread, w.min())
    # the midpoint does reach mixed weights, where the expanded norms cancel most
    assert spread > 0.1


def _oracle_weights(den, z, t):
    """The softmax weights over every member, written out with temporaries."""
    flat = den.members.reshape(len(den.members), -1)
    sq_norms = np.einsum("kn,kn->k", flat, flat)
    ab = float(den.schedule.alpha_bar[t])
    c = np.sqrt(ab)
    var = ab * den.bandwidth**2 + (1.0 - ab)
    d2 = ab * sq_norms - 2.0 * c * np.einsum("kn,n->k", flat, z.reshape(-1))
    logw = -d2 / (2.0 * var)
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    return w


def _oracle_mean(den, w, shape):
    """sum w_k m_k over the members of non-zero weight, in member order."""
    mean_member = np.zeros(int(np.prod(shape)))
    for k in np.flatnonzero(w):
        mean_member += w[k] * den.members[k].reshape(-1)
    return mean_member.reshape(shape)


def _oracle_posterior_mean(den, z, t):
    """The posterior mean as an array, as first written."""
    ab = float(den.schedule.alpha_bar[t])
    c = np.sqrt(ab)
    var = ab * den.bandwidth**2 + (1.0 - ab)
    mean_member = _oracle_mean(den, _oracle_weights(den, z, t), z.shape)
    shrink = c * den.bandwidth**2 / var
    return mean_member + shrink * (z - c * mean_member)


def _oracle_predict_noise(den, z, t):
    ab = float(den.schedule.alpha_bar[t])
    rem = 1.0 - ab
    if rem <= 1e-12:
        return np.zeros(z.shape)
    x_hat = _oracle_posterior_mean(den, z, t)
    return (z - np.sqrt(ab) * x_hat) / np.sqrt(rem)


def _multipass_ddim_step(eps, z, ab, t, t_next):
    """The DDIM step from the noise array, as first written: x0_hat, then the move."""
    x0_hat = (z - np.sqrt(1.0 - ab[t]) * eps) / np.sqrt(ab[t])
    return np.sqrt(ab[t_next]) * x0_hat + np.sqrt(1.0 - ab[t_next]) * eps


def _oracle_mean_form(den, z, t):
    """The posterior mean's affine form s z + (1 - c s) sum w_k m_k, with temporaries.

    Each member of non-zero weight is a term, in member order.
    """
    ab = float(den.schedule.alpha_bar[t])
    c = np.sqrt(ab)
    var = ab * den.bandwidth**2 + (1.0 - ab)
    w = _oracle_weights(den, z, t)
    shrink = c * den.bandwidth**2 / var
    keep = 1.0 - c * shrink
    return shrink, tuple((keep * w[k], den.members[k]) for k in np.flatnonzero(w))


def _oracle_noise_form(den, z, t):
    """eps = (z - sqrt(ab) x_hat) / sqrt(1 - ab) as an affine form."""
    ab = float(den.schedule.alpha_bar[t])
    rem = 1.0 - ab
    if rem <= 1e-12:
        return 0.0, ()
    s, terms = _oracle_mean_form(den, z, t)
    c, root = np.sqrt(ab), np.sqrt(rem)
    return (1.0 - c * s) / root, tuple((-c * ck / root, v) for ck, v in terms)


def _oracle_ddim_step(den, z, ab, t, t_next):
    """(A + B a) z + sum B c_k v_k, with the scalars and the sum written out."""
    a, terms = _oracle_noise_form(den, z, t)
    scale = np.sqrt(ab[t_next]) / np.sqrt(ab[t])
    mix = np.sqrt(1.0 - ab[t_next]) - scale * np.sqrt(1.0 - ab[t])
    out = (scale + mix * a) * z
    for ck, v in terms:
        out = out + (mix * ck) * v
    return out


def _assert_same_form(got, want):
    """The same scalars and arrays, byte for byte and in the same order."""
    (a, terms), (a_want, terms_want) = got, want
    assert np.float64(a).tobytes() == np.float64(a_want).tobytes()
    assert len(terms) == len(terms_want)
    for (ck, v), (ck_want, v_want) in zip(terms, terms_want):
        assert np.float64(ck).tobytes() == np.float64(ck_want).tobytes()
        assert v.tobytes() == v_want.tobytes()


def test_in_place_arithmetic_matches_the_written_out_formulas_byte_for_byte(monkeypatch):
    a, b = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=20)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser([a, b], sched, bandwidth=0.5)
    noisy = a.data + 0.3 * np.random.default_rng(0).standard_normal(a.shape)
    for z in (a.data, noisy, 0.5 * (a.data + b.data)):
        for t in range(sched.n_steps + 1):
            _assert_same_form(den.posterior_mean(z, t), _oracle_mean_form(den, z, t))
            _assert_same_form(den.predict_noise(z, t), _oracle_noise_form(den, z, t))
            for t_next in (t - 1, t + 1):
                if 0 <= t_next <= sched.n_steps:
                    got = _ddim_step(den, z, ab, t, t_next)
                    assert got.tobytes() == _oracle_ddim_step(den, z, ab, t, t_next).tobytes()
    z = noisy.copy()
    traj = ddim_invert(LatentVideo(noisy), sched, den)
    for t in range(sched.n_steps):
        z = _oracle_ddim_step(den, z, ab, t, t + 1)
        assert traj[t + 1].data.tobytes() == z.tobytes(), t
    for t in range(sched.n_steps, 0, -1):
        z = _oracle_ddim_step(den, z, ab, t, t - 1)
    assert ddim_sample(traj[-1], sched, den).data.tobytes() == z.tobytes()
    # blocks of 1,001 cells: the 6,912 cells span seven, the last one partial, and
    # each step writes over its own input
    monkeypatch.setattr(diffusion, "_BLOCK", 1001)
    assert diffusion._block_buffer(a.data.size).shape == (2, 1001)
    term_counts = set()
    for z in (a.data, noisy, 0.5 * (a.data + b.data)):
        for t in range(sched.n_steps + 1):
            term_counts.add(len(den.predict_noise(z, t)[1]))
            for t_next in (t - 1, t + 1):
                if 0 <= t_next <= sched.n_steps:
                    got = np.array(z)
                    _ddim_step(den, got, ab, t, t_next, out=got)
                    assert got.tobytes() == _oracle_ddim_step(den, z, ab, t, t_next).tobytes()
    assert term_counts == {0, 1, 2}  # two terms are all the members
    blow_up = _KeptBuffer(a.shape)
    blow_up.buffer.reshape(-1)[-1] = np.inf  # the one non-finite cell, in the partial block
    with pytest.raises(NonFinite):
        _ddim_step(blow_up, np.array(a.data), ab, 3, 2)


def _multipass_chain(den, z, ab, eps_of, in_place=False):
    """Inversion to the end, then sampling back: each affine step against the first formula.

    The steps carry one run's bounds, as the samplers do, and with ``in_place``
    each writes over its input, as sampling does. Returns the largest
    difference of a step relative to the largest magnitude the first formula
    gives.
    """
    n_steps = len(ab) - 1
    worst = 0.0
    moves = [(t, t + 1) for t in range(n_steps)] + [(t, t - 1) for t in range(n_steps, 0, -1)]
    bounds = diffusion._carried_bounds(den)
    for t, t_next in moves:
        want = _multipass_ddim_step(eps_of(z, t), z, ab, t, t_next)
        got = _ddim_step(den, z, ab, t, t_next, out=z if in_place else None, bounds=bounds)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        z = got
    return worst


@pytest.mark.parametrize("atlas", ["zero", "two-members", "twelve-members",
                                   "twelve-members-in-1001-cell-blocks"])
def test_affine_step_matches_the_multipass_formula(atlas, monkeypatch):
    sched = NoiseSchedule.default(n_steps=30)
    in_blocks = atlas.endswith("blocks")
    if in_blocks:
        # 18,432 cells span nineteen blocks, the last one partial; the steps keep
        # no member, one, or all twelve, and write over their input
        monkeypatch.setattr(diffusion, "_BLOCK", 1001)
    if atlas == "zero":
        den, z0 = ZeroDenoiser(), _latents(seed=4).data
        eps_of = lambda z, t: np.zeros(z.shape)  # noqa: E731
    else:
        members = list(_atlas_pair()) if atlas == "two-members" else _separated_atlas()
        den = GaussianAtlasDenoiser(members, sched)
        z0 = members[0].data + 0.3 * np.random.default_rng(2).standard_normal(members[0].shape)
        eps_of = lambda z, t: _oracle_predict_noise(den, z, t)  # noqa: E731
    assert _multipass_chain(den, z0, sched.alpha_bar, eps_of, in_place=in_blocks) <= 1e-13
    if atlas.startswith("twelve-members"):
        assert den.certified_members > 0


class _ReadOnlyNoise:
    """Returns the atlas denoiser's noise form with its arrays marked read-only."""

    def __init__(self, inner):
        self.inner = inner

    def predict_noise(self, z, t):
        a, terms = self.inner.predict_noise(z, t)
        for _, v in terms:
            v.setflags(write=False)
        return a, terms


class _KeptBuffer:
    """Returns the one buffer it keeps on every call."""

    def __init__(self, shape):
        self.buffer = np.linspace(-0.5, 0.5, int(np.prod(shape))).reshape(shape)

    def predict_noise(self, z, t):
        return 0.0, ((1.0, self.buffer),)


def test_ddim_writes_neither_the_latents_nor_the_denoisers_arrays():
    a, b = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=8)
    kept = _KeptBuffer(a.shape)
    kept_bytes = kept.buffer.tobytes()
    for den in (_ReadOnlyNoise(GaussianAtlasDenoiser([a, b], sched)), kept):
        z = np.array(a.data)  # writable, unlike a LatentVideo's buffer
        for t, t_next in ((3, 4), (4, 3)):
            _ddim_step(den, z, sched.alpha_bar, t, t_next)
            assert z.tobytes() == a.data.tobytes()
        traj = ddim_invert(a, sched, den)
        snapshot = [lat.data.tobytes() for lat in traj]
        ddim_sample(traj[-1], sched, den)
        assert [lat.data.tobytes() for lat in traj] == snapshot
    assert kept.buffer.tobytes() == kept_bytes


class _LatentsAsNoise:
    """Predicts eps = z, either as a term that is z itself or as the scalar alone."""

    def __init__(self, as_term):
        self.as_term = as_term

    def predict_noise(self, z, t):
        return (0.0, ((1.0, z),)) if self.as_term else (1.0, ())


def test_sampling_reads_a_noise_term_that_is_the_latents_themselves():
    # a step that wrote into its input latents would change such a term before reading it
    zT = _latents(seed=6)
    sched = NoiseSchedule.default(n_steps=6)
    got = ddim_sample(zT, sched, _LatentsAsNoise(as_term=True)).data
    want = ddim_sample(zT, sched, _LatentsAsNoise(as_term=False)).data
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# 17 members of 100,820 cells: OpenBLAS 0.3.31 splits both gemv sums differently at
# 1 and 2 threads for this size (3 members it does not), and the members sit close
# enough together that the weights are mixed. The probe hashes the noise forms'
# coefficients and terms, then one inversion and one sampling pass over the same
# atlas.
_THREAD_PROBE = """
import hashlib
import numpy as np
from momix.diffusion import GaussianAtlasDenoiser, NoiseSchedule, ddim_invert, ddim_sample
from momix.tensors import LatentVideo

rng = np.random.default_rng(11)
base = rng.standard_normal((5, 4, 71, 71))
atlas = [LatentVideo(base + 0.01 * rng.standard_normal(base.shape)) for _ in range(17)]
z = base + 0.01 * rng.standard_normal(base.shape)
schedule = NoiseSchedule.default(n_steps=10)
den = GaussianAtlasDenoiser(atlas, schedule)
digest = hashlib.sha256()
for t in range(1, 11):
    a, terms = den.predict_noise(z, t)
    digest.update(np.array([a] + [c for c, _ in terms]).tobytes())
    for _, v in terms:
        digest.update(v.tobytes())
trajectory = ddim_invert(LatentVideo(z), schedule, den)
for latents in trajectory:
    digest.update(latents.data.tobytes())
digest.update(ddim_sample(trajectory[-1], schedule, den).data.tobytes())
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


# Certified pruning: a run carries bounds on every <m_k, z> through its DDIM steps,
# and the denoiser skips the members whose weight they certify is 0. These
# atlases draw members far apart over 18,432 cells, a size at which a one-row
# einsum gives other bytes than the batched product, so a wrong certificate or a
# wrongly read row shows up as an output byte.
_SEPARATED_SHAPE = (4, 2, 48, 48)


def _separated_atlas(n_members=12, seed=3):
    rng = np.random.default_rng(seed)
    return [LatentVideo(rng.standard_normal(_SEPARATED_SHAPE)) for _ in range(n_members)]


def test_certified_pruning_matches_the_oracle_through_inversion_and_sampling():
    atlas = _separated_atlas()
    sched = NoiseSchedule.default(n_steps=30)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser(atlas, sched)
    traj = ddim_invert(atlas[0], sched, den)
    z = atlas[0].data.astype(np.float64)
    for t in range(sched.n_steps):
        z = _oracle_ddim_step(den, z, ab, t, t + 1)
        assert traj[t + 1].data.tobytes() == z.tobytes(), t
    inverted = (den.certified_members, den.single_survivor_calls)
    zT = make_initial_noise(traj[-1], mode="fresh", seed=5)
    z = zT.data
    for t in range(sched.n_steps, 0, -1):
        z = _oracle_ddim_step(den, z, ab, t, t - 1)
    assert ddim_sample(zT, sched, den).data.tobytes() == z.tobytes()
    # both directions certify, and some calls read no member for the inner products
    assert 0 < inverted[0] < den.certified_members
    assert 0 < inverted[1] < den.single_survivor_calls
    assert den.member_rows_read < den.calls * len(atlas)


def _still(bounds, terms):
    """Advance the bounds over a DDIM move from t to t: alpha = 1, and beta = 0 for each term."""
    bounds.advance([1.0] + [0.0] * len(terms))


@pytest.mark.parametrize("gap, certified", [(-700.5, False), (-745.2, False), (-790.0, False),
                                            (-900.0, True)])
def test_a_member_near_the_underflow_boundary_is_read(gap, certified):
    # m_1 sits where its max-shifted log-weight at z = c m_0 is ``gap``; exp
    # underflows to 0 below -745.13, but only a gap past -800 may be certified
    atlas = _separated_atlas()
    sched = NoiseSchedule.default(n_steps=20)
    t = 6
    ab = float(sched.alpha_bar[t])
    var = ab * 0.5**2 + (1.0 - ab)
    m0 = atlas[0].data
    direction = atlas[1].data - m0
    direction /= np.linalg.norm(direction)
    atlas[1] = LatentVideo(m0 + np.sqrt(2.0 * var * -gap / ab) * direction)
    den = GaussianAtlasDenoiser(atlas, sched, bandwidth=0.5)
    z = np.sqrt(ab) * m0
    d2 = [np.sum((z - np.sqrt(ab) * m.data) ** 2) for m in atlas[:2]]
    assert abs((d2[0] - d2[1]) / (2.0 * var) - gap) < 1e-6
    # the first call reads every row; a DDIM move from t to t leaves z as it is
    bounds = diffusion._carried_bounds(den)
    moved = _ddim_step(den, z, sched.alpha_bar, t, t, bounds=bounds)
    assert moved.tobytes() == _oracle_ddim_step(den, z, sched.alpha_bar, t, t).tobytes()
    assert moved.tobytes() == z.tobytes()
    _assert_same_form(den.posterior_mean(moved, t, _bounds=bounds), _oracle_mean_form(den, z, t))
    # so at the second call every far member is certified
    assert den.certified_members == len(atlas) - 1 - (not certified)
    assert den.single_survivor_calls == int(certified)


def test_certified_pruning_matches_the_oracle_for_any_call_sequence():
    atlas = _separated_atlas()
    sched = NoiseSchedule.default(n_steps=20)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser(atlas, sched)
    rng = np.random.default_rng(8)

    def check(z, t):
        _assert_same_form(den.posterior_mean(z, t), _oracle_mean_form(den, z, t))

    # direct calls carry nothing from one call to the next, so each reads every
    # row: unrelated latents in turn, at unrelated timesteps
    for t in (3, 17, 1, 1, 9):
        check(rng.standard_normal(_SEPARATED_SHAPE), t)
        check(0.9 * atlas[2].data, t)
        check(atlas[5].data + 0.1 * rng.standard_normal(_SEPARATED_SHAPE), t)
    # and a caller that reuses one buffer and rewrites it in place after each call
    z = np.array(atlas[4].data)
    for t, nearest in ((2, 4), (2, 4), (2, 7), (5, 7), (5, 3), (1, 3)):
        z[...] = atlas[nearest].data
        check(z, t)
        check(z, t)
    assert den.certified_members == den.single_survivor_calls == 0
    assert den.member_rows_read == den.calls * len(atlas)
    # one run's bounds follow DDIM moves up, down and across the schedule
    bounds = diffusion._carried_bounds(den)
    z = atlas[5].data + 0.1 * rng.standard_normal(_SEPARATED_SHAPE)
    for t, t_next in ((0, 3), (3, 17), (17, 1), (1, 1), (1, 9), (9, 20), (20, 2), (2, 2)):
        want = _oracle_ddim_step(den, z, ab, t, t_next)
        z = _ddim_step(den, z, ab, t, t_next, bounds=bounds)
        assert z.tobytes() == want.tobytes(), (t, t_next)
    assert den.certified_members > 0 and den.single_survivor_calls > 0


@pytest.mark.parametrize("spread, n_members", [(1.0, 12), (0.01, 6), (0.01, 12)],
                         ids=["separated", "mixed-member-terms", "mixed-twelve-members"])
def test_the_carried_bounds_hold_along_a_run(spread, n_members):
    # |est_k - <m_k, z>| <= err ||m_k|| and ||z|| <= znorm after every step, with
    # the inner products and norms taken in extended precision; members 0.01
    # apart keep the weights mixed, members far apart let the run certify
    base = np.random.default_rng(5).standard_normal(_SEPARATED_SHAPE)
    atlas = [LatentVideo((1.0 - spread) * base + spread * m.data)
             for m in _separated_atlas(n_members)]
    sched = NoiseSchedule.default(n_steps=20)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser(atlas, sched)
    flat = den.members.reshape(n_members, -1).astype(np.longdouble)
    norms = np.sqrt(np.einsum("kn,kn->k", flat, flat))
    bounds = diffusion._carried_bounds(den)
    z = atlas[0].data + 0.2 * np.random.default_rng(4).standard_normal(_SEPARATED_SHAPE)
    moves = [(t, t + 1) for t in range(sched.n_steps)] + [(t, t - 1) for t in range(20, 0, -1)]
    for t, t_next in moves:
        z = _ddim_step(den, z, ab, t, t_next, bounds=bounds)
        if bounds.est is not None:
            zl = z.reshape(-1).astype(np.longdouble)
            ip = np.einsum("kn,n->k", flat, zl)
            assert np.all(np.abs(bounds.est - ip) <= bounds.err * norms), t_next
            assert np.sqrt(np.einsum("n,n->", zl, zl)) <= bounds.znorm, t_next
    assert (den.certified_members > 0) == (spread == 1.0)


def test_the_gram_is_symmetric_and_within_the_bounds_allowance():
    # the lower triangle, row by row, differs from the full product only within
    # the allowance the carried bounds take for it
    den = GaussianAtlasDenoiser(_separated_atlas(), NoiseSchedule.default(n_steps=4))
    flat = den.members.reshape(len(den.members), -1)
    full = np.einsum("kn,ln->kl", flat, flat)
    assert np.array_equal(den._gram, den._gram.T)
    assert np.all(np.abs(den._gram - full) <= den._gam * np.outer(den._norms, den._norms))


def test_each_run_carries_its_own_bounds():
    # two inversions advanced in turn over one denoiser: bounds kept on the
    # denoiser would certify one run's members from the other run's latents
    atlas = _separated_atlas()
    sched = NoiseSchedule.default(n_steps=20)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser(atlas, sched)
    starts = [atlas[2].data, atlas[9].data]
    runs = [ddim_invert_steps(LatentVideo(z0), sched, den) for z0 in starts]
    want = [np.array(z0) for z0 in starts]
    for t in range(sched.n_steps + 1):
        for k, run in enumerate(runs):
            if t > 0:
                want[k] = _oracle_ddim_step(den, want[k], ab, t - 1, t)
            assert next(run).tobytes() == want[k].tobytes(), (k, t)
    assert den.certified_members > 0


def test_guided_sampling_drops_the_bounds_at_each_guided_update(monkeypatch):
    # each guided update adds a member to z, which makes that member the nearest:
    # bounds carried across the update would certify the members of the old z
    atlas = _separated_atlas()
    sched = NoiseSchedule.default(n_steps=16)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser(atlas, sched)
    monkeypatch.setattr(diffusion, "guided_update",
                        lambda z, k, config: (z + atlas[k].data, [0.0]))
    targets = {12: 3, 7: 8, 6: 1}
    zT = make_initial_noise(LatentVideo(atlas[0].data), mode="fresh", seed=2)
    z = zT.data
    for t in range(sched.n_steps, 0, -1):
        if t in targets:
            z, _ = diffusion.guided_update(z, targets[t], None)
        z = _oracle_ddim_step(den, z, ab, t, t - 1)
    guidance = SamplingGuidance(config=GuidanceConfig(), targets=targets)
    assert ddim_sample(zT, sched, den, guidance=guidance).data.tobytes() == z.tobytes()
    assert den.certified_members > 0
    assert [e["timestep"] for e in guidance.trace] == [12, 7, 6]


@pytest.mark.parametrize("where", ["latent", "member"])
def test_an_overflowing_bound_skips_no_member(where):
    # a cell of 1e160 leaves every product of the weights finite, but its square,
    # and with it ||z|| or ||m_k|| and the bounds, overflows
    atlas = _separated_atlas()
    z0 = np.array(atlas[0].data)
    if where == "latent":
        z0.reshape(-1)[0] = 1e160
    else:
        member = np.array(atlas[7].data)
        member.reshape(-1)[0] = 1e160
        atlas[7] = LatentVideo(member)
    sched = NoiseSchedule.default(n_steps=12)
    ab = sched.alpha_bar
    den = GaussianAtlasDenoiser(atlas, sched)
    traj = ddim_invert(LatentVideo(z0), sched, den)
    z = z0
    for t in range(sched.n_steps):
        z = _oracle_ddim_step(den, z, ab, t, t + 1)
        assert traj[t + 1].data.tobytes() == z.tobytes(), t
    for t in range(sched.n_steps, 0, -1):
        z = _oracle_ddim_step(den, z, ab, t, t - 1)
    assert ddim_sample(traj[-1], sched, den).data.tobytes() == z.tobytes()
    assert den.certified_members == den.single_survivor_calls == 0
    assert den.member_rows_read == den.calls * len(atlas)


def _clustered_atlas_with_signed_zeros():
    """12 members: 0, 1 and 3 close together, every other one far away.

    Cell 0 is -0.0 in every member; cell 1 is -0.0 in member 0 alone.
    """
    rng = np.random.default_rng(21)
    base = rng.standard_normal(_SEPARATED_SHAPE)
    atlas = [50.0 * rng.standard_normal(_SEPARATED_SHAPE) for _ in range(12)]
    for k in (0, 1, 3):
        atlas[k] = base + 0.01 * rng.standard_normal(_SEPARATED_SHAPE)
    for k, member in enumerate(atlas):
        member.reshape(-1)[0] = -0.0
        if k == 0:
            member.reshape(-1)[1] = -0.0
    return base, [LatentVideo(m) for m in atlas]


def test_the_form_terms_are_the_members_of_non_zero_weight():
    # twelve members, a zero weight between two non-zero ones: the terms skip it
    base, atlas = _clustered_atlas_with_signed_zeros()
    sched = NoiseSchedule.default(n_steps=20)
    den = GaussianAtlasDenoiser(atlas, sched)
    t = 6
    z = np.sqrt(sched.alpha_bar[t]) * base
    bounds = diffusion._carried_bounds(den)
    for _ in range(3):  # the first call reads every row; the later ones certify
        w = _oracle_weights(den, z, t)
        kept = np.flatnonzero(w)
        assert kept.size >= 2 and np.any(w[kept[0]:kept[-1] + 1] == 0.0)
        form = den.posterior_mean(z, t, _bounds=bounds)
        _assert_same_form(form, _oracle_mean_form(den, z, t))
        for k, (_, v) in zip(kept, form[1], strict=True):
            assert np.shares_memory(v, den.members[k])
            assert not v.flags.writeable
        _still(bounds, form[1])
    # the first call reads all 12 rows; the next two certify 9 members each and read 4
    assert (den.calls, den.certified_members, den.member_rows_read,
            den.single_survivor_calls) == (3, 18, 20, 0)


def test_a_lone_survivors_mean_is_its_own_member_row():
    _, atlas = _clustered_atlas_with_signed_zeros()
    sched = NoiseSchedule.default(n_steps=20)
    den = GaussianAtlasDenoiser(atlas, sched)
    t = 6
    z = np.sqrt(sched.alpha_bar[t]) * atlas[5].data
    bounds = diffusion._carried_bounds(den)
    for _ in range(2):  # the second call certifies every member but the nearest
        _, ((_, mean),) = den.posterior_mean(z, t, _bounds=bounds)
        _still(bounds, [mean])
    assert np.shares_memory(mean, den.members[5])
    assert not mean.flags.writeable
    assert mean.tobytes() == den.members[5].tobytes()  # its -0.0 included
    assert np.array_equal(mean, _oracle_mean(den, _oracle_weights(den, z, t), z.shape))
    assert (den.calls, den.certified_members, den.member_rows_read,
            den.single_survivor_calls) == (2, 11, 12, 1)


# A separated 12-member atlas of 100,820 cells, a size at which OpenBLAS splits
# its sums differently at 1 and 2 threads; the probe prints the output digest,
# then the certified count and the rows read, which no BLAS product may move.
_CERTIFIED_THREAD_PROBE = """
import hashlib
import numpy as np
from momix.diffusion import (GaussianAtlasDenoiser, NoiseSchedule, ddim_invert, ddim_sample,
                             make_initial_noise)
from momix.tensors import LatentVideo

rng = np.random.default_rng(12)
atlas = [LatentVideo(rng.standard_normal((5, 4, 71, 71))) for _ in range(12)]
schedule = NoiseSchedule.default(n_steps=12)
den = GaussianAtlasDenoiser(atlas, schedule)
digest = hashlib.sha256()
trajectory = ddim_invert(atlas[0], schedule, den)
for latents in trajectory:
    digest.update(latents.data.tobytes())
zT = make_initial_noise(trajectory[-1], mode="fresh", seed=1)
digest.update(ddim_sample(zT, schedule, den).data.tobytes())
print(digest.hexdigest(), den.certified_members, den.member_rows_read)
"""


def test_certified_pruning_bytes_do_not_depend_on_blas_threads():
    src = str(Path(momix.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _CERTIFIED_THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digest, certified, rows_read = done.stdout.split()
        assert int(certified) > 0
        outputs.add((digest, certified, rows_read))
    assert len(outputs) == 1, outputs


def test_denoiser_validation():
    a, b = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=5)
    with pytest.raises(BadValue):
        GaussianAtlasDenoiser([], sched)
    with pytest.raises(BadValue):
        GaussianAtlasDenoiser([a], sched, bandwidth=0.0)
    with pytest.raises(BadValue, match="finite"):
        GaussianAtlasDenoiser([a], sched, bandwidth=float("inf"))
    small = LatentVideo(np.zeros((2, 2, 4, 4)))
    with pytest.raises(DimMismatch):
        GaussianAtlasDenoiser([a, small], sched)
    stack = np.stack([a.data, b.data])
    with pytest.raises(BadValue):
        GaussianAtlasDenoiser(stack[:0], sched)
    for bad in (stack.astype(np.float32), stack[0], stack[:, :, :, ::2]):
        with pytest.raises(DimMismatch, match="C-ordered float64"):
            GaussianAtlasDenoiser(bad, sched)


def test_a_stacked_atlas_is_kept_uncopied_and_denoises_like_the_list():
    a, b = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=8)
    stack = np.stack([a.data, b.data])
    den = GaussianAtlasDenoiser(stack, sched)
    assert den.members is stack and not stack.flags.writeable
    listed = GaussianAtlasDenoiser([a, b], sched)
    z = 0.5 * (a.data + b.data)
    for t in range(sched.n_steps + 1):
        _assert_same_form(den.predict_noise(z, t), listed.predict_noise(z, t))


class _BlowUpDenoiser:
    def predict_noise(self, latents, t):
        return 0.0, ((1.0, np.full(latents.shape, np.inf)),)


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


def _scene_of(z0: LatentVideo, scene_dir) -> SceneManifest:
    """A scene on disk that holds ``z0`` (as float32) and no masks."""
    scene_dir.mkdir()
    save_tensor(z0, scene_dir / "latents_t0.cmt")
    return SceneManifest(*z0.shape, latents={"0": "latents_t0.cmt"}, root=scene_dir)


def test_trajectory_archive_round_trip(tmp_path):
    # run_invert yields the whole trajectory and archives z_T alone
    manifest = _scene_of(_latents(seed=3, shape=(2, 1, 6, 6)), tmp_path / "scene")
    sched = NoiseSchedule.default(n_steps=4)
    traj = [z.copy() for z in pl.run_invert(manifest, sched, ZeroDenoiser(), tmp_path / "traj")]
    want = ddim_invert(manifest.load_latent("0"), sched, ZeroDenoiser())
    assert [z.tobytes() for z in traj] == [lat.data.tobytes() for lat in want]
    assert sorted(p.name for p in (tmp_path / "traj").iterdir()) == ["index.json", "t004.cmt"]
    sched2 = read_trajectory_index(tmp_path / "traj")
    assert np.array_equal(sched2.alpha_bar, sched.alpha_bar)
    zT = load_tensor(trajectory_path(tmp_path / "traj", 4))
    assert np.array_equal(zT.data, traj[-1].astype(np.float32))


@pytest.mark.parametrize(
    "edit",
    [
        lambda ix: ix.update(n_steps=2),  # fewer steps than alpha_bar holds
        lambda ix: ix.update(n_steps=5),  # more steps than alpha_bar holds
        lambda ix: ix.update(files={"4": "t004.cmt"}),  # the map of an archive of every latent
        lambda ix: ix["alpha_bar"].reverse(),  # a schedule that does not start at 1
    ],
)
def test_trajectory_index_must_agree_with_itself(tmp_path, edit):
    manifest = _scene_of(_latents(seed=3, shape=(2, 1, 6, 6)), tmp_path / "scene")
    sched = NoiseSchedule.default(n_steps=4)
    for _ in pl.run_invert(manifest, sched, ZeroDenoiser(), tmp_path):
        pass
    index = json.loads((tmp_path / "index.json").read_text())
    edit(index)
    (tmp_path / "index.json").write_text(json.dumps(index))
    with pytest.raises(BadValue):
        read_trajectory_index(tmp_path)


def test_invert_steps_yield_the_trajectory_read_only():
    # one read-only view of the generator's one buffer, at every step; ddim_invert
    # keeps a copy of each, and its copies equal a fresh run's
    z0, _ = _atlas_pair()
    sched = NoiseSchedule.default(n_steps=5)
    den = GaussianAtlasDenoiser(list(_atlas_pair()), sched)
    views, seen = [], []
    for z in ddim_invert_steps(z0, sched, den):
        assert not z.flags.writeable and not z.flags.owndata
        views.append(z)
        seen.append(z.tobytes())
    assert all(z is views[0] for z in views)
    assert len(set(seen)) == len(seen)
    trajectory = ddim_invert(z0, sched, den)
    assert [lat.data.tobytes() for lat in trajectory] == seen
    assert not any(np.shares_memory(a.data, b.data)
                   for k, a in enumerate(trajectory) for b in trajectory[k + 1:])
    assert [lat.data.tobytes() for lat in ddim_invert(z0, sched, den)] == seen


def test_an_abandoned_invert_stream_leaves_no_index(tmp_path):
    # a rerun removes the old index before its first latent, and writes z_T and
    # the new index only once its consumer has taken the last latent
    manifest = _scene_of(_latents(seed=3, shape=(2, 1, 6, 6)), tmp_path / "scene")
    for _ in pl.run_invert(manifest, NoiseSchedule.default(n_steps=4), ZeroDenoiser(), tmp_path):
        pass
    stream = pl.run_invert(manifest, NoiseSchedule.default(n_steps=5), ZeroDenoiser(), tmp_path)
    assert len([z for _, z in zip(range(6), stream)]) == 6  # t = 0..5, z_T taken, not stored
    stream.close()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene", "t004.cmt"]


def test_atlas_denoiser_rejects_latents_of_another_shape():
    # used to end in an einsum ValueError
    a, b = _atlas_pair()
    den = GaussianAtlasDenoiser([a, b], NoiseSchedule.default(n_steps=5))
    with pytest.raises(DimMismatch, match="do not match atlas members"):
        den.predict_noise(np.zeros((6, 2, 20, 24)), 3)


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


@pytest.mark.parametrize("denoiser", ["zero", "atlas"])
def test_guidance_that_yields_non_finite_latents_aborts(monkeypatch, denoiser):
    lat, sched, den, inv, config, targets = _guided_setup(n_steps=8)
    den = ZeroDenoiser() if denoiser == "zero" else den
    monkeypatch.setattr(
        diffusion, "guided_update", lambda z, target, config: (np.full(z.shape, np.nan), [1.0])
    )
    guidance = SamplingGuidance(config=config, targets={5: targets[5]})
    with pytest.raises(NonFinite, match="guidance produced non-finite latents at t=5"):
        ddim_sample(inv[-1], sched, den, guidance=guidance)


@pytest.mark.parametrize("n_inner_steps", [0, 4])
def test_sampling_leaves_the_callers_latents_unchanged(n_inner_steps):
    lat, sched, den, inv, config, targets = _guided_setup(n_steps=8)
    guidance = SamplingGuidance(config=GuidanceConfig(n_inner_steps=n_inner_steps),
                                targets=targets)
    for zT in (inv[-1], LatentVideo(inv[-1].data.astype(np.float32))):
        before = zT.data.tobytes()
        ddim_sample(zT, sched, den, guidance=guidance)
        ddim_sample(zT, sched, ZeroDenoiser())
        assert zT.data.tobytes() == before
        assert not zT.data.flags.writeable

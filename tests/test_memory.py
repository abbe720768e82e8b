"""Inversion and extraction hold about one latent at a time, whatever n_steps is.

tracemalloc sees numpy's buffers, so its peak over a stage counts the arrays
the stage keeps alive at once. The budgets are in float64 latents of the
scene; a stage that held the whole trajectory would need about n_steps + 1
of them for inversion, and half that for extraction's float32 tensors.
The finite-difference oracle's budget is in perturbation stacks of one
(frame, channel) plane.
"""

import tracemalloc

import numpy as np
import pytest

from momix import pipeline as pl
from momix.diffusion import GaussianAtlasDenoiser, NoiseSchedule, _ddim_step
from momix.gradcheck import _CHUNK, finite_difference_gradient, random_case
from momix.synth import BlobSpec, SceneSpec
from momix.tensors import LatentVideo, load_manifest

N_STEPS = 30
INVERT_BUDGET = 5  # measured 3.6: the step's two buffers plus z0 and the file write
EXTRACT_BUDGET = 3  # measured 1.8
TRACKING_BUFFERS = 3  # above the pruning gate: the last latents, the mean and its scratch row


def _peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def scene(tmp_path):
    n = 6
    spec = SceneSpec(
        n_frames=n, n_channels=3, height=64, width=64,
        blobs=(
            BlobSpec("A", tuple((20.0, 10.0 + 6.0 * f) for f in range(n)), 5.0, (0, 2.5, 0)),
            BlobSpec("B", tuple((44.0, 54.0 - 6.0 * f) for f in range(n)), 5.0, (0, 0, 2.5)),
        ),
        texture_seed=7, texture_amplitude=0.8,
    )
    pl.run_synth(spec, tmp_path / "scene")
    manifest = load_manifest(tmp_path / "scene" / "manifest.json")
    latent_bytes = 8 * n * 3 * 64 * 64
    return manifest, latent_bytes


def _invert(manifest, out_dir):
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    z0 = manifest.load_latent("0")
    denoiser = GaussianAtlasDenoiser([z0, z0], schedule)
    return lambda: pl.run_invert(manifest, schedule, denoiser, out_dir)


def test_invert_peak_does_not_grow_with_n_steps(scene, tmp_path):
    manifest, latent_bytes = scene
    peak = _peak(_invert(manifest, tmp_path / "traj"))
    assert peak < INVERT_BUDGET * latent_bytes, peak / latent_bytes


def test_extract_peak_does_not_grow_with_n_steps(scene, tmp_path):
    manifest, latent_bytes = scene
    _invert(manifest, tmp_path / "traj")()
    peak = _peak(pl.run_extract, tmp_path / "traj", manifest, tmp_path / "desc")
    assert peak < EXTRACT_BUDGET * latent_bytes, peak / latent_bytes


def test_invert_peak_above_the_pruning_gate(scene, tmp_path):
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    z0 = manifest.load_latent("0")
    rng = np.random.default_rng(0)
    atlas = [z0] + [LatentVideo(z0.data + rng.standard_normal(z0.shape)) for _ in range(11)]
    denoiser = GaussianAtlasDenoiser(atlas, schedule)
    peak = _peak(pl.run_invert, manifest, schedule, denoiser, tmp_path / "traj")
    assert denoiser.certified_members > 0
    assert peak < (INVERT_BUDGET + TRACKING_BUFFERS) * latent_bytes, peak / latent_bytes


def test_ddim_step_allocates_two_latent_buffers_below_the_gate(scene):
    # the returned latents and one scratch buffer; the finiteness scan's bool
    # mask is an eighth of a latent
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    z0 = manifest.load_latent("0")
    denoiser = GaussianAtlasDenoiser([z0, z0], schedule)
    z = z0.data.astype(np.float64)
    for t, t_next in ((3, 4), (4, 3), (0, 1), (N_STEPS, N_STEPS - 1)):
        peak = _peak(_ddim_step, denoiser, z, schedule.alpha_bar, t, t_next)
        assert peak <= 2.25 * latent_bytes, (t, peak / latent_bytes)


def test_finite_difference_peak_stays_under_three_plane_stacks():
    # copying the whole latent per perturbed row peaked at 32.9 MB on this case
    case = random_case(np.random.default_rng(0), 4, 4, 16, 16, 3)
    stack_bytes = 2 * _CHUNK * 16 * 16 * 8
    peak = _peak(finite_difference_gradient, case.latents, case.target)
    assert peak < 3 * stack_bytes, peak / stack_bytes

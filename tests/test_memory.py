"""Inversion and extraction hold about one latent at a time, whatever n_steps is.

tracemalloc sees numpy's buffers, so its peak over a stage counts the arrays
the stage keeps alive at once; the modules a first run imports are imported
before it starts, so a test measures the same alone as after others. The
budgets are in float64 latents of the scene; a stage that held the whole
trajectory would need about n_steps + 1 of them for inversion.
An atlas of K members costs K latents, its denoiser's stack, on top: a
stage that held the members a second time, as a list beside the stack,
would need about 2K. The denoiser's noise form reads members in place, so it
adds no latent at any K; the bounds a run carries to skip members are a few
K-vectors.
The finite-difference oracle's budget is in perturbation stacks of one
(frame, channel) plane.
"""

import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  a first run would import it, and hashlib with it, when traced
import pytest

from momix import pipeline as pl
from momix.cli import main
from momix.diffusion import _BLOCK, GaussianAtlasDenoiser, NoiseSchedule, _block_buffer, _ddim_step
from momix.features import compile_sources, extract_descriptors
from momix.gradcheck import _CHUNK, finite_difference_gradient, random_case
from momix.synth import BlobSpec, SceneSpec, scene_to_json
from momix.tensors import LatentVideo, load_manifest

N_STEPS = 30
# measured 2.34 (2.36 with twelve members) for inversion and extraction in one
# pass: the inversion's buffer and block buffer, the operator and the image it
# carries, and z_T's write; holding z0 beside the next step would take half a
# latent more (3.03 when extraction read a float32 cast of each latent)
INVERT_BUDGET = 3.25
EXTRACT_BUDGET = 3  # measured 2.09 over the descriptors of fresh latents, the one in hand counted
ATLAS_BUDGET = 1  # measured 0.63 beside the stack, reading the scene's latents into it
# measured 3.50 (3.56 as a process's first run) beside a 12-member stack, in
# recompose: the sampler's latent and block buffer (0.89 of a latent at 73,728
# cells), a guided update's new latents and the guidance problem; the start
# latent lives only until the sampler has copied it
PIPELINE_BUDGET = 4
ATLAS_VARIANTS = 12  # members rendered besides the scene's own


def _peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _spec(texture_seed=7):
    n = 6
    return SceneSpec(
        n_frames=n, n_channels=3, height=64, width=64,
        blobs=(
            BlobSpec("A", tuple((20.0, 10.0 + 6.0 * f) for f in range(n)), 5.0, (0, 2.5, 0)),
            BlobSpec("B", tuple((44.0, 54.0 - 6.0 * f) for f in range(n)), 5.0, (0, 0, 2.5)),
        ),
        texture_seed=texture_seed, texture_amplitude=0.8,
    )


def _variants(k):
    return [_spec(texture_seed=100 + s) for s in range(k)]


def _noisy_atlas(z0):
    """Twelve members: z0 and eleven noisy copies of it."""
    rng = np.random.default_rng(0)
    return [z0] + [LatentVideo(z0.data + rng.standard_normal(z0.shape)) for _ in range(11)]


@pytest.fixture()
def scene(tmp_path):
    spec = _spec()
    pl.run_synth(spec, tmp_path / "scene")
    manifest = load_manifest(tmp_path / "scene" / "manifest.json")
    latent_bytes = 8 * int(np.prod(spec.latent_shape))
    return manifest, latent_bytes


def _invert_and_extract(manifest, schedule, denoiser, out_dir):
    """The one pass ``momix invert`` makes, writing ``traj`` and ``desc`` under ``out_dir``."""
    stream = pl.run_invert(manifest.load_latent("0"), schedule, denoiser, out_dir / "traj",
                           compile_sources(manifest.latent_shape, manifest.load_masks()))
    pl.run_extract(stream, out_dir / "desc", manifest_path="../scene/manifest.json")


def test_invert_peak_does_not_grow_with_n_steps(scene, tmp_path):
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    z0 = manifest.load_latent("0")
    denoiser = GaussianAtlasDenoiser([z0, z0], schedule)
    peak = _peak(_invert_and_extract, manifest, schedule, denoiser, tmp_path)
    assert peak < INVERT_BUDGET * latent_bytes, peak / latent_bytes


def _fresh_descriptors(manifest, n):
    """``n`` timesteps' descriptors, each of a float64 latent made as it is asked for."""
    operator = compile_sources(manifest.latent_shape, manifest.load_masks())
    for t in range(n):
        z = np.random.default_rng(t).standard_normal(manifest.latent_shape)
        z.setflags(write=False)  # LatentVideo keeps it uncopied
        yield extract_descriptors(LatentVideo(z), (), t, strict=False, operator=operator)


def test_extract_peak_does_not_grow_with_n_steps(scene, tmp_path):
    manifest, latent_bytes = scene
    stream = _fresh_descriptors(manifest, N_STEPS + 1)
    peak = _peak(pl.run_extract, stream, tmp_path / "desc",
                 manifest_path="../scene/manifest.json")
    assert peak < EXTRACT_BUDGET * latent_bytes, peak / latent_bytes


def test_invert_peak_with_twelve_members(scene, tmp_path):
    # twelve members, some of them certified away
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    z0 = manifest.load_latent("0")
    denoiser = GaussianAtlasDenoiser(_noisy_atlas(z0), schedule)
    peak = _peak(_invert_and_extract, manifest, schedule, denoiser, tmp_path)
    assert denoiser.certified_members > 0
    assert peak < INVERT_BUDGET * latent_bytes, peak / latent_bytes


def test_atlas_holds_one_copy_of_its_members(scene, tmp_path):
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    peak = _peak(pl.run_atlas, manifest, _variants(ATLAS_VARIANTS), schedule, tmp_path / "atlas")
    k = ATLAS_VARIANTS + 1
    assert peak < (k + ATLAS_BUDGET) * latent_bytes, peak / latent_bytes


def test_invert_with_atlas_files_holds_one_copy_of_them(scene, tmp_path):
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    pl.run_atlas(manifest, _variants(ATLAS_VARIANTS), schedule, tmp_path / "atlas")
    paths = sorted(str(p) for p in (tmp_path / "atlas").glob("member*.cmt"))
    argv = ["invert", str(manifest.root / "manifest.json"), str(tmp_path / "traj"),
            str(tmp_path / "desc"), "--steps", str(N_STEPS), "--atlas", *paths]
    peak = _peak(main, argv)
    assert len(paths) > 10
    budget = len(paths) + INVERT_BUDGET
    assert peak < budget * latent_bytes, peak / latent_bytes


def test_pipeline_peak_with_twelve_members(tmp_path):
    spec = _spec()
    config = {
        "scene": scene_to_json(spec),
        "atlas_scenes": [scene_to_json(v) for v in _variants(ATLAS_VARIANTS - 1)],
        "schedule": {"n_steps": N_STEPS},
        "guidance": {"n_inner_steps": 2, "t_end": 1},
        "init": "fresh",
        "seed": 3,
    }
    peak = _peak(pl.run_pipeline, config, tmp_path / "run")
    latent_bytes = 8 * int(np.prod(spec.latent_shape))
    assert peak < (ATLAS_VARIANTS + PIPELINE_BUDGET) * latent_bytes, peak / latent_bytes


def test_ddim_step_allocates_one_latent_and_a_block_buffer(scene):
    # with twelve members, a step allocates its output and its block buffer
    # (the first step measured 1.95 latents, the buffer being 0.89 of them);
    # writing over z through a given buffer, as sampling does, it allocates only
    # the finiteness scan's bool mask of one block (measured 35,002 bytes)
    manifest, latent_bytes = scene
    schedule = NoiseSchedule.default(n_steps=N_STEPS)
    z0 = manifest.load_latent("0")
    denoiser = GaussianAtlasDenoiser(_noisy_atlas(z0), schedule)
    z = z0.data.astype(np.float64)
    scratch = _block_buffer(z.size)
    for t, t_next in ((3, 4), (4, 3), (0, 1), (N_STEPS, N_STEPS - 1)):
        peak = _peak(_ddim_step, denoiser, z, schedule.alpha_bar, t, t_next)
        assert peak <= latent_bytes + scratch.nbytes + 2 * _BLOCK, (t, peak / latent_bytes)
        latents = z.copy()
        peak = _peak(_ddim_step, denoiser, latents, schedule.alpha_bar, t, t_next,
                     latents, scratch)
        assert peak <= 2 * _BLOCK, (t, peak)


def test_finite_difference_peak_stays_under_three_plane_stacks():
    # copying the whole latent per perturbed row peaked at 32.9 MB on this case
    case = random_case(np.random.default_rng(0), 4, 4, 16, 16, 3)
    stack_bytes = 2 * _CHUNK * 16 * 16 * 8
    peak = _peak(finite_difference_gradient, case.latents, case.target)
    assert peak < 3 * stack_bytes, peak / stack_bytes

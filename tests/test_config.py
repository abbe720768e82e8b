"""Every key a config reader accepts reaches the object or stage it configures.

Each document sets every key its reader accepts to a value other than its
default, so a key that is accepted and then dropped, or left to a default,
fails here. The CLI's flags are held to the same rule, and a flag left out
must leave its stage at the stage's own default.
"""

import dataclasses
import json

import numpy as np

from momix import cli
from momix import pipeline as pl
from momix.cli import main
from momix.diffusion import GaussianAtlasDenoiser, NoiseSchedule, ZeroDenoiser
from momix.features import Directive, EditPlan, compile_sources, plan_from_json
from momix.guidance import GuidanceConfig
from momix.masks import MaskEdit
from momix.synth import BlobSpec, SceneSpec, save_scene, scene_from_json, scene_to_json
from momix.tensors import load_manifest, write_json

from test_cli import tree_digest

GUIDANCE = {"step_size": 0.25, "n_inner_steps": 7, "t_start": 9, "t_end": 4,
            "weights": {"A": 2.5, "background": 0.5}}
PLAN = {
    "subjects": {
        "A": {"op": "soften", "w_c": 2.0},
        "B": {"op": "mask_edit", "edit": {"kind": "shift", "dx": 3, "dy": -2}},
        "C": {"op": "mask_edit", "edit": {"kind": "scale", "factor": 1.5, "anchor": [4, 5.5]}},
    },
    "camera_only": True,
}


def _differs_from_defaults(objects):
    """Each dataclass field with a default differs from it in one of ``objects`` at least."""
    for f in dataclasses.fields(objects[0]):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            continue
        assert any(getattr(o, f.name) != default for o in objects), f.name


def _scene(texture_seed=3):
    n = 4
    return SceneSpec(
        n_frames=n, n_channels=3, height=16, width=16,
        blobs=(
            BlobSpec("A", tuple((4.0, 3.0 + f) for f in range(n)), 2.0, (0, 2.5, 0)),
            BlobSpec("B", tuple((11.0, 12.0 - f) for f in range(n)), 2.0, (0, 0, 2.5)),
            BlobSpec("C", tuple((3.0 + f, 12.0) for f in range(n)), 1.5, (2.5, 0, 0)),
        ),
        background_drift=tuple((0.5 * f, -0.25 * f) for f in range(n)),
        texture_seed=texture_seed, texture_amplitude=0.7, texture_wavelengths=(2.0, 5.0),
    )


def test_guidance_config_carries_every_key():
    config = pl.guidance_config_from_json(GUIDANCE)
    assert config == GuidanceConfig(step_size=0.25, n_inner_steps=7, t_start=9, t_end=4,
                                    weights={"A": 2.5, "background": 0.5})
    _differs_from_defaults([config])


def test_plan_carries_every_key():
    plan = plan_from_json(PLAN)
    assert plan == EditPlan(
        {
            "A": Directive("soften", w_c=2.0),
            "B": Directive("mask_edit", edit=MaskEdit("shift", dx=3, dy=-2)),
            "C": Directive("mask_edit", edit=MaskEdit("scale", factor=1.5, anchor=(4.0, 5.5))),
        },
        camera_only=True,
    )
    _differs_from_defaults([plan])
    _differs_from_defaults(list(plan.directives.values()))
    _differs_from_defaults([d.edit for d in plan.directives.values() if d.edit is not None])


def test_scene_spec_carries_every_key():
    spec = _scene()
    doc = json.loads(json.dumps(scene_to_json(spec)))
    assert sorted(doc) == sorted(f.name for f in dataclasses.fields(SceneSpec))
    assert scene_from_json(doc) == spec
    _differs_from_defaults([spec])


def test_extract_index_carries_every_key(tmp_path):
    write_json(tmp_path / "extract_index.json", {
        "n_steps": 2, "timesteps": [0, 1, 2], "sources": ["A", "background"],
        "manifest": "../scene/manifest.json",
    })
    assert pl.read_extract_index(tmp_path) == pl.ExtractIndex(
        tmp_path, 2, ["A", "background"], manifest="../scene/manifest.json")


def _spy(monkeypatch, owner, names, calls=None, events=None) -> dict:
    """Wrap each callable ``owner.<name>``; ``calls`` maps each name to its last (args, kwargs).

    ``events``, if given, gets ``("enter", name)`` and ``("exit", name)`` around each call.
    """
    calls = {} if calls is None else calls
    events = [] if events is None else events
    for name in names:
        def spy(*args, _stage=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = (args, kwargs)
            events.append(("enter", _name))
            try:
                return _stage(*args, **kwargs)
            finally:
                events.append(("exit", _name))

        monkeypatch.setattr(owner, name, spy)
    return calls


STAGES = ("run_synth", "run_atlas", "run_invert", "run_extract", "run_recompose", "run_metrics")


def test_pipeline_hands_every_config_value_to_its_stage(tmp_path, monkeypatch):
    # the benchmark's pipeline.coverage sums the stage spans, so a stage entered
    # inside another would count its time twice: each stage returns before the
    # next is entered, run_invert handing run_extract a stream it has not started
    events = []
    calls = _spy(monkeypatch, pl, STAGES, events=events)
    member = _scene(texture_seed=11)
    save_scene(member, tmp_path / "member.json")
    config = {  # every top-level key, none at its default
        "out_dir": str(tmp_path / "out"),
        "seed": 6,
        "scene": scene_to_json(_scene()),
        "schedule": {"n_steps": 10, "power": 1.5, "floor": 1e-3},
        "atlas_include_reference": False,
        "atlas_scenes": [str(tmp_path / "member.json")],
        "bandwidth": 0.8,
        "invert_denoiser": "zero",
        "guidance": GUIDANCE,
        "plan": PLAN,
        "init": "fresh",
        "guided": False,
        "metrics": {"threshold": 0.3},
    }
    pl.run_pipeline(config)
    assert (tmp_path / "out" / "metrics.json").exists()
    assert events == [(step, name) for name in STAGES for step in ("enter", "exit")]
    assert calls["run_synth"][0][0] == _scene()
    (_, members, schedule, _), atlas_kwargs = calls["run_atlas"]
    assert members == [member]
    want = NoiseSchedule.default(n_steps=10, power=1.5, floor=1e-3)
    assert np.array_equal(schedule.alpha_bar, want.alpha_bar)
    assert atlas_kwargs == {"include_reference": False, "bandwidth": 0.8}
    assert isinstance(calls["run_invert"][0][2], ZeroDenoiser)
    (_, plan, *_), recompose_kwargs = calls["run_recompose"]
    assert plan == plan_from_json(PLAN)
    assert recompose_kwargs["denoiser"].bandwidth == 0.8
    assert recompose_kwargs["guidance_config"] == pl.guidance_config_from_json(GUIDANCE)
    assert (recompose_kwargs["init"], recompose_kwargs["seed"], recompose_kwargs["guided"]) == (
        "fresh", 6, False)
    assert calls["run_metrics"][1]["threshold"] == 0.3


def _cli_scene(tmp_path):
    scene = pl.run_synth(_scene(), tmp_path / "scene")
    return scene, load_manifest(scene / "manifest.json")


def _spy_cli_stages(monkeypatch) -> dict:
    calls = _spy(monkeypatch, pl, ("build_denoiser", "run_invert", "run_recompose",
                                   "run_metrics"))
    return _spy(monkeypatch, cli, ("run_gradcheck",), calls)


def test_cli_hands_each_stage_every_flag_given(tmp_path, monkeypatch):
    calls = _spy_cli_stages(monkeypatch)
    scene, _ = _cli_scene(tmp_path)
    traj, desc, run = tmp_path / "traj", tmp_path / "desc", tmp_path / "run"
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(desc), "--steps", "6",
                 "--power", "1.5", "--floor", "1e-3", "--bandwidth", "0.8"]) == 0
    want = NoiseSchedule.default(n_steps=6, power=1.5, floor=1e-3)
    assert np.array_equal(calls["run_invert"][0][1].alpha_bar, want.alpha_bar)
    assert calls["build_denoiser"][1] == {"bandwidth": 0.8}
    write_json(tmp_path / "plan.json", PLAN)
    write_json(tmp_path / "guidance.json", GUIDANCE)
    assert main(["recompose", str(desc), str(traj), str(run), "--atlas",
                 str(scene / "latents_t0.cmt"), "--bandwidth", "0.7", "--init", "fresh",
                 "--seed", "6", "--guidance", str(tmp_path / "guidance.json"),
                 "--plan", str(tmp_path / "plan.json")]) == 0
    assert calls["build_denoiser"][1] == {"bandwidth": 0.7}
    assert calls["run_recompose"][0][1] == plan_from_json(PLAN)
    kwargs = calls["run_recompose"][1]
    config = GuidanceConfig(step_size=0.25, n_inner_steps=7, t_start=9, t_end=4,
                            weights={"A": 2.5, "background": 0.5})
    assert (kwargs["init"], kwargs["seed"], kwargs["guidance_config"]) == ("fresh", 6, config)
    _differs_from_defaults([config])
    assert main(["metrics", str(run), str(scene), "--threshold", "0.3"]) == 0
    assert calls["run_metrics"][1]["threshold"] == 0.3
    assert main(["gradcheck", "--seed", "4", "--cases", "2"]) == 0
    assert calls["run_gradcheck"][1] == {"seed": 4, "n_cases": 2, "fault": None,
                                         "zero_weights": False}


def test_cli_without_flags_writes_what_the_library_defaults_write(tmp_path, monkeypatch):
    calls = _spy_cli_stages(monkeypatch)
    scene, manifest = _cli_scene(tmp_path)
    atlas = pl.load_atlas([manifest.latent_path("0")], manifest.latent_shape)
    traj, desc = tmp_path / "traj", tmp_path / "desc"
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(desc)]) == 0
    assert calls["build_denoiser"][1] == {}
    default = NoiseSchedule.default()
    operator = compile_sources(manifest.latent_shape, manifest.load_masks())
    stream = pl.run_invert(manifest.load_latent("0"), default,
                           GaussianAtlasDenoiser(atlas, default), tmp_path / "lib_traj", operator)
    pl.run_extract(stream, tmp_path / "lib_desc", manifest_path="../scene/manifest.json")
    assert tree_digest(traj) == tree_digest(tmp_path / "lib_traj")
    assert tree_digest(desc) == tree_digest(tmp_path / "lib_desc")

    run, lib_run = tmp_path / "run", tmp_path / "lib_run"
    assert main(["recompose", str(desc), str(traj), str(run), "--atlas",
                 str(scene / "latents_t0.cmt")]) == 0
    assert calls["build_denoiser"][1] == {}
    assert sorted(calls["run_recompose"][1]) == ["denoiser", "guided", "manifest"]
    assert calls["run_recompose"][0][1] is None  # keep everything
    pl.run_recompose(desc, None, traj, lib_run, denoiser=GaussianAtlasDenoiser(atlas, default),
                     manifest=manifest)
    assert main(["metrics", str(run), str(scene)]) == 0
    assert "threshold" not in calls["run_metrics"][1]
    pl.run_metrics(lib_run, scene, out_path=lib_run / "metrics.json")
    assert tree_digest(run) == tree_digest(lib_run)

    assert main(["gradcheck"]) == 0
    assert calls["run_gradcheck"][1] == {"fault": None, "zero_weights": False}  # no files

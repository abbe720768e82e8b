"""Every key a config reader accepts reaches the object or stage it configures.

Each document sets every key its reader accepts to a value other than its
default, so a key that is accepted and then dropped, or left to a default,
fails here.
"""

import dataclasses
import json

import numpy as np

from momix import pipeline as pl
from momix.diffusion import NoiseSchedule, ZeroDenoiser
from momix.features import Directive, EditPlan, plan_from_json
from momix.guidance import GuidanceConfig
from momix.masks import MaskEdit
from momix.synth import BlobSpec, SceneSpec, save_scene, scene_from_json, scene_to_json
from momix.tensors import write_json

GUIDANCE = {"step_size": 0.25, "n_inner_steps": 7, "t_start": 9, "t_end": 4,
            "weights": {"A": 2.5, "background": 0.5}}
PLAN = {
    "subjects": {
        "A": {"op": "soften", "w_c": 2.0},
        "B": {"op": "mask_edit", "edit": {"kind": "shift", "dx": 3, "dy": -2}},
        "C": {"op": "mask_edit", "edit": {"kind": "scale", "factor": 1.5, "anchor": [4, 5.5]}},
    },
    "include_background": False,
    "w_c": 0.75,
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
                                    per_source_weight={"A": 2.5, "background": 0.5})
    _differs_from_defaults([config])


def test_plan_carries_every_key():
    plan = plan_from_json(PLAN)
    assert plan == EditPlan(
        {
            "A": Directive("soften", w_c=2.0),
            "B": Directive("mask_edit", edit=MaskEdit("shift", dx=3, dy=-2)),
            "C": Directive("mask_edit", edit=MaskEdit("scale", factor=1.5, anchor=(4.0, 5.5))),
        },
        include_background=False, w_c=0.75, camera_only=True,
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
        "legacy_region": True, "manifest": "../scene/manifest.json",
    })
    assert pl.read_extract_index(tmp_path) == pl.ExtractIndex(
        tmp_path, 2, ["A", "background"], legacy_region=True, manifest="../scene/manifest.json")


def test_pipeline_hands_every_config_value_to_its_stage(tmp_path, monkeypatch):
    calls = {}
    for name in ("run_synth", "run_atlas", "run_invert", "run_extract", "run_recompose",
                 "run_metrics"):
        def spy(*args, _stage=getattr(pl, name), _name=name, **kwargs):
            calls[_name] = (args, kwargs)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(pl, name, spy)
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
        "legacy_region": True,
        "guidance": GUIDANCE,
        "plan": PLAN,
        "init": "fresh",
        "guided": False,
        "metrics": {"threshold": 0.3},
    }
    pl.run_pipeline(config)
    assert (tmp_path / "out" / "metrics.json").exists()
    assert calls["run_synth"][0][0] == _scene()
    (_, members, schedule, _), atlas_kwargs = calls["run_atlas"]
    assert members == [member]
    want = NoiseSchedule.default(n_steps=10, power=1.5, floor=1e-3)
    assert np.array_equal(schedule.alpha_bar, want.alpha_bar)
    assert atlas_kwargs == {"include_reference": False, "bandwidth": 0.8}
    assert isinstance(calls["run_invert"][0][2], ZeroDenoiser)
    assert calls["run_extract"][1]["legacy_region"] is True
    (_, plan, *_), recompose_kwargs = calls["run_recompose"]
    assert plan == plan_from_json(PLAN)
    assert recompose_kwargs["denoiser"].bandwidth == 0.8
    assert recompose_kwargs["guidance_config"] == pl.guidance_config_from_json(GUIDANCE)
    assert (recompose_kwargs["init"], recompose_kwargs["seed"], recompose_kwargs["guided"]) == (
        "fresh", 6, False)
    assert calls["run_metrics"][1]["threshold"] == 0.3

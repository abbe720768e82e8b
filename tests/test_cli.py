import argparse
import dataclasses
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momix import archive, cli, diffusion, features, gradcheck
from momix import pipeline as pl
from momix.cli import main
from momix.diffusion import (
    GaussianAtlasDenoiser, NoiseSchedule, ZeroDenoiser, read_trajectory_index,
)
from momix.errors import BadValue, NoValidPairs
from momix.synth import render_scene
from momix.guidance import MAX_INNER_STEPS, GuidanceConfig
from momix.pipeline import read_extract_index
from momix.synth import BlobSpec, SceneSpec, save_scene, scene_to_json
from momix.tensors import load_manifest, load_tensor, read_array, save_tensor, write_array


def demo_scene(n=6):
    return SceneSpec(
        n_frames=n, n_channels=3, height=24, width=24,
        blobs=(
            BlobSpec("A", tuple((8.0, 4.0 + 2.0 * f) for f in range(n)), 2.5, (0, 2.5, 0)),
            BlobSpec("B", tuple((17.0, 19.0 - 2.0 * f) for f in range(n)), 2.5, (0, 0, 2.5)),
        ),
        texture_seed=7, texture_amplitude=0.8,
    )


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture()
def scene_dir(tmp_path):
    spec_path = tmp_path / "scene.json"
    save_scene(demo_scene(), spec_path)
    out = tmp_path / "scene"
    assert main(["synth", str(spec_path), str(out)]) == 0
    return out


def test_synth_contract(scene_dir):
    assert (scene_dir / "latents_t0.cmt").exists()
    assert (scene_dir / "mask_A.cmm").exists()
    assert (scene_dir / "mask_B.cmm").exists()
    assert (scene_dir / "manifest.json").exists()


def test_synth_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["synth", str(bad), str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


_MISSING = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("n_frames",), "6", "n_frames must be a JSON integer"),
        (("n_frames",), _MISSING, "missing n_frames"),
        (("n_channels",), 3.0, "n_channels must be a JSON integer"),
        (("height",), True, "height must be a JSON integer"),
        (("width",), "24", "width must be a JSON integer"),
        (("texture_seed",), 7.5, "texture_seed must be a JSON integer"),
        (("texture_seed",), -1, "texture_seed must be >= 0"),
        (("blobs", 0, "radius"), "2", "radius must be a JSON number"),
        (("blobs", 0, "subject_id"), 5, "subject_id must be a JSON string"),
        (("blobs", 1, "subject_id"), ["x"], "subject_id must be a JSON string"),
        (("texture_amplitude",), True, "texture_amplitude must be a JSON number"),
        (("texture_amplitude",), float("inf"), "texture_amplitude must be finite"),
        (("blobs", 0, "trajectory", 2), ["8", 8.0], "trajectory point 2 must be a JSON number"),
        (("blobs", 1, "trajectory", 0), [17.0], "trajectory point 0 must be a JSON array of 2"),
        (("background_drift",), [[float("nan"), 0.0]] * 6,
         "background_drift point 0 must be finite"),
        (("blobs", 0, "channel_signature"), [True, 2.5, 0.0],
         "channel_signature must be a JSON number"),
        (("texture_wavelengths",), ["1.5", 3.0], "texture_wavelengths must be a JSON number"),
        (("texture_wavelengths",), [1.5], "texture_wavelengths must be a JSON array of 2"),
        (("texture_wavelengths",), [0, 3.0], "need 0 < texture wavelengths"),
        (("blobs",), {}, "blobs must be a JSON array"),
        (("blobs", 0, "trajectory"), _MISSING, "scene blob 'A': missing trajectory"),
        (("blobs", 1, "channel_signature"), _MISSING,
         "scene blob 'B': missing channel_signature"),
        (("height",), 10**20, "hold more than 2147483648 latent elements"),
        (("height",), 40_000_000, "hold more than 2147483648 latent elements"),
        (("blobs", 0, "subject_id"), "../x", "subject id '../x' is not filesystem-safe"),
        (("blobs", 0, "subject_id"), "background", "subject id 'background' is reserved"),
        (("blobs", 1, "subject_id"), "A", "duplicate subject id 'A'"),
        (("blobs", 0, "radius"), 1e300, "radius must be positive, with a finite square"),
        (("blobs", 0, "channel_signature"), [0, 0, 0],
         "blob 'A' signature must be a nonzero vector"),
        (("blobs", 0, "channel_signature"), [-1e-300, 0, 0],
         "blob 'A' signature must be a nonzero vector"),
        (("blobs", 0, "trajectory", 0), [1e300, 4.0], "its squared distance overflows"),
    ],
    ids=["n_frames-string", "n_frames-missing", "n_channels-float", "height-bool",
         "width-string", "texture_seed-float", "texture_seed-negative", "radius-string",
         "subject_id-integer", "subject_id-array",
         "texture_amplitude-bool", "texture_amplitude-infinite", "trajectory-string",
         "trajectory-short-point", "drift-nan", "channel_signature-bool",
         "texture_wavelengths-string", "texture_wavelengths-short", "texture_wavelengths-zero",
         "blobs-object", "trajectory-missing", "channel_signature-missing",
         "height-past-int64", "height-past-the-element-cap", "subject_id-unsafe",
         "subject_id-background", "subject_id-duplicate", "radius-square-overflows",
         "channel_signature-zero", "channel_signature-underflows",
         "trajectory-square-overflows"],
)
def test_synth_rejects_mistyped_values(tmp_path, capsys, path, value, message):
    # each used to render a scene from a coerced value, or fail with a traceback;
    # a zero signature, or one whose squares underflow, was written and failed
    # only in metrics, and a point whose squared offset overflows rendered
    # with an overflow warning
    doc = json.loads(json.dumps(scene_to_json(demo_scene())))
    *parents, key = path
    entry = doc
    for k in parents:
        entry = entry[k]
    if value is _MISSING:
        del entry[key]
    else:
        entry[key] = value
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(doc))
    assert main(["synth", str(spec), str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _past_float32(doc, key):
    """A scene document with a signature value, or the texture amplitude, of 1e39."""
    if key == "channel_signature":
        doc["blobs"][0]["channel_signature"] = [1e39, 0.0, 0.0]
    else:
        doc["texture_amplitude"] = -1e39
    return doc


def test_synth_of_values_past_float32_writes_no_latents(tmp_path, capsys):
    # used to exit 0 with the values stored as inf, which invert then refused,
    # and then to exit 3 with an empty output directory
    for key in ("channel_signature", "texture_amplitude"):
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(_past_float32(scene_to_json(demo_scene()), key)))
        assert main(["synth", str(spec), str(tmp_path / "out")]) == 2
        assert "past float32's range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_pipeline_atlas_scene_past_float32_writes_nothing(tmp_path, capsys):
    # used to exit 3 after writing scene/ and part of atlas/
    for key in ("channel_signature", "texture_amplitude"):
        cfg = dict(_pipeline_config(tmp_path, f"run-{key}"), atlas_scenes=[
            scene_to_json(demo_scene(n=5)), _past_float32(scene_to_json(demo_scene(n=5)), key)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", str(cfg_path)]) == 2
        assert "past float32's range" in capsys.readouterr().err
        assert not Path(cfg["out_dir"]).exists()


def test_synth_deterministic(tmp_path):
    spec_path = tmp_path / "scene.json"
    save_scene(demo_scene(), spec_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["synth", str(spec_path), str(out1)]) == 0
    assert main(["synth", str(spec_path), str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)


def test_invert_zero_noise_closed_form(scene_dir, tmp_path):
    traj = tmp_path / "traj"
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), str(tmp_path / "desc"),
               "--steps", "6", "--zero-noise"])
    assert rc == 0
    index = json.loads((traj / "index.json").read_text())
    assert sorted(index) == ["alpha_bar", "n_steps"]
    z0 = load_tensor(scene_dir / "latents_t0.cmt")
    zT = load_tensor(traj / "t006.cmt")
    want = np.sqrt(index["alpha_bar"][6]) * z0.data
    assert np.max(np.abs(zT.data - want)) < 1e-6


@pytest.mark.parametrize("flags", [["--bandwidth", "-5"], ["--atlas", "/nonexistent.cmt"]],
                         ids=["bandwidth", "atlas"])
def test_invert_zero_noise_rejects_the_atlas_flags(scene_dir, tmp_path, capsys, flags):
    # each used to exit 0 with the flag never read
    traj, desc = tmp_path / "traj", tmp_path / "desc"
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), str(desc), "--steps", "2",
               "--zero-noise", *flags])
    assert rc == 2
    assert "--zero-noise takes no --atlas or --bandwidth" in capsys.readouterr().err
    assert not traj.exists() and not desc.exists()


def test_invert_default_run(scene_dir, tmp_path):
    # the trajectory archive keeps z_T alone; the descriptors cover every timestep
    traj, desc = tmp_path / "traj", tmp_path / "desc"
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), str(desc), "--steps", "20"])
    assert rc == 0
    assert sorted(p.name for p in traj.iterdir()) == ["index.json", "t020.cmt"]
    assert read_extract_index(desc).n_steps == 20
    assert sorted(p.name for p in desc.glob("t*")) == [f"t{t:03d}" for t in range(21)]


def test_invert_zero_steps(scene_dir, tmp_path):
    traj, desc = tmp_path / "traj", tmp_path / "desc"
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), str(desc),
               "--steps", "0", "--zero-noise"])
    assert rc == 0
    assert sorted(p.name for p in traj.iterdir()) == ["index.json", "t000.cmt"]
    assert read_extract_index(desc).n_steps == 0


@pytest.fixture()
def pipeline_dirs(scene_dir, tmp_path):
    traj = tmp_path / "traj"
    desc = tmp_path / "desc"
    assert main(["invert", str(scene_dir / "manifest.json"), str(traj), str(desc),
                 "--steps", "8", "--zero-noise"]) == 0
    return scene_dir, traj, desc


def test_extract_sources(pipeline_dirs):
    scene, traj, desc = pipeline_dirs
    index = json.loads((desc / "extract_index.json").read_text())
    assert index["sources"] == ["A", "B", "background"]
    t0 = sorted(p.name for p in (desc / "t000").glob("*.json"))
    assert t0 == ["A.json", "B.json", "background.json"]


def test_extract_single_subject_two_sources(tmp_path):
    spec = SceneSpec(
        n_frames=4, n_channels=2, height=16, width=16,
        blobs=(BlobSpec("solo", tuple((8.0, 4.0 + 2.0 * f) for f in range(4)), 2.5, (0, 2.0)),),
        texture_seed=1,
    )
    spec_path = tmp_path / "s.json"
    save_scene(spec, spec_path)
    scene = tmp_path / "scene"
    traj = tmp_path / "traj"
    desc = tmp_path / "desc"
    assert main(["synth", str(spec_path), str(scene)]) == 0
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(desc),
                 "--steps", "4", "--zero-noise"]) == 0
    index = json.loads((desc / "extract_index.json").read_text())
    assert index["sources"] == ["background", "solo"]


def test_extract_masked_out_subject_skipped(tmp_path, caplog):
    # a subject absent from every frame is skipped with a warning; run continues
    spec = SceneSpec(
        n_frames=4, n_channels=2, height=16, width=16,
        blobs=(
            BlobSpec("solo", tuple((8.0, 4.0 + 2.0 * f) for f in range(4)), 2.5, (0, 2.0)),
            BlobSpec("ghost", tuple((-99.0, -99.0) for _ in range(4)), 1.0, (0, 1.0)),
        ),
        texture_seed=1,
    )
    spec_path = tmp_path / "s.json"
    save_scene(spec, spec_path)
    scene = tmp_path / "scene"
    traj = tmp_path / "traj"
    desc = tmp_path / "desc"
    assert main(["synth", str(spec_path), str(scene)]) == 0
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(desc),
                 "--steps", "3", "--zero-noise"]) == 0
    index = json.loads((desc / "extract_index.json").read_text())
    assert "ghost" not in index["sources"]


def test_extract_of_no_latents_writes_no_index(pipeline_dirs):
    # extraction takes any stream of latents; one of none is no archive
    scene, _, desc = pipeline_dirs
    with pytest.raises(BadValue, match="no latents"):
        pl.run_extract(iter(()), load_manifest(scene / "manifest.json"), desc,
                       manifest_path="../scene/manifest.json")
    assert not (desc / "extract_index.json").exists()


def test_extract_warns_once_per_source_without_pairs(tmp_path, caplog):
    # each warning used to repeat at every timestep, though the regions depend on the masks alone
    _save_scene_hiding_b(tmp_path / "s.json")
    scene, traj, desc = tmp_path / "scene", tmp_path / "traj", tmp_path / "desc"
    assert main(["synth", str(tmp_path / "s.json"), str(scene)]) == 0
    messages = ("skipping source 'B': no valid frame pairs", "background has no valid frame pairs")
    for extract in (
        lambda: main(["invert", str(scene / "manifest.json"), str(traj), str(desc), "--steps",
                      "4", "--zero-noise"]),
        # a direct call compiles its own regions, and warns for them
        lambda: features.extract_descriptors(load_tensor(traj / "t004.cmt"),
                                             load_manifest(scene / "manifest.json").load_masks(),
                                             timestep=0, strict=False),
    ):
        caplog.clear()
        extract()
        logged = [r.getMessage() for r in caplog.records]
        assert [sum(m in line for line in logged) for m in messages] == [1, 1], logged


def test_recompose_all_keep_self_transfer(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "run"
    rc = main([
        "recompose", str(desc), str(traj), str(run),
        "--atlas", str(scene / "latents_t0.cmt"),
        *_guidance_args(tmp_path, {"n_inner_steps": 5, "t_end": 1}),
    ])
    assert rc == 0
    assert (run / "output.cmt").exists()
    assert (run / "trace.jsonl").exists()
    out = capsys.readouterr().out
    assert "first loss" in out
    # metrics: extracted target descriptors land within 5% relative L2
    rc = main(["metrics", str(run), str(scene)])
    assert rc == 0
    report = json.loads((run / "metrics.json").read_text())
    for source, entry in report["descriptor_distances"].items():
        if entry["relative_l2"] is None:
            # static source: the reference deltas are all zero, compare absolutely
            assert entry["distance"] <= 1e-6, (source, entry)
        else:
            assert entry["relative_l2"] <= 0.05, (source, entry)


def _plan_args(tmp_path, plan):
    """``--plan`` and the path of a file under ``tmp_path`` holding the plan document ``plan``."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return ["--plan", str(path)]


def _guidance_args(tmp_path, doc):
    """``--guidance`` and the path of a file under ``tmp_path`` holding the guidance ``doc``."""
    path = tmp_path / "guidance.json"
    path.write_text(json.dumps(doc))
    return ["--guidance", str(path)]


def test_recompose_unknown_subject(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r2"),
        "--atlas", str(scene / "latents_t0.cmt"),
        *_plan_args(tmp_path, {"subjects": {"nope": {"op": "remove"}}}),
    ])
    assert rc == 2
    assert "unknown subject" in capsys.readouterr().err


def _save_scene_hiding_b(path):
    """The demo scene with a radius of 1e20 on A, which hides B in every frame pair."""
    spec = demo_scene()
    a, b = spec.blobs
    save_scene(dataclasses.replace(spec, blobs=(dataclasses.replace(a, radius=1e20), b)), path)


def test_recompose_plan_naming_a_hidden_subject_writes_nothing(tmp_path, capsys):
    # the message used to call B an unknown subject
    _save_scene_hiding_b(tmp_path / "s.json")
    scene, traj, desc, run = (tmp_path / d for d in ("scene", "traj", "desc", "run"))
    assert main(["synth", str(tmp_path / "s.json"), str(scene)]) == 0
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(desc), "--steps", "2",
                 "--zero-noise"]) == 0
    rc = main(["recompose", str(desc), str(traj), str(run), "--atlas",
               str(scene / "latents_t0.cmt"),
               *_plan_args(tmp_path, {"subjects": {"B": {"op": "remove"}}})])
    assert rc == 2
    assert "plan names subject 'B', which has no pair region" in capsys.readouterr().err
    assert not run.exists()


def test_metrics_scores_every_source_against_the_scene_alone(tmp_path, capsys):
    # a source without pairs used to get no entry; the reference now comes
    # from the scene only, so there is no descriptor archive to pass
    _save_scene_hiding_b(tmp_path / "s.json")
    scene, run = tmp_path / "scene", tmp_path / "run"
    assert main(["synth", str(tmp_path / "s.json"), str(scene)]) == 0
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    assert main(["metrics", str(run), str(scene)]) == 0
    report = json.loads((run / "metrics.json").read_text())
    none = {"distance": 0.0, "n_pairs": 0, "relative_l2": None}
    assert report["descriptor_distances"]["B"] == none
    assert report["descriptor_distances"]["background"] == none
    assert report["descriptor_distances"]["A"]["n_pairs"] == 15
    assert report["descriptor_distances"]["A"]["distance"] == 0.0
    assert {"source B: no valid pairs", "source background: no valid pairs"} <= set(
        report["warnings"])
    with pytest.raises(SystemExit) as exit_:
        main(["metrics", str(run), str(scene), "--desc", str(tmp_path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --desc" in capsys.readouterr().err


def test_recompose_missing_desc_dir(pipeline_dirs, tmp_path, capsys):
    scene, traj, _ = pipeline_dirs
    rc = main([
        "recompose", str(tmp_path / "nowhere"), str(traj), str(tmp_path / "r3"),
        "--atlas", str(scene / "latents_t0.cmt"),
    ])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_extract_archives_the_operators_output_per_timestep(scene_dir, tmp_path):
    manifest = load_manifest(scene_dir / "manifest.json")
    stream = [np.random.default_rng(t).standard_normal(manifest.latent_shape) for t in range(3)]
    pl.run_extract(iter(stream), manifest, tmp_path / "desc",
                   manifest_path="../scene/manifest.json")
    operator = features.compile_sources(manifest.latent_shape, manifest.load_masks())
    for t, z in enumerate(stream):
        want = operator.apply(z.astype(np.float32)).astype(np.float32)
        got = read_array(tmp_path / "desc" / f"t{t:03d}" / "deltas.cmt")
        assert got.tobytes() == want.tobytes() and got.shape == want.shape, t


def test_stray_descriptor_is_not_loaded(pipeline_dirs):
    # a descriptor file the extract index does not list is never a reference
    _, _, desc = pipeline_dirs
    doc = json.loads((desc / "t000" / "A.json").read_text())
    doc["source_id"] = "ghost"
    (desc / "t000" / "ghost.json").write_text(json.dumps(doc))
    refs = read_extract_index(desc).references()
    assert [d.source_id for d in refs[0]] == ["A", "B", "background"]
    assert all(len(descs) == 3 for descs in refs.values())


def test_metrics_self_comparison(pipeline_dirs, tmp_path):
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "runself"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    assert main(["metrics", str(run), str(scene)]) == 0
    report = json.loads((run / "metrics.json").read_text())
    for sid in ("A", "B"):
        assert report["subjects"][sid]["rmse_px"] <= 0.75
        assert report["subjects"][sid]["displacement_similarity"] >= 0.99
    for entry in report["descriptor_distances"].values():
        assert entry["distance"] == 0.0


def test_metrics_shifted_pair_exact(tmp_path):
    from momix.metrics import trajectory_rmse

    a = [(float(f), 2.0 * f) for f in range(5)]
    b = [(r + 3.0, c + 4.0) for r, c in a]
    assert trajectory_rmse(a, b) == pytest.approx(5.0)


def test_metrics_missing_run_dir(tmp_path, capsys):
    rc = main(["metrics", str(tmp_path / "nope"), str(tmp_path / "alsono")])
    assert rc == 2


def test_gradcheck_pass_and_fault(capsys):
    assert main(["gradcheck", "--cases", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert main(["gradcheck", "--cases", "3", "--fault", "sign-flip"]) == 3
    assert main(["gradcheck", "--cases", "3", "--zero-weights"]) == 0
    out = capsys.readouterr().out
    assert "warning: all source weights are zero; gradient check is vacuous" in out


@pytest.mark.parametrize(
    "args, message",
    [(["--cases", "0"], "at least one case"), (["--cases", "-3"], "at least one case"),
     (["--seed", "-1"], "seed must be >= 0")],
    ids=["no-cases", "negative-cases", "negative-seed"],
)
def test_gradcheck_bad_arguments_are_usage_errors(capsys, args, message):
    # no cases used to print a vacuous pass blamed on zero weights and exit 0,
    # and a negative seed to end in a traceback
    assert main(["gradcheck", *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "passed" not in captured.out


def test_gradcheck_names_a_vacuous_pass_with_no_case_drawn(capsys, monkeypatch):
    def degenerate(latents, target):
        raise NoValidPairs("no pair is valid")

    monkeypatch.setattr(gradcheck, "guidance_gradient", degenerate)
    assert main(["gradcheck", "--cases", "2"]) == 0
    out = capsys.readouterr().out
    assert "warning: no case with an enforced pair was drawn; gradient check is vacuous" in out
    assert "weights" not in out


def test_gradcheck_fails_a_nan_gradient(capsys, monkeypatch):
    # a NaN gradient used to pass with a max relative error of 0
    real = gradcheck.guidance_gradient
    monkeypatch.setattr(
        gradcheck, "guidance_gradient", lambda lat, target: np.full_like(real(lat, target), np.nan)
    )
    assert main(["gradcheck", "--cases", "3"]) == 3
    captured = capsys.readouterr()
    assert "max relative error inf" in captured.out
    assert "gradcheck FAILED" in captured.err


def _pipeline_config(tmp_path, out_name="runA"):
    from momix.synth import scene_to_json

    return {
        "out_dir": str(tmp_path / out_name),
        "seed": 5,
        "scene": scene_to_json(demo_scene(n=5)),
        "schedule": {"n_steps": 6, "power": 2.0},
        "bandwidth": 0.5,
        "guidance": {"n_inner_steps": 3, "t_end": 1},
        "plan": {},
        "init": "shared",
    }


def test_pipeline_runs_and_is_deterministic(tmp_path):
    cfg = _pipeline_config(tmp_path, "runA")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", str(cfg_path)]) == 0
    cfg2 = dict(cfg, out_dir=str(tmp_path / "runB"))
    cfg2_path = tmp_path / "cfg2.json"
    cfg2_path.write_text(json.dumps(cfg2))
    assert main(["pipeline", str(cfg2_path)]) == 0
    assert tree_digest(tmp_path / "runA") == tree_digest(tmp_path / "runB")


def test_pipeline_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert main(["pipeline", str(p)]) == 2


def test_extract_has_no_legacy_region_flag(pipeline_dirs, tmp_path, capsys):
    # the refined regions are the only ones a stage archives; the legacy ones
    # remain a library keyword
    scene, _, _ = pipeline_dirs
    with pytest.raises(SystemExit) as exit_:
        main(["invert", str(scene / "manifest.json"), str(tmp_path / "t"), str(tmp_path / "d"),
              "--legacy-region"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --legacy-region" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_recompose_unguided_samples_without_guidance(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "r"
    rc = main(["recompose", str(desc), str(traj), str(run),
               "--atlas", str(scene / "latents_t0.cmt"), "--unguided"])
    assert rc == 0
    assert "sampled without guidance" in capsys.readouterr().out
    assert (run / "trace.jsonl").read_bytes() == b""


@pytest.mark.parametrize("guidance, plan, message", [
    (None, {"subjects": {"ghost": {"op": "remove"}}}, "plan names subject 'ghost'"),
    (None, {"subjects": {"ghost": {"op": "mask_edit", "edit": {"kind": "shift", "dx": 2}}}},
     "plan names subject 'ghost'"),
    ({"weights": {"ghost": 1}}, None, "weight for source 'ghost'"),
    ({"t_end": 100}, None, "guidance window empty"),
], ids=["plan-remove", "plan-mask-edit", "weight", "window"])
def test_unguided_recompose_checks_the_plan_and_guidance(
    pipeline_dirs, tmp_path, capsys, guidance, plan, message
):
    # each used to sample and exit 0 without guidance, though a guided run exits 2
    scene, traj, desc = pipeline_dirs
    extra = _guidance_args(tmp_path, guidance) if guidance is not None else []
    if plan is not None:
        extra = extra + _plan_args(tmp_path, plan)
    run = tmp_path / "r"
    rc = main(["recompose", str(desc), str(traj), str(run),
               "--atlas", str(scene / "latents_t0.cmt"), "--unguided", *extra])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not run.exists()


def test_recompose_camera_only_switch(pipeline_dirs, tmp_path):
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "cam"
    rc = main([
        "recompose", str(desc), str(traj), str(run),
        "--atlas", str(scene / "latents_t0.cmt"), *_plan_args(tmp_path, {"camera_only": True}),
        "--init", "shared", *_guidance_args(tmp_path, {"n_inner_steps": 2}),
    ])
    assert rc == 0
    assert (run / "output.cmt").exists()
    trace = [json.loads(l) for l in (run / "trace.jsonl").read_text().splitlines()]
    assert trace  # background guidance ran and was recorded


@pytest.mark.parametrize("plan, weights", [
    ({"camera_only": True}, {"background": 0}),
    ({"subjects": {"A": {"op": "mask_edit", "edit": {"kind": "shift", "dx": 1000}}}},
     {"B": 0, "background": 0}),
], ids=["camera-only-background-0", "shift-out-of-frame-others-0"])
def test_recompose_that_guides_nothing_writes_nothing(pipeline_dirs, tmp_path, capsys,
                                                      plan, weights):
    # each used to exit 3 from the step sizing at the first guided timestep, once sampling
    # had begun; the shift leaves A no target row, and B and the background weigh 0
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "r"
    rc = main(["recompose", str(desc), str(traj), str(run), "--atlas",
               str(scene / "latents_t0.cmt"), *_plan_args(tmp_path, plan),
               *_guidance_args(tmp_path, {"weights": weights})])
    assert rc == 2
    assert "the edit guides nothing" in capsys.readouterr().err
    assert not run.exists()


_ONE_STEP = {"n_inner_steps": 1}  # one inner step per guided timestep, for speed


def _recompose(desc, traj, scene, run):
    return main([
        "recompose", str(desc), str(traj), str(run),
        "--atlas", str(scene / "latents_t0.cmt"),
        *_guidance_args(Path(run).parent, _ONE_STEP),
    ])


def test_recompose_descriptor_without_valid_pairs(pipeline_dirs, tmp_path, capsys):
    # t005 lies in the default guidance window (8..3) of the 8-step archive
    scene, traj, desc = pipeline_dirs
    doc = json.loads((desc / "t005" / "A.json").read_text())
    del doc["valid_pairs"]
    (desc / "t005" / "A.json").write_text(json.dumps(doc))
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert "valid_pairs" in capsys.readouterr().err


def test_recompose_failed_trace_write_keeps_the_old_run(
    pipeline_dirs, tmp_path, monkeypatch, capsys
):
    # a rerun whose trace write fails exits 2, and leaves the previous trace whole
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "r"
    assert _recompose(desc, traj, scene, run) == 0
    before = (run / "trace.jsonl").read_bytes()
    replace = os.replace

    def refuse_trace(src, dst):
        if Path(dst).name == "trace.jsonl":
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_trace)
    assert _recompose(desc, traj, scene, run) == 2
    assert "cannot write" in capsys.readouterr().err
    assert (run / "trace.jsonl").read_bytes() == before
    assert sorted(p.name for p in run.iterdir()) == ["output.cmt", "run.json", "trace.jsonl"]


def test_recompose_reads_only_the_guidance_window(pipeline_dirs, tmp_path, monkeypatch):
    # every archived timestep used to be loaded and checked, though guidance reads
    # only the window's, and each timestep's one tensor once
    scene, traj, desc = pipeline_dirs
    opened, read = [], archive.read_array

    def read_array(path, *args, **kwargs):
        opened.append(Path(path).relative_to(desc).as_posix())
        return read(path, *args, **kwargs)

    monkeypatch.setattr(archive, "read_array", read_array)
    assert _recompose(desc, traj, scene, tmp_path / "r") == 0
    assert opened == [f"t{t:03d}/deltas.cmt" for t in range(3, 9)]


def test_recompose_reads_only_the_terminal_latents(pipeline_dirs, tmp_path):
    # sampling starts from z_T, so a damaged t000, such as an archive that
    # stored every latent leaves behind, does not reach it
    scene, traj, desc = pipeline_dirs
    assert _recompose(desc, traj, scene, tmp_path / "before") == 0
    (traj / "t000.cmt").write_bytes(b"garbage")
    assert _recompose(desc, traj, scene, tmp_path / "after") == 0
    output = [(tmp_path / run / "output.cmt").read_bytes() for run in ("before", "after")]
    assert output[0] == output[1]


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _edit_index(traj, edit):
    index = json.loads((traj / "index.json").read_text())
    edit(index)
    (traj / "index.json").write_text(json.dumps(index))


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda traj: (traj / "t008.cmt").unlink(), "t008.cmt"),
        (lambda traj: _truncate(traj / "t008.cmt"), "t008.cmt"),
        # the index of an archive that stored every latent
        (lambda traj: _edit_index(traj, lambda ix: ix.update(
            {"files": {str(t): f"t{t:03d}.cmt" for t in range(9)}})), "keys ['files']"),
        (lambda traj: _edit_index(traj, lambda ix: ix.update({"n_steps": 8.9})),
         "n_steps must be a JSON integer"),
        (lambda traj: _edit_index(traj, lambda ix: ix.pop("alpha_bar")), "missing alpha_bar"),
    ],
    ids=["terminal-missing", "terminal-truncated", "files-extra", "n_steps-float",
         "alpha_bar-missing"],
)
def test_recompose_damaged_trajectory_is_a_usage_error(
    pipeline_dirs, tmp_path, capsys, damage, message
):
    scene, traj, desc = pipeline_dirs
    damage(traj)
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_recompose_extract_index_not_an_object(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    (desc / "extract_index.json").write_text("[]")
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_recompose_trajectory_index_with_short_n_steps(pipeline_dirs, tmp_path, capsys):
    # n_steps must agree with alpha_bar, or sampling would start from the wrong latent
    scene, traj, desc = pipeline_dirs
    index = json.loads((traj / "index.json").read_text())
    index["n_steps"] = 2
    (traj / "index.json").write_text(json.dumps(index))
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert "n_steps" in capsys.readouterr().err


def test_recompose_resolves_recorded_manifest_against_desc_dir(
    pipeline_dirs, tmp_path, monkeypatch
):
    # the index records "../scene/manifest.json"; a file at that path under the
    # current directory is a decoy that must not be read
    scene, traj, desc = pipeline_dirs
    recorded = json.loads((desc / "extract_index.json").read_text())["manifest"]
    cwd = tmp_path / "elsewhere" / "cwd"
    decoy = cwd / recorded
    decoy.parent.mkdir(parents=True)
    decoy.write_text("{not a manifest")
    monkeypatch.chdir(cwd)
    assert _recompose(desc, traj, scene, tmp_path / "r") == 0


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"guidance": {"w_c": 1}}, "unknown guidance config keys ['w_c']"),
        ({"guidance": {"n_inner_step": 3}}, "unknown guidance config keys ['n_inner_step']"),
        ({"guidence": {"n_inner_steps": 3}}, "unknown pipeline config keys ['guidence']"),
        ({"schedule": {"n_step": 6}}, "unknown schedule keys ['n_step']"),
        ({"metrics": {"treshold": 0.4}}, "unknown metrics keys ['treshold']"),
        ({"legacy_region": False}, "unknown pipeline config keys ['legacy_region']"),
        ({"plan": {"include_background": False}},
         "unknown edit plan keys ['include_background']"),
        ({"plan": {"w_c": 0.5}}, "unknown edit plan keys ['w_c']"),
    ],
    ids=["guidance-w_c", "guidance-typo", "top-level-typo", "schedule-typo", "metrics-typo",
         "legacy_region", "plan-include_background", "plan-w_c"],
)
def test_pipeline_rejects_unknown_config_keys(tmp_path, capsys, patch, message):
    cfg = dict(_pipeline_config(tmp_path), **patch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not Path(cfg["out_dir"]).exists()  # rejected before any stage ran


_MALFORMED = "malformed pipeline config"


def _plan_edit(edit):
    return {"subjects": {"A": {"op": "mask_edit", "edit": edit}}}


@pytest.mark.parametrize("out_dir", [5, ["x"]], ids=["integer", "array"])
def test_pipeline_mistyped_out_dir_writes_nothing(tmp_path, capsys, monkeypatch, out_dir):
    # used to end in a TypeError traceback from Path() (exit 1)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_pipeline_config(tmp_path), out_dir=out_dir)))
    assert main(["pipeline", str(cfg_path)]) == 2
    assert "out_dir must be a JSON string" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def _scene_with(path, value):
    """The pipeline's demo scene document with the field at ``path`` set to ``value``."""
    doc = scene_to_json(demo_scene(n=5))
    *parents, key = path
    entry = doc
    for k in parents:
        entry = entry[k]
    entry[key] = value
    return doc


def _scene_with_ids(*ids):
    doc = scene_to_json(demo_scene(n=5))
    for blob, sid in zip(doc["blobs"], ids):
        blob["subject_id"] = sid
    return doc


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"schedule": {"n_steps": "x"}}, _MALFORMED),
        ({"bandwidth": "wide"}, _MALFORMED),
        ({"seed": "s"}, _MALFORMED),
        ({"seed": 5.0}, _MALFORMED),
        ({"schedule": {"n_steps": 6.5}}, _MALFORMED),
        ({"guided": "false"}, "guided must be a JSON boolean"),
        ({"atlas_include_reference": 1}, "atlas_include_reference must be a JSON boolean"),
        ({"invert_denoiser": "zeros"}, "invert_denoiser must be one of ['atlas', 'zero']"),
        ({"init": "fersh"}, "init must be one of ['auto', 'shared', 'fresh']"),
        ({"guidance": {"t_end": "1"}}, "malformed guidance config: t_end must be a JSON integer"),
        ({"guidance": {"t_end": 1.5}}, "t_end must be a JSON integer"),
        ({"guidance": {"t_start": True}}, "t_start must be a JSON integer"),
        ({"guidance": {"n_inner_steps": 2.9}}, "n_inner_steps must be a JSON integer"),
        ({"guidance": {"t_end": 7}}, "guidance window empty"),
        ({"plan": {"camera_only": "false"}}, "malformed edit plan: camera_only"),
        ({"guidance": {"step_size": "2"}}, "step_size must be a JSON number"),
        ({"guidance": {"step_size": True}}, "step_size must be a JSON number"),
        ({"guidance": {"step_size": float("inf")}}, "step_size must be finite"),
        ({"guidance": {"weights": {"A": "2"}}}, "A must be a JSON number"),
        ({"guidance": {"weights": {"A": True}}}, "A must be a JSON number"),
        ({"guidance": {"weights": {"A": float("nan")}}}, "A must be finite"),
        ({"bandwidth": True}, "bandwidth must be a JSON number"),
        ({"bandwidth": float("inf")}, "bandwidth must be finite"),
        ({"schedule": {"power": "2"}}, "power must be a JSON number"),
        ({"schedule": {"floor": float("-inf")}}, "floor must be finite"),
        ({"metrics": {"threshold": False}}, "threshold must be a JSON number"),
        ({"seed": -1, "init": "fresh"}, "seed must be >= 0"),
        ({"plan": {"subjects": {"Q": {"op": "remove"}}}}, "plan names subject 'Q'"),
        ({"plan": {"subjects": {"background": {"op": "keep"}}}},
         "plan names subject 'background'"),
        ({"guidance": {"weights": {"Z": 3.0}}}, "guidance weight for unknown source 'Z'"),
        ({"schedule": {"n_steps": 100_000_000_000}}, "n_steps must be in 0..10000"),
        ({"scene": _scene_with_ids("../x")}, "subject id '../x' is not filesystem-safe"),
        ({"scene": _scene_with_ids("background")}, "subject id 'background' is reserved"),
        ({"scene": _scene_with_ids("A", "A")}, "duplicate subject id 'A'"),
        ({"bandwidth": 0}, "bandwidth must be finite and positive"),
        ({"bandwidth": -1}, "bandwidth must be finite and positive"),
        ({"plan": _plan_edit({"kind": "scale", "factor": 2.0, "anchor": [1000, 1000]})},
         "outside frame bounds (24, 24)"),
        ({"plan": _plan_edit({"kind": "scale", "factor": 1e-300, "anchor": [4, 4]})},
         "maps cells past 2**53 pixels"),
        ({"atlas_scenes": "spec.json"}, "atlas_scenes must be a JSON array"),
        ({"plan": {"subjects": {"A": {"op": "keep", "w_c": 3.0}}}},
         "a keep directive takes no w_c"),
        ({"plan": {"subjects": {"A": {"op": "remove", "edit": {"kind": "shift", "dx": 9}}}}},
         "a remove directive takes no edit"),
        ({"plan": _plan_edit({"kind": "shift", "dx": 2, "factor": 2.0})},
         "a shift edit takes no factor or anchor"),
        ({"plan": _plan_edit({"kind": "shift", "dx": 2, "anchor": [4, 4]})},
         "a shift edit takes no factor or anchor"),
        ({"plan": _plan_edit({"kind": "scale", "factor": 2.0, "anchor": [4, 4], "dy": 1})},
         "a scale edit takes no dx or dy"),
        ({"scene": _scene_with(("blobs", 0, "radius"), 1e300)},
         "blob radius must be positive, with a finite square"),
        ({"bandwidth": 1e300}, "bandwidth must be finite and positive, with a finite square"),
        ({"guidance": {"n_inner_steps": MAX_INNER_STEPS + 1}},
         f"n_inner_steps must be in 0..{MAX_INNER_STEPS}"),
        ({"guidance": {"n_inner_steps": 10**20}}, f"n_inner_steps must be in 0..{MAX_INNER_STEPS}"),
        ({"scene": _scene_with(("blobs", 1, "channel_signature"), [0, 0, 0])},
         "blob 'B' signature must be a nonzero vector"),
        ({"scene": _scene_with(("blobs", 1, "channel_signature"), [0, -1e-300, 0])},
         "blob 'B' signature must be a nonzero vector"),
        ({"scene": _scene_with(("blobs", 0, "trajectory", 0), [1e300, 4.0])},
         "blob 'A' trajectory point (1e+300, 4.0) lies so far off the frame"),
        ({"scene": _scene_with(("blobs", 0, "radius"), 1e20),
          "plan": {"subjects": {"B": {"op": "soften", "w_c": 0.5}}}},
         "plan names subject 'B', which has no pair region"),
        ({"plan": {"camera_only": True}, "guidance": {"weights": {"background": 0}}},
         "the edit guides nothing"),
        ({"guidance": {"weights": {"A": 0, "B": 0, "background": 0}}}, "the edit guides nothing"),
        ({"scene": _scene_with(("blobs", 0, "radius"), 1e20), "plan": {"camera_only": True}},
         "the edit guides nothing"),
        ({"schedule": {"n_steps": 4}, "plan": _plan_edit({"kind": "shift", "dx": 1000}),
          "guidance": {"weights": {"B": 0, "background": 0}}}, "the edit guides nothing"),
    ],
    ids=[
        "schedule", "bandwidth", "seed", "seed-float", "n_steps-float", "guided",
        "atlas_include_reference", "invert_denoiser", "init",
        "t_end-string", "t_end-float", "t_start-bool", "n_inner_steps-float",
        "window-past-n_steps", "plan-camera_only", "step_size-string", "step_size-bool",
        "step_size-infinite", "weight-string", "weight-bool", "weight-nan", "bandwidth-bool",
        "bandwidth-infinite", "power-string", "floor-infinite", "threshold-bool",
        "seed-negative", "plan-unknown-subject", "plan-background", "weight-unknown-source",
        "n_steps-past-the-cap", "blob-id-unsafe", "blob-id-background", "blob-id-duplicate",
        "bandwidth-zero", "bandwidth-negative", "anchor-outside", "factor-tiny",
        "atlas_scenes-string", "keep-w_c", "remove-edit", "shift-factor", "shift-anchor",
        "scale-dy", "radius-square-overflows", "bandwidth-square-overflows",
        "n_inner_steps-past-the-cap", "n_inner_steps-huge", "channel_signature-zero",
        "channel_signature-underflows", "trajectory-square-overflows", "plan-subject-hidden",
        "camera-only-background-weight-0", "weights-all-0", "camera-only-no-background-region",
        "shift-out-of-frame-others-weight-0",
    ],
)
def test_pipeline_rejects_mistyped_values(tmp_path, capsys, patch, message):
    # each used to run on a misread value, or fail only after the scene was written
    # (an unsafe or reserved blob id), or end in a MemoryError traceback (n_steps);
    # a bandwidth of 0 or an edit outside the frame failed only after scene/ and
    # atlas/ were written, a string of atlas_scenes was read character by
    # character, and a field its directive or edit kind does not use was ignored.
    # A radius or bandwidth of 1e300 ended in an OverflowError traceback after
    # scene/ (and atlas/ and traj/) were written, 10**20 inner steps ran until
    # killed, and a zero signature failed only in metrics, after run/ was written.
    # A trajectory point of 1e300 ran to exit 0 with an overflow warning, and a
    # plan naming a subject that a radius of 1e20 on A hides failed in recompose,
    # after scene/, atlas/, traj/ and desc/ were written, and so did a plan and
    # weights that guide no source with a pair region (exit 3, or exit 0 with a
    # fixed step_size and all-zero losses), or only one that a shift moves out of
    # the frame (exit 3).
    cfg = dict(_pipeline_config(tmp_path), **patch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not Path(cfg["out_dir"]).exists()


def test_recompose_weight_for_unknown_source_writes_nothing(pipeline_dirs, tmp_path, capsys):
    # used to run to exit 0 with the weight ignored
    scene, traj, desc = pipeline_dirs
    rc = main(["recompose", str(desc), str(traj), str(tmp_path / "r"),
               "--atlas", str(scene / "latents_t0.cmt"),
               *_guidance_args(tmp_path, {"weights": {"Z": 5}})])
    assert rc == 2
    assert "weight for source 'Z'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# "invert" blocks the trajectory archive, "extract" the descriptor archive invert writes
@pytest.mark.parametrize("stage, blocked", [
    ("synth", "out"), ("synth-images", "out/frames"), ("invert", "out"), ("extract", "out"),
    ("extract", "out/t003"), ("recompose", "out"), ("pipeline", "out"),
    ("pipeline", "out/atlas"),
])
def test_a_file_where_an_output_directory_belongs_is_a_usage_error(
    pipeline_dirs, tmp_path, capsys, stage, blocked
):
    # each used to end in a FileExistsError traceback (exit 1)
    scene, traj, desc = pipeline_dirs
    out = tmp_path / "out"
    (tmp_path / blocked).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / blocked).write_text("not a directory")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_pipeline_config(tmp_path, "out")))
    manifest = str(scene / "manifest.json")
    argv = {
        "synth": ["synth", str(tmp_path / "scene.json"), str(out)],
        "synth-images": ["synth", str(tmp_path / "scene.json"), str(out), "--images"],
        "invert": ["invert", manifest, str(out), str(tmp_path / "d"), "--steps", "2"],
        "extract": ["invert", manifest, str(tmp_path / "t"), str(out), "--steps", "4"],
        "recompose": ["recompose", str(desc), str(traj), str(out),
                      "--atlas", str(scene / "latents_t0.cmt")],
        "pipeline": ["pipeline", str(cfg)],
    }[stage]
    assert main(argv) == 2
    assert "cannot make directory" in capsys.readouterr().err


def test_recompose_checks_every_guided_timestep_before_sampling(
    pipeline_dirs, tmp_path, monkeypatch
):
    # a guided timestep with no enforced pairs in mid-window used to fail only
    # when sampling reached it
    # an archived timestep always has a row, so the reader hands over t004 with none
    scene, traj, desc = pipeline_dirs
    read = pl._read_timestep

    def read_timestep(t_dir, t, sources):
        descs = read(t_dir, t, sources)
        return descs if t != 4 else [
            features.MotionDescriptor(d.source_id, t, d.n_frames, np.zeros((0, 2)),
                                      np.zeros((0, d.n_channels))) for d in descs]

    monkeypatch.setattr(pl, "_read_timestep", read_timestep)
    sampled = []
    monkeypatch.setattr(pl, "ddim_sample", lambda *args, **kwargs: sampled.append(args))
    with pytest.raises(NoValidPairs, match="at timestep 4"):
        pl.run_recompose(
            desc, None, traj, tmp_path / "r",
            denoiser=GaussianAtlasDenoiser([load_tensor(scene / "latents_t0.cmt")],
                                           read_trajectory_index(traj)),
            manifest=load_manifest(scene / "manifest.json"),
            guidance_config=GuidanceConfig(n_inner_steps=1, t_start=6, t_end=2),
        )
    assert sampled == []
    assert not (tmp_path / "r").exists()


def test_default_step_recompose_computes_no_curvature(pipeline_dirs, tmp_path, monkeypatch):
    # the default inner steps are conjugate gradients, which need no step size, so
    # the power iteration behind the stable step never runs
    scene, traj, desc = pipeline_dirs
    eigen, updates = [], []
    top_eigenvalue, guided_update = features._top_eigenvalue, diffusion.guided_update
    monkeypatch.setattr(features, "_top_eigenvalue",
                        lambda a: eigen.append(a) or top_eigenvalue(a))
    monkeypatch.setattr(diffusion, "guided_update",
                        lambda z, *args: updates.append(z) or guided_update(z, *args))
    assert _recompose(desc, traj, scene, tmp_path / "r") == 0
    assert len(updates) > 1 and eigen == []


@pytest.mark.parametrize("change, message", [
    ({"schedule": NoiseSchedule.default(n_steps=4)}, "schedule is not the one"),
])
def test_recompose_rejects_a_denoiser_built_for_another_run(pipeline_dirs, tmp_path,
                                                            change, message):
    scene, traj, desc = pipeline_dirs
    built = {"schedule": read_trajectory_index(traj), "bandwidth": 0.5, **change}
    with pytest.raises(BadValue, match=message):
        pl.run_recompose(
            desc, None, traj, tmp_path / "r",
            denoiser=GaussianAtlasDenoiser([load_tensor(scene / "latents_t0.cmt")], **built),
            manifest=load_manifest(scene / "manifest.json"),
        )
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bandwidth", [0.25, None])
def test_recompose_records_the_denoisers_bandwidth(pipeline_dirs, tmp_path, bandwidth):
    # run.json takes the bandwidth of the denoiser that sampled; a zero denoiser has none
    scene, traj, desc = pipeline_dirs
    denoiser = ZeroDenoiser() if bandwidth is None else GaussianAtlasDenoiser(
        [load_tensor(scene / "latents_t0.cmt")], read_trajectory_index(traj), bandwidth=bandwidth)
    pl.run_recompose(desc, None, traj, tmp_path / "r", denoiser=denoiser,
                     manifest=load_manifest(scene / "manifest.json"), guided=False)
    assert json.loads((tmp_path / "r" / "run.json").read_text())["bandwidth"] == bandwidth


@pytest.mark.parametrize("stage, path, data", [
    ("recompose", "desc/t003/A.json", b"\xff"),
    ("metrics", "scene/manifest.json", b"\xff"),
    ("metrics", "scene/spec.json", b"[" * 100_000),
], ids=["recompose-not-utf8", "metrics-not-utf8", "metrics-nested-too-deep"])
def test_json_that_cannot_be_decoded_is_a_usage_error(pipeline_dirs, tmp_path, capsys,
                                                      stage, path, data):
    # each used to end in a traceback (exit 1)
    scene, traj, desc = pipeline_dirs
    damaged = tmp_path / path
    damaged.write_bytes(data + damaged.read_bytes()[len(data):])
    if stage == "recompose":
        rc = _recompose(desc, traj, scene, tmp_path / "r")
    else:
        (tmp_path / "r").mkdir()
        (tmp_path / "r" / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
        rc = main(["metrics", str(tmp_path / "r"), str(scene)])
    assert rc == 2
    assert f"{damaged}: invalid JSON" in capsys.readouterr().err


def test_recompose_window_past_the_schedule_writes_nothing(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r"),
        "--atlas", str(scene / "latents_t0.cmt"), *_guidance_args(tmp_path, {"t_end": 9}),
    ])
    assert rc == 2
    assert "guidance window empty" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("init", ["fresh", "shared"])
def test_recompose_negative_seed_writes_nothing(pipeline_dirs, tmp_path, capsys, init):
    # a fresh init used to end in a ValueError traceback from the noise generator
    scene, traj, desc = pipeline_dirs
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r"),
        "--atlas", str(scene / "latents_t0.cmt"), "--seed", "-1", "--init", init,
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_metrics_non_finite_threshold_writes_nothing(pipeline_dirs, tmp_path, capsys, threshold):
    # used to exit 0 with every blob reported missing from every frame
    scene, _, _ = pipeline_dirs
    run = tmp_path / "runself"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    assert main(["metrics", str(run), str(scene), "--threshold", threshold]) == 2
    err = capsys.readouterr().err
    assert "threshold must be finite" in err and "Traceback" not in err
    assert not (run / "metrics.json").exists()


def test_recompose_plan_with_unknown_key(pipeline_dirs, tmp_path, capsys):
    # "subject" for "subjects" used to run as a keep-everything plan
    scene, traj, desc = pipeline_dirs
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"subject": {"A": {"op": "remove"}}}))
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r"),
        "--atlas", str(scene / "latents_t0.cmt"), "--plan", str(plan),
    ])
    assert rc == 2
    assert "unknown edit plan keys ['subject']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _copy_t005_over_t004(desc):
    for name in ("A.json", "deltas.cmt"):
        (desc / "t004" / name).write_bytes((desc / "t005" / name).read_bytes())


def _edit_deltas(edit):
    def damage(desc):
        path = desc / "t004" / "deltas.cmt"
        write_array(path, edit(read_array(path)))
    return damage


def _shift_rows(sid, by):
    return lambda desc: _edit_json(desc / "t004" / f"{sid}.json", lambda d: d.update(
        rows=[r + by for r in d["rows"]]))


def _drop_first_row(d):
    d["valid_pairs"], d["rows"] = d["valid_pairs"][1:], [d["rows"][0] + 1, d["rows"][1]]


def _set_pair(k, pair):
    return lambda d: d["valid_pairs"].__setitem__(k, pair)


def _index_case(edit):
    return lambda desc: _edit_json(desc / "extract_index.json", edit)


def _drop(key):
    return _index_case(lambda ix: ix.pop(key))


def _set(key, value):
    return _index_case(lambda ix: ix.update({key: value}))


@pytest.mark.parametrize(
    "damage, message",
    [
        (_copy_t005_over_t004, "holds source 'A' at timestep 5, not 'A' at 4"),
        (lambda desc: _edit_json(desc / "t004" / "A.json",
                                 lambda d: d.update({"tensor": "../t006/A.cmt"})),
         "keys ['tensor']"),
        (_edit_deltas(lambda d: np.concatenate([d, d[:1]])), "do not tile the 46 rows"),
        (_edit_deltas(lambda d: d[:-1]), "0 <= start <= stop <= 44"),
        (_edit_deltas(lambda d: np.concatenate([d, d[:, :1]], axis=1)),
         "descriptors up to timestep 4 have channel counts"),
        (_shift_rows("B", -1), "do not tile"),
        (lambda desc: _edit_json(desc / "t004" / "A.json", _drop_first_row), "do not tile"),
        (lambda desc: _edit_json(desc / "t004" / "A.json",
                                 lambda d: d.update(rows=[d["rows"][0], d["rows"][1] - 1])),
         "hold 14 rows, valid_pairs 15 pairs"),
        (lambda desc: (desc / "t004" / "deltas.cmt").unlink(), "t004/deltas.cmt"),
        (lambda desc: _edit_json(desc / "t004" / "A.json", _set_pair(1, [0, 2.5])),
         "valid_pairs must hold [i, j] pairs of JSON integers"),
        (lambda desc: _edit_json(desc / "t004" / "A.json", _set_pair(0, [0, True])),
         "valid_pairs must hold [i, j] pairs of JSON integers"),
        (lambda desc: _edit_json(desc / "t004" / "A.json",
                                 lambda d: d.update({"source_id": "ghost"})),
         "holds source 'ghost'"),
        (_drop("n_steps"), "missing n_steps"),
        (_drop("timesteps"), "missing timesteps"),
        (_drop("sources"), "missing sources"),
        (_drop("manifest"), "missing manifest"),
        (_set("n_steps", 8.0), "n_steps must be a JSON integer"),
        (_set("timesteps", [0, 1, 2, 3, 4, 5, 6, 7, "8"]), "timesteps must be 0..8"),
        (_set("timesteps", [0, 1, 2]), "timesteps must be 0..8"),
        (_set("sources", "A"), "sources must be a JSON array"),
        (_set("sources", ["A", 5]), "sources must be filesystem-safe strings"),
        (_set("legacy_region", False), "keys ['legacy_region']"),
        (_set("manifest", 5), "manifest must be a JSON string"),
        (_set("manifest", None), "manifest must be a JSON string"),
        (lambda desc: _edit_json(desc / "t004" / "A.json",
                                 lambda d: d.update({"n_frames": 10**20})),
         "has 100000000000000000000 frames, the latents 6"),
    ],
    ids=["stale-t004", "tensor-redirect", "deltas-extra-row", "deltas-missing-row",
         "deltas-extra-channel", "rows-overlap", "rows-gap", "rows-length", "deltas-missing",
         "pair-float", "pair-bool", "source_id-mismatch", "n_steps-missing",
         "timesteps-missing", "sources-missing",
         "manifest-missing", "n_steps-float", "timesteps-string", "timesteps-short",
         "sources-string", "sources-integer", "legacy_region-unknown", "manifest-integer",
         "manifest-null", "n_frames-huge"],
)
def test_recompose_damaged_descriptor_archive_is_a_usage_error(
    pipeline_dirs, tmp_path, capsys, damage, message
):
    # each used to recompose from the wrong descriptors or a misread index (exit 0),
    # or to fail on a file the index does not name
    scene, traj, desc = pipeline_dirs
    damage(desc)
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_recompose_archive_of_another_schedule_is_a_usage_error(pipeline_dirs, tmp_path, capsys):
    # descriptors of a 6-step inversion used to guide sampling on an 8-step schedule
    scene, traj, _ = pipeline_dirs
    traj6, desc6 = tmp_path / "traj6", tmp_path / "desc6"
    assert main(["invert", str(scene / "manifest.json"), str(traj6), str(desc6),
                 "--steps", "6", "--zero-noise"]) == 0
    assert _recompose(desc6, traj, scene, tmp_path / "r") == 2
    assert "descriptors span timesteps 0..6, the trajectory 0..8" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "patch, message",
    [({"frames": "6", "height": 24.7}, "frames must be a JSON integer"),
     ({"height": 24.7}, "height must be a JSON integer"),
     ({"latents": {}}, "no latents for timestep 0")],
    ids=["frames-string", "height-float", "no-clean-latents"],
)
def test_invert_mistyped_manifest_is_a_usage_error(scene_dir, tmp_path, capsys, patch, message):
    # "6" and 24.7 used to be read as 6 and 24 (exit 0), and no t=0 latents
    # ended in a KeyError traceback (exit 1)
    _edit_json(scene_dir / "manifest.json", lambda doc: doc.update(patch))
    rc = main(["invert", str(scene_dir / "manifest.json"), str(tmp_path / "t"),
               str(tmp_path / "d"), "--steps", "2"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, plan, guidance, message",
    [
        (["--bandwidth", "inf"], None, _ONE_STEP, "bandwidth must be finite"),
        ([], _plan_edit({"kind": "scale", "factor": 1e-300, "anchor": [4, 4]}), _ONE_STEP,
         "scale factor 1e-300"),
        ([], None, {"weights": {"A": None}}, "weights: A must be a JSON number, got None"),
        ([], None, {"weights": {"A": "x"}}, "weights: A must be a JSON number, got 'x'"),
        ([], None, {"n_inner_steps": 1, "inner_steps": 1}, "keys ['inner_steps']"),
        ([], None, [1], "guidance.json: expected a JSON object, got list"),
    ],
    ids=["bandwidth", "plan-factor-tiny", "weight-no-value", "weight-string",
         "guidance-unknown-key", "guidance-not-an-object"],
)
def test_recompose_non_finite_values_are_usage_errors(pipeline_dirs, tmp_path, capsys,
                                                      args, plan, guidance, message):
    # --bandwidth inf used to exit 3 on non-finite latents, and a scale by
    # 1e-300 to exit 0 after an int-cast RuntimeWarning; a value that is not a
    # number at all, and a guidance file that is no guidance document, are
    # usage errors too
    scene, traj, desc = pipeline_dirs
    if plan is not None:
        args = args + _plan_args(tmp_path, plan)
    rc = main(["recompose", str(desc), str(traj), str(tmp_path / "r"),
               "--atlas", str(scene / "latents_t0.cmt"), *_guidance_args(tmp_path, guidance),
               *args])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("steps", ["-1", "100000000000"])
def test_invert_step_count_out_of_range_is_a_usage_error(scene_dir, tmp_path, capsys, steps):
    # the huge count used to end in a MemoryError traceback (exit 1)
    rc = main(["invert", str(scene_dir / "manifest.json"), str(tmp_path / "t"),
               str(tmp_path / "d"), "--steps", steps])
    assert rc == 2
    assert f"n_steps must be in 0..10000, got {steps}" in capsys.readouterr().err
    assert not (tmp_path / "t").exists() and not (tmp_path / "d").exists()


def test_invert_infinite_bandwidth_is_a_usage_error(scene_dir, tmp_path, capsys):
    rc = main(["invert", str(scene_dir / "manifest.json"), str(tmp_path / "t"),
               str(tmp_path / "d"), "--steps", "2", "--bandwidth", "inf"])
    assert rc == 2
    assert "bandwidth must be finite" in capsys.readouterr().err


def _wide_scene_latents(tmp_path, n=6):
    """The demo scene's clean latents at 28x28, not 24x24."""
    path = tmp_path / "wide.cmt"
    save_tensor(render_scene(dataclasses.replace(demo_scene(n), height=28, width=28))[0], path)
    return path


def test_invert_atlas_of_another_geometry_is_a_usage_error(scene_dir, tmp_path, capsys):
    # used to end in an einsum ValueError traceback (exit 1) at the first step; every
    # header is checked before the first member is loaded
    good, wide = str(scene_dir / "latents_t0.cmt"), str(_wide_scene_latents(tmp_path))
    for position, atlas in enumerate(([wide], [good, wide])):
        traj, desc = tmp_path / f"traj{position}", tmp_path / f"desc{position}"
        rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), str(desc),
                   "--steps", "2", "--atlas", *atlas])
        assert rc == 2
        assert (f"atlas member {position} has shape (6, 3, 28, 28), the latents (6, 3, 24, 24)"
                in capsys.readouterr().err)
        assert not traj.exists() and not desc.exists()


def test_recompose_atlas_of_another_geometry_is_a_usage_error(pipeline_dirs, tmp_path, capsys):
    # used to end in an einsum ValueError traceback (exit 1) at the first step
    scene, traj, desc = pipeline_dirs
    good, wide = str(scene / "latents_t0.cmt"), str(_wide_scene_latents(tmp_path))
    for position, atlas in enumerate(([wide], [good, wide])):
        out = tmp_path / f"r{position}"
        rc = main(["recompose", str(desc), str(traj), str(out),
                   "--atlas", *atlas, *_guidance_args(tmp_path, _ONE_STEP)])
        assert rc == 2
        assert f"atlas member {position} has shape (6, 3, 28, 28)" in capsys.readouterr().err
        assert not out.exists()


def test_pipeline_atlas_of_another_geometry_is_a_usage_error(tmp_path, capsys):
    # used to end in a traceback (exit 1) after writing scene/ and atlas/
    good = scene_to_json(demo_scene(n=5))
    wide = scene_to_json(dataclasses.replace(demo_scene(n=5), height=28, width=28))
    for position, members in enumerate(([wide], [good, wide])):
        cfg = dict(_pipeline_config(tmp_path, f"run{position}"), atlas_include_reference=False,
                   atlas_scenes=members)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", str(cfg_path)]) == 2
        assert (f"atlas_scenes[{position}] has latents (5, 3, 28, 28), the scene (5, 3, 24, 24)"
                in capsys.readouterr().err)
        assert not Path(cfg["out_dir"]).exists()


class _NanFrom:
    """Predicts zero noise up to timestep ``t``, then NaN."""

    def __init__(self, t):
        self.t = t

    def predict_noise(self, z, t):
        return (np.nan if t >= self.t else 0.0), ()


def test_invert_rerun_that_fails_leaves_no_index(pipeline_dirs, tmp_path, monkeypatch, capsys):
    # the rerun has removed the old trajectory index when t=3 fails, and never
    # writes z_T or a new one; recompose must not sample from the old z_T
    scene, traj, desc = pipeline_dirs
    zT = (traj / "t008.cmt").read_bytes()
    monkeypatch.setattr(pl, "build_denoiser", lambda *args, **kwargs: _NanFrom(3))
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(tmp_path / "d2"),
                 "--steps", "8"]) == 3
    assert "non-finite values at t=3" in capsys.readouterr().err
    assert not (traj / "index.json").exists()
    assert (traj / "t008.cmt").read_bytes() == zT
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert "index.json" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_extract_rerun_over_a_damaged_trajectory_leaves_no_index(pipeline_dirs, tmp_path,
                                                                 monkeypatch, capsys):
    # the rerun has rewritten t000..t002 when the inversion turns non-finite at
    # t=3; recompose must not read them under the old index
    scene, traj, desc = pipeline_dirs
    monkeypatch.setattr(pl, "build_denoiser", lambda *args, **kwargs: _NanFrom(3))
    assert main(["invert", str(scene / "manifest.json"), str(tmp_path / "t2"), str(desc),
                 "--steps", "8"]) == 3
    assert "non-finite values at t=3" in capsys.readouterr().err
    assert not (desc / "extract_index.json").exists()
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert "extract_index.json" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _write_container(path, magic, dims, payload=b""):
    path.write_bytes(magic + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload)


def _rename_mask(old, new):
    def rename(doc):
        doc["masks"] = {new if k == old else k: v for k, v in doc["masks"].items()}

    return lambda scene: _edit_json(scene / "manifest.json", rename)


@pytest.mark.parametrize(
    "damage, message",
    [
        (_rename_mask("A", "background"), "subject id 'background' is reserved"),
        (_rename_mask("A", "../x"), "subject id '../x' is not filesystem-safe"),
        (lambda scene: (scene / "latents_t0.cmt").write_bytes(b"CMT1"), "truncated header"),
        (lambda scene: _write_container(scene / "latents_t0.cmt", b"CMT1", (6, 3, 0, 24)),
         "zero-size dim in (6, 3, 0, 24)"),
        (lambda scene: _write_container(scene / "latents_t0.cmt", b"CMT1", (6, 3, 65536, 65536)),
         "element count overflow"),
        (lambda scene: _write_container(scene / "mask_A.cmm", b"CMM1", (24, 24), bytes(576)),
         "mask mask_A.cmm has dims (24, 24), manifest says (6, 24, 24)"),
        (lambda scene: _truncate(scene / "mask_A.cmm"),
         "header says 3456 bytes, payload holds 3448"),
        (lambda scene: _write_container(scene / "mask_A.cmm", b"CMM1", (6, 24, 20), bytes(2880)),
         "mask mask_A.cmm has dims (6, 24, 20), manifest says (6, 24, 24)"),
    ],
    ids=["mask-id-background", "mask-id-unsafe", "latents-truncated-header",
         "latents-zero-dim", "latents-element-overflow", "mask-2d", "mask-short-payload",
         "mask-other-dims"],
)
def test_extract_damaged_scene_is_a_usage_error(pipeline_dirs, tmp_path, capsys, damage, message):
    # a bad mask id used to fail after the output directory was made, or its
    # first descriptors written
    scene, _, _ = pipeline_dirs
    damage(scene)
    traj, out = tmp_path / "t2", tmp_path / "d2"
    assert main(["invert", str(scene / "manifest.json"), str(traj), str(out), "--steps", "2"]) == 2
    assert message in capsys.readouterr().err
    assert not traj.exists() and not out.exists()


def test_pipeline_tree_does_not_depend_on_blas_threads(tmp_path):
    # one whole-tree check: a stage that starts using BLAS in a thread-dependent
    # way changes some artifact's bytes between the two runs
    members = [scene_to_json(dataclasses.replace(demo_scene(n=5), texture_seed=s))
               for s in (1, 2, 3)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_pipeline_config(tmp_path), atlas_scenes=members)))
    src = str(Path(pl.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "momix.cli", "pipeline", str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


def _rename_key(old, new):
    return lambda doc: doc.update({new: doc.pop(old)})


# file, its edit, and the message naming the key its writer never writes
_UNKNOWN_KEYS = {
    "manifest-extra": ("scene/manifest.json", lambda doc: doc.update(note=1), "keys ['note']"),
    "manifest-mask": ("scene/manifest.json", _rename_key("masks", "mask"), "keys ['mask']"),
    "index-extra": ("traj/index.json", lambda doc: doc.update(note=1), "keys ['note']"),
    "descriptor-extra": ("desc/t005/A.json", lambda doc: doc.update(note=1), "keys ['note']"),
}


# "invert" makes no trajectory archive, "extract" no descriptor archive
@pytest.mark.parametrize("damage, stage", [
    ("manifest-extra", "invert"), ("manifest-extra", "extract"),
    ("manifest-extra", "recompose"), ("manifest-extra", "metrics"),
    ("manifest-mask", "invert"), ("manifest-mask", "extract"),
    ("manifest-mask", "recompose"), ("manifest-mask", "metrics"),
    ("index-extra", "recompose"), ("descriptor-extra", "recompose"),
])
def test_a_key_its_writer_never_writes_is_a_usage_error(pipeline_dirs, tmp_path, capsys,
                                                        damage, stage):
    # each used to be ignored: a manifest with "mask" for "masks" had no
    # subjects, so extraction archived only the background and exited 0
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "run"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    path, edit, message = _UNKNOWN_KEYS[damage]
    _edit_json(tmp_path / path, edit)
    out = tmp_path / "out"
    argv = {
        "invert": ["invert", str(scene / "manifest.json"), str(out), str(tmp_path / "d"),
                   "--steps", "2"],
        "extract": ["invert", str(scene / "manifest.json"), str(tmp_path / "t"), str(out),
                    "--steps", "2"],
        "recompose": ["recompose", str(desc), str(traj), str(out),
                      "--atlas", str(scene / "latents_t0.cmt"),
                      *_guidance_args(tmp_path, _ONE_STEP)],
        "metrics": ["metrics", str(run), str(scene)],
    }[stage]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not (run / "metrics.json").exists()


@pytest.fixture()
def two_channel_scene(tmp_path):
    spec = demo_scene()
    blobs = tuple(dataclasses.replace(b, channel_signature=b.channel_signature[1:])
                  for b in spec.blobs)
    save_scene(dataclasses.replace(spec, n_channels=2, blobs=blobs), tmp_path / "scene2.json")
    assert main(["synth", str(tmp_path / "scene2.json"), str(tmp_path / "scene2")]) == 0
    return tmp_path / "scene2"


@pytest.mark.parametrize("stage, message", [
    ("metrics", "output latents (6, 3, 24, 24) differ from the scene's (6, 2, 24, 24)"),
    ("recompose", "z_T (6, 3, 24, 24) is not the manifest's (6, 2, 24, 24)"),
], ids=["metrics", "recompose"])
def test_latents_of_another_channel_count_are_a_usage_error(pipeline_dirs, two_channel_scene,
                                                            tmp_path, capsys, stage, message):
    # metrics used to end in a ValueError traceback (exit 1); recompose reads
    # the z_T header before any latent, and checks it against the manifest of
    # the descriptor archive it is given, here a 2-channel scene's
    scene, traj, _ = pipeline_dirs
    scene2 = two_channel_scene
    run, out = tmp_path / "run", tmp_path / "out"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    desc2 = tmp_path / "desc2"
    if stage == "recompose":
        assert main(["invert", str(scene2 / "manifest.json"), str(tmp_path / "traj2"),
                     str(desc2), "--steps", "8", "--zero-noise"]) == 0
    argv = {
        "metrics": ["metrics", str(run), str(scene2)],
        "recompose": ["recompose", str(desc2), str(traj), str(out),
                      "--atlas", str(scene2 / "latents_t0.cmt")],
    }[stage]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (run / "metrics.json").exists() and not out.exists()


def test_readme_names_every_cli_option_and_no_other():
    # --floor, --power, --threshold and --zero-weights used to go undocumented
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for sub in commands.choices.values() for action in sub._actions
               for o in action.option_strings if o.startswith("--")} - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "".join(line for line in readme.splitlines(True) if "pip install" not in line)
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", text)) == options

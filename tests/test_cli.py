import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momix import diffusion, features, gradcheck
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
from momix.tensors import LatentVideo, load_manifest, load_tensor, save_tensor


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
         "channel_signature-zero", "channel_signature-underflows"],
)
def test_synth_rejects_mistyped_values(tmp_path, capsys, path, value, message):
    # each used to render a scene from a coerced value, or fail with a traceback;
    # a zero signature, or one whose squares underflow, was written and failed
    # only in metrics
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
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj),
               "--steps", "6", "--zero-noise"])
    assert rc == 0
    index = json.loads((traj / "index.json").read_text())
    assert len(index["files"]) == 7
    z0 = load_tensor(scene_dir / "latents_t0.cmt")
    ab = index["alpha_bar"]
    for t in (2, 6):
        zt = load_tensor(traj / index["files"][str(t)])
        want = np.sqrt(ab[t]) * z0.data
        assert np.max(np.abs(zt.data - want)) < 1e-6


def test_invert_default_run(scene_dir, tmp_path):
    traj = tmp_path / "traj"
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), "--steps", "20"])
    assert rc == 0
    assert len(list(traj.glob("t*.cmt"))) == 21


def test_invert_zero_steps(scene_dir, tmp_path):
    traj = tmp_path / "traj"
    rc = main(["invert", str(scene_dir / "manifest.json"), str(traj),
               "--steps", "0", "--zero-noise"])
    assert rc == 0
    assert len(list(traj.glob("t*.cmt"))) == 1


@pytest.fixture()
def pipeline_dirs(scene_dir, tmp_path):
    traj = tmp_path / "traj"
    desc = tmp_path / "desc"
    assert main(["invert", str(scene_dir / "manifest.json"), str(traj),
                 "--steps", "8", "--zero-noise"]) == 0
    assert main(["extract", str(traj), str(scene_dir / "manifest.json"), str(desc)]) == 0
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
    assert main(["invert", str(scene / "manifest.json"), str(traj),
                 "--steps", "4", "--zero-noise"]) == 0
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(desc)]) == 0
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
    assert main(["invert", str(scene / "manifest.json"), str(traj),
                 "--steps", "3", "--zero-noise"]) == 0
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(desc)]) == 0
    index = json.loads((desc / "extract_index.json").read_text())
    assert "ghost" not in index["sources"]


def test_recompose_all_keep_self_transfer(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "run"
    rc = main([
        "recompose", str(desc), str(traj), str(run),
        "--atlas", str(scene / "latents_t0.cmt"),
        "--inner-steps", "5", "--t-end", "1",
    ])
    assert rc == 0
    assert (run / "output.cmt").exists()
    assert (run / "trace.jsonl").exists()
    out = capsys.readouterr().out
    assert "first loss" in out
    # metrics: extracted target descriptors land within 5% relative L2
    rc = main(["metrics", str(run), str(scene), "--desc", str(desc)])
    assert rc == 0
    report = json.loads((run / "metrics.json").read_text())
    for source, entry in report["descriptor_distances"].items():
        if entry["relative_l2"] is None:
            # static source: the reference deltas are all zero, compare absolutely
            assert entry["distance"] <= 1e-6, (source, entry)
        else:
            assert entry["relative_l2"] <= 0.05, (source, entry)


def test_recompose_unknown_subject(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r2"),
        "--atlas", str(scene / "latents_t0.cmt"),
        "--remove", "nope",
    ])
    assert rc == 2
    assert "unknown subject" in capsys.readouterr().err


def test_recompose_missing_desc_dir(pipeline_dirs, tmp_path, capsys):
    scene, traj, _ = pipeline_dirs
    rc = main([
        "recompose", str(tmp_path / "nowhere"), str(traj), str(tmp_path / "r3"),
        "--atlas", str(scene / "latents_t0.cmt"),
    ])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_extract_trajectory_index_without_alpha_bar(pipeline_dirs, tmp_path, capsys):
    scene, traj, _ = pipeline_dirs
    index = json.loads((traj / "index.json").read_text())
    del index["alpha_bar"]
    (traj / "index.json").write_text(json.dumps(index))
    rc = main(["extract", str(traj), str(scene / "manifest.json"), str(tmp_path / "d2")])
    assert rc == 2
    assert "alpha_bar" in capsys.readouterr().err


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


def test_extract_baseline_prints_both_distances(tmp_path, capsys):
    # isolated-subject baseline lets extract print refined and legacy distances
    iso = SceneSpec(
        n_frames=5, n_channels=3, height=24, width=24,
        blobs=(demo_scene(5).blobs[0],),
        texture_seed=7, texture_amplitude=0.8,
    )
    iso_path = tmp_path / "iso.json"
    save_scene(iso, iso_path)
    iso_scene = tmp_path / "iso_scene"
    iso_traj = tmp_path / "iso_traj"
    iso_desc = tmp_path / "iso_desc"
    assert main(["synth", str(iso_path), str(iso_scene)]) == 0
    assert main(["invert", str(iso_scene / "manifest.json"), str(iso_traj),
                 "--steps", "2", "--zero-noise"]) == 0
    assert main(["extract", str(iso_traj), str(iso_scene / "manifest.json"),
                 str(iso_desc)]) == 0

    spec_path = tmp_path / "multi.json"
    save_scene(demo_scene(5), spec_path)
    scene = tmp_path / "scene"
    traj = tmp_path / "traj"
    desc = tmp_path / "desc"
    assert main(["synth", str(spec_path), str(scene)]) == 0
    assert main(["invert", str(scene / "manifest.json"), str(traj),
                 "--steps", "2", "--zero-noise"]) == 0
    capsys.readouterr()
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(desc),
                 "--baseline", str(iso_desc)]) == 0
    out = capsys.readouterr().out
    assert "refined A: distance to baseline" in out
    assert "legacy A: distance to baseline" in out


def test_extract_with_a_missing_baseline_writes_nothing(pipeline_dirs, tmp_path, capsys):
    # used to write the whole descriptor archive before reading the baseline
    scene, traj, _ = pipeline_dirs
    out = tmp_path / "desc2"
    rc = main(["extract", str(traj), str(scene / "manifest.json"), str(out),
               "--baseline", str(tmp_path / "nowhere")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims, message", [
    ({"n_channels": 2}, "has 6 frames x 2 channels, the scene 6 x 3"),
    ({"n_frames": 5}, "has 5 frames x 3 channels, the scene 6 x 3"),
], ids=["channels", "frames"])
def test_extract_baseline_of_another_geometry_writes_nothing(pipeline_dirs, tmp_path, capsys,
                                                             dims, message):
    # used to write every t### and extract_index.json, then exit 2 from the distances
    scene, traj, _ = pipeline_dirs
    blob = demo_scene(5).blobs[0]
    n_frames, n_channels = dims.get("n_frames", 6), dims.get("n_channels", 3)
    iso = SceneSpec(n_frames=n_frames, n_channels=n_channels, height=24, width=24,
                    blobs=(BlobSpec("A", blob.trajectory[:1] * n_frames, 2.5,
                                    (0,) * (n_channels - 1) + (2.5,)),))
    save_scene(iso, tmp_path / "iso.json")
    iso_scene, iso_traj, iso_desc = (tmp_path / f"iso_{n}" for n in ("scene", "traj", "desc"))
    assert main(["synth", str(tmp_path / "iso.json"), str(iso_scene)]) == 0
    assert main(["invert", str(iso_scene / "manifest.json"), str(iso_traj),
                 "--steps", "2", "--zero-noise"]) == 0
    assert main(["extract", str(iso_traj), str(iso_scene / "manifest.json"), str(iso_desc)]) == 0
    capsys.readouterr()
    out = tmp_path / "desc2"
    rc = main(["extract", str(traj), str(scene / "manifest.json"), str(out),
               "--baseline", str(iso_desc)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_extract_has_no_legacy_region_flag(pipeline_dirs, tmp_path, capsys):
    # the refined regions are the only ones a stage archives; the legacy ones
    # remain a library keyword and a --baseline printout
    scene, traj, _ = pipeline_dirs
    with pytest.raises(SystemExit) as exit_:
        main(["extract", str(traj), str(scene / "manifest.json"), str(tmp_path / "d"),
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


@pytest.mark.parametrize("extra, plan, message", [
    ([], {"subjects": {"ghost": {"op": "remove"}}}, "plan names subject 'ghost'"),
    ([], {"subjects": {"ghost": {"op": "mask_edit", "edit": {"kind": "shift", "dx": 2}}}},
     "plan names subject 'ghost'"),
    (["--weight", "ghost=1"], None, "weight for source 'ghost'"),
    (["--t-end", "100"], None, "guidance window empty"),
], ids=["plan-remove", "plan-mask-edit", "weight", "window"])
def test_unguided_recompose_checks_the_plan_and_guidance(
    pipeline_dirs, tmp_path, capsys, extra, plan, message
):
    # each used to sample and exit 0 without guidance, though a guided run exits 2
    scene, traj, desc = pipeline_dirs
    if plan is not None:
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        extra = extra + ["--plan", str(tmp_path / "plan.json")]
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
        "--atlas", str(scene / "latents_t0.cmt"),
        "--camera-only", "--init", "shared", "--inner-steps", "2",
    ])
    assert rc == 0
    assert (run / "output.cmt").exists()
    trace = [json.loads(l) for l in (run / "trace.jsonl").read_text().splitlines()]
    assert trace  # background guidance ran and was recorded


def test_plan_from_args_switches(scene_dir):
    import argparse

    from momix.cli import _plan_from_args
    from momix.tensors import load_manifest

    manifest = load_manifest(scene_dir / "manifest.json")
    args = argparse.Namespace(
        plan=None, soften=2.0, remove=["B"], camera_only=False,
        shift=[["A", "8", "0"]], resize=[], weight=[],
    )
    plan = _plan_from_args(args, manifest)
    assert plan.directives["A"].kind == "mask_edit"
    assert plan.directives["A"].edit.dx == 8
    assert plan.directives["B"].kind == "remove"
    assert plan.w_c == 2.0

    args2 = argparse.Namespace(
        plan=None, soften=None, remove=[], camera_only=True,
        shift=[], resize=[["A", "2.0"]], weight=[],
    )
    plan2 = _plan_from_args(args2, manifest)
    edit = plan2.directives["A"].edit
    assert edit.kind == "scale" and edit.factor == 2.0
    assert edit.anchor == (11.5, 11.5)
    assert plan2.camera_only


def _recompose(desc, traj, scene, run):
    return main([
        "recompose", str(desc), str(traj), str(run),
        "--atlas", str(scene / "latents_t0.cmt"), "--inner-steps", "1",
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
    # only the window's
    scene, traj, desc = pipeline_dirs
    opened, load = [], pl.load_descriptor

    def load_descriptor(path):
        opened.append(Path(path).parent.name)
        return load(path)

    monkeypatch.setattr(pl, "load_descriptor", load_descriptor)
    assert _recompose(desc, traj, scene, tmp_path / "r") == 0
    assert sorted(set(opened)) == [f"t{t:03d}" for t in range(3, 9)]


def test_recompose_reads_only_the_terminal_latents(pipeline_dirs, tmp_path):
    # sampling starts from z_T, so a damaged t000 does not reach it
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
        (lambda traj: _edit_index(traj, lambda ix: ix["files"].pop("3")), "0..8"),
        (lambda traj: _edit_index(traj, lambda ix: ix["files"].update({"9": "t008.cmt"})),
         "0..8"),
        (lambda traj: _edit_index(traj, lambda ix: ix["files"].update({"8": "t007.cmt"})),
         "0..8"),
        (lambda traj: _edit_index(traj, lambda ix: ix.update({"n_steps": 8.9})),
         "n_steps must be a JSON integer"),
    ],
    ids=["terminal-missing", "terminal-truncated", "files-short", "files-extra",
         "files-renamed", "n_steps-float"],
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
    # an explicit --manifest still resolves against the current directory
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r2"),
        "--atlas", str(scene / "latents_t0.cmt"), "--manifest", recorded,
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"guidance": {"w_c": 1}}, "unknown guidance config keys ['w_c']"),
        ({"guidance": {"n_inner_step": 3}}, "unknown guidance config keys ['n_inner_step']"),
        ({"guidence": {"n_inner_steps": 3}}, "unknown pipeline config keys ['guidence']"),
        ({"schedule": {"n_step": 6}}, "unknown schedule keys ['n_step']"),
        ({"metrics": {"treshold": 0.4}}, "unknown metrics keys ['treshold']"),
        ({"legacy_region": False}, "unknown pipeline config keys ['legacy_region']"),
    ],
    ids=["guidance-w_c", "guidance-typo", "top-level-typo", "schedule-typo", "metrics-typo",
         "legacy_region"],
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
        ({"plan": {"w_c": "0.5"}}, "malformed edit plan: w_c must be a JSON number"),
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
    ],
    ids=[
        "schedule", "bandwidth", "seed", "seed-float", "n_steps-float", "guided",
        "atlas_include_reference", "invert_denoiser", "init",
        "t_end-string", "t_end-float", "t_start-bool", "n_inner_steps-float",
        "window-past-n_steps", "plan-camera_only", "step_size-string", "step_size-bool",
        "step_size-infinite", "weight-string", "weight-bool", "weight-nan", "bandwidth-bool",
        "bandwidth-infinite", "power-string", "floor-infinite", "threshold-bool", "plan-w_c",
        "seed-negative", "plan-unknown-subject", "plan-background", "weight-unknown-source",
        "n_steps-past-the-cap", "blob-id-unsafe", "blob-id-background", "blob-id-duplicate",
        "bandwidth-zero", "bandwidth-negative", "anchor-outside", "factor-tiny",
        "atlas_scenes-string", "keep-w_c", "remove-edit", "shift-factor", "shift-anchor",
        "scale-dy", "radius-square-overflows", "bandwidth-square-overflows",
        "n_inner_steps-past-the-cap", "n_inner_steps-huge", "channel_signature-zero",
        "channel_signature-underflows",
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
               "--atlas", str(scene / "latents_t0.cmt"), "--weight", "Z=5"])
    assert rc == 2
    assert "weight for source 'Z'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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
        "invert": ["invert", manifest, str(out), "--steps", "2"],
        "extract": ["extract", str(traj), manifest, str(out)],
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
    scene, traj, desc = pipeline_dirs
    for path in (desc / "t004").glob("*.json"):
        doc = json.loads(path.read_text())
        doc["valid_pairs"] = []
        path.write_text(json.dumps(doc))
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


def test_guided_recompose_sizes_its_default_step_once(pipeline_dirs, tmp_path, monkeypatch):
    # every guided timestep shares one operator and one weight vector, so the
    # power iteration behind the default step runs once per run
    scene, traj, desc = pipeline_dirs
    eigen, updates = [], []
    top_eigenvalue, guided_update = features._top_eigenvalue, diffusion.guided_update
    monkeypatch.setattr(features, "_top_eigenvalue",
                        lambda a: eigen.append(a) or top_eigenvalue(a))
    monkeypatch.setattr(diffusion, "guided_update",
                        lambda z, *args: updates.append(z) or guided_update(z, *args))
    assert _recompose(desc, traj, scene, tmp_path / "r") == 0
    assert len(updates) > 1 and len(eigen) == 1


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
        rc = main(["metrics", str(tmp_path / "r"), str(scene), "--desc", str(desc)])
    assert rc == 2
    assert f"{damaged}: invalid JSON" in capsys.readouterr().err


def test_recompose_window_past_the_schedule_writes_nothing(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r"),
        "--atlas", str(scene / "latents_t0.cmt"), "--t-end", "9",
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
    for suffix in (".json", ".cmt"):
        (desc / "t004" / f"A{suffix}").write_bytes((desc / "t005" / f"A{suffix}").read_bytes())


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
         "tensor must be 'A.cmt'"),
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
        (_set("manifest", None), "no manifest recorded at extract time; pass --manifest"),
        (lambda desc: _edit_json(desc / "t004" / "A.json",
                                 lambda d: d.update({"n_frames": 10**20})),
         "has 100000000000000000000 frames, the latents 6"),
    ],
    ids=["stale-t004", "tensor-redirect", "pair-float", "pair-bool", "source_id-mismatch",
         "n_steps-missing", "timesteps-missing", "sources-missing",
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
    assert main(["invert", str(scene / "manifest.json"), str(traj6),
                 "--steps", "6", "--zero-noise"]) == 0
    assert main(["extract", str(traj6), str(scene / "manifest.json"), str(desc6)]) == 0
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
    rc = main(["invert", str(scene_dir / "manifest.json"), str(tmp_path / "t"), "--steps", "2"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--soften", "inf"], "w_c must be finite"),
        (["--bandwidth", "inf"], "bandwidth must be finite"),
        (["--resize", "A", "inf"], "scale factor must be finite"),
        (["--resize", "A", "1e-300"], "scale factor 1e-300"),
        (["--weight", "A"], "--weight expects ID=W, got 'A'"),
        (["--weight", "A=x"], "--weight expects a numeric value, got 'A=x'"),
        (["--shift", "A", "1", "x"], "--shift expects integer dx dy, got '1' 'x'"),
        (["--resize", "A", "x"], "--resize expects a numeric factor, got 'x'"),
    ],
    ids=["soften", "bandwidth", "resize-infinite", "resize-tiny", "weight-no-value",
         "weight-string", "shift-string", "resize-string"],
)
def test_recompose_non_finite_values_are_usage_errors(pipeline_dirs, tmp_path, capsys,
                                                      args, message):
    # --soften inf and --bandwidth inf used to exit 3 on non-finite latents,
    # and both resizes to exit 0 (the tiny one after an int-cast RuntimeWarning);
    # a value that is not a number at all is a usage error too
    scene, traj, desc = pipeline_dirs
    rc = main(["recompose", str(desc), str(traj), str(tmp_path / "r"),
               "--atlas", str(scene / "latents_t0.cmt"), "--inner-steps", "1", *args])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("steps", ["-1", "100000000000"])
def test_invert_step_count_out_of_range_is_a_usage_error(scene_dir, tmp_path, capsys, steps):
    # the huge count used to end in a MemoryError traceback (exit 1)
    rc = main(["invert", str(scene_dir / "manifest.json"), str(tmp_path / "t"), "--steps", steps])
    assert rc == 2
    assert f"n_steps must be in 0..10000, got {steps}" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_invert_infinite_bandwidth_is_a_usage_error(scene_dir, tmp_path, capsys):
    rc = main(["invert", str(scene_dir / "manifest.json"), str(tmp_path / "t"),
               "--steps", "2", "--bandwidth", "inf"])
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
        traj = tmp_path / f"traj{position}"
        rc = main(["invert", str(scene_dir / "manifest.json"), str(traj), "--steps", "2",
                   "--atlas", *atlas])
        assert rc == 2
        assert (f"atlas member {position} has shape (6, 3, 28, 28), the latents (6, 3, 24, 24)"
                in capsys.readouterr().err)
        assert not traj.exists()


def test_recompose_atlas_of_another_geometry_is_a_usage_error(pipeline_dirs, tmp_path, capsys):
    # used to end in an einsum ValueError traceback (exit 1) at the first step
    scene, traj, desc = pipeline_dirs
    good, wide = str(scene / "latents_t0.cmt"), str(_wide_scene_latents(tmp_path))
    for position, atlas in enumerate(([wide], [good, wide])):
        out = tmp_path / f"r{position}"
        rc = main(["recompose", str(desc), str(traj), str(out),
                   "--atlas", *atlas, "--inner-steps", "1"])
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


def test_invert_rerun_that_fails_leaves_no_index(scene_dir, tmp_path, monkeypatch, capsys):
    # the rerun streams its latents over the old ones; without the old index
    # extract cannot read that mix as one trajectory
    manifest, traj = str(scene_dir / "manifest.json"), tmp_path / "traj"
    assert main(["invert", manifest, str(traj), "--steps", "8"]) == 0
    monkeypatch.setattr(pl, "build_denoiser", lambda *args, **kwargs: _NanFrom(3))
    assert main(["invert", manifest, str(traj), "--steps", "8"]) == 3
    assert "non-finite values at t=3" in capsys.readouterr().err
    assert not (traj / "index.json").exists()
    assert main(["extract", str(traj), manifest, str(tmp_path / "desc")]) == 2
    assert "index.json" in capsys.readouterr().err


def test_extract_rerun_over_a_damaged_trajectory_leaves_no_index(pipeline_dirs, tmp_path, capsys):
    # the rerun has rewritten t000..t004 when t005 fails; recompose must not
    # read them under the old index
    scene, traj, desc = pipeline_dirs
    (traj / "t005.cmt").write_bytes(b"garbage")
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(desc)]) == 2
    assert "t005.cmt" in capsys.readouterr().err
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
    scene, traj, _ = pipeline_dirs
    damage(scene)
    out = tmp_path / "d2"
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_extract_rejects_a_timestep_of_another_shape(pipeline_dirs, capsys):
    # used to exit 0, leaving recompose to fail one stage later on the channel count
    scene, traj, desc = pipeline_dirs
    t5 = load_tensor(traj / "t005.cmt")
    save_tensor(LatentVideo(t5.data[:, :2]), traj / "t005.cmt")
    written = tree_digest(desc / "t005")
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(desc)]) == 2
    assert "latents (6, 2, 24, 24) differ from t=0's (6, 3, 24, 24)" in capsys.readouterr().err
    assert tree_digest(desc / "t005") == written
    assert not (desc / "extract_index.json").exists()


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


@pytest.mark.parametrize("damage, stage", [
    ("manifest-extra", "invert"), ("manifest-extra", "extract"),
    ("manifest-extra", "recompose"), ("manifest-extra", "metrics"),
    ("manifest-mask", "invert"), ("manifest-mask", "extract"),
    ("manifest-mask", "recompose"), ("manifest-mask", "metrics"),
    ("index-extra", "extract"), ("index-extra", "recompose"),
    ("descriptor-extra", "recompose"),
])
def test_a_key_its_writer_never_writes_is_a_usage_error(pipeline_dirs, tmp_path, capsys,
                                                        damage, stage):
    # each used to be ignored: a manifest with "mask" for "masks" had no
    # subjects, so extract archived only the background and exited 0
    scene, traj, desc = pipeline_dirs
    run = tmp_path / "run"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    path, edit, message = _UNKNOWN_KEYS[damage]
    _edit_json(tmp_path / path, edit)
    out = tmp_path / "out"
    argv = {
        "invert": ["invert", str(scene / "manifest.json"), str(out), "--steps", "2"],
        "extract": ["extract", str(traj), str(scene / "manifest.json"), str(out)],
        "recompose": ["recompose", str(desc), str(traj), str(out),
                      "--atlas", str(scene / "latents_t0.cmt"), "--inner-steps", "1"],
        "metrics": ["metrics", str(run), str(scene)],
    }[stage]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not (run / "metrics.json").exists()


@pytest.fixture()
def two_channel_dirs(tmp_path):
    spec = demo_scene()
    blobs = tuple(dataclasses.replace(b, channel_signature=b.channel_signature[1:])
                  for b in spec.blobs)
    save_scene(dataclasses.replace(spec, n_channels=2, blobs=blobs), tmp_path / "scene2.json")
    scene, traj, desc = (tmp_path / d for d in ("scene2", "traj2", "desc2"))
    assert main(["synth", str(tmp_path / "scene2.json"), str(scene)]) == 0
    assert main(["invert", str(scene / "manifest.json"), str(traj),
                 "--steps", "8", "--zero-noise"]) == 0
    assert main(["extract", str(traj), str(scene / "manifest.json"), str(desc)]) == 0
    return scene, traj, desc


@pytest.mark.parametrize("stage, message", [
    ("metrics", "output latents (6, 3, 24, 24) differ from the scene's (6, 2, 24, 24)"),
    ("metrics-desc", "channel counts differ: 2 vs 3"),
    ("extract", "latents (6, 3, 24, 24) differ from the manifest's (6, 2, 24, 24)"),
], ids=["metrics", "metrics-desc", "extract"])
def test_latents_of_another_channel_count_are_a_usage_error(pipeline_dirs, two_channel_dirs,
                                                            tmp_path, capsys, stage, message):
    # both metrics cases used to end in a ValueError traceback (exit 1), and
    # extract of a 3-channel trajectory over a 2-channel manifest exited 0
    scene, traj, _ = pipeline_dirs
    scene2, _, desc2 = two_channel_dirs
    run, out = tmp_path / "run", tmp_path / "out"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    argv = {
        "metrics": ["metrics", str(run), str(scene2)],
        "metrics-desc": ["metrics", str(run), str(scene), "--desc", str(desc2)],
        "extract": ["extract", str(traj), str(scene2 / "manifest.json"), str(out)],
    }[stage]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (run / "metrics.json").exists() and not out.exists()

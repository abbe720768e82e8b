import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from momix import pipeline as pl
from momix.cli import main
from momix.errors import NoValidPairs
from momix.guidance import GuidanceConfig
from momix.pipeline import load_references
from momix.synth import BlobSpec, SceneSpec, save_scene
from momix.tensors import load_manifest, load_tensor


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
    assert (scene_dir / "trajectories.json").exists()


def test_synth_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["synth", str(bad), str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


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
    refs = load_references(desc)
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
    assert "vacuous" in out


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
    scene, traj, desc = pipeline_dirs
    doc = json.loads((desc / "t001" / "A.json").read_text())
    del doc["valid_pairs"]
    (desc / "t001" / "A.json").write_text(json.dumps(doc))
    assert _recompose(desc, traj, scene, tmp_path / "r") == 2
    assert "valid_pairs" in capsys.readouterr().err


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
    ],
    ids=["guidance-w_c", "guidance-typo", "top-level-typo", "schedule-typo", "metrics-typo"],
)
def test_pipeline_rejects_unknown_config_keys(tmp_path, capsys, patch, message):
    cfg = dict(_pipeline_config(tmp_path), **patch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not Path(cfg["out_dir"]).exists()  # rejected before any stage ran


_MALFORMED = "malformed pipeline config"


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"schedule": {"n_steps": "x"}}, _MALFORMED),
        ({"bandwidth": "wide"}, _MALFORMED),
        ({"seed": "s"}, _MALFORMED),
        ({"seed": 5.0}, _MALFORMED),
        ({"schedule": {"n_steps": 6.5}}, _MALFORMED),
        ({"guided": "false"}, "guided must be a JSON boolean"),
        ({"legacy_region": "no"}, "legacy_region must be a JSON boolean"),
        ({"atlas_include_reference": 1}, "atlas_include_reference must be a JSON boolean"),
        ({"invert_denoiser": "zeros"}, "invert_denoiser must be one of ['atlas', 'zero']"),
        ({"init": "fersh"}, "init must be one of ['auto', 'shared', 'fresh']"),
        ({"guidance": {"t_end": "1"}}, "malformed guidance config: t_end must be a JSON integer"),
        ({"guidance": {"t_end": 1.5}}, "t_end must be a JSON integer"),
        ({"guidance": {"t_start": True}}, "t_start must be a JSON integer"),
        ({"guidance": {"n_inner_steps": 2.9}}, "n_inner_steps must be a JSON integer"),
        ({"guidance": {"t_end": 7}}, "guidance window empty"),
        ({"plan": {"camera_only": "false"}}, "malformed edit plan: camera_only"),
    ],
    ids=[
        "schedule", "bandwidth", "seed", "seed-float", "n_steps-float", "guided",
        "legacy_region", "atlas_include_reference", "invert_denoiser", "init",
        "t_end-string", "t_end-float", "t_start-bool", "n_inner_steps-float",
        "window-past-n_steps", "plan-camera_only",
    ],
)
def test_pipeline_rejects_mistyped_values(tmp_path, capsys, patch, message):
    # each used to run on a misread value, or fail only after the scene was written
    cfg = dict(_pipeline_config(tmp_path), **patch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not Path(cfg["out_dir"]).exists()


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
            atlas=[load_tensor(scene / "latents_t0.cmt")],
            manifest=load_manifest(scene / "manifest.json"),
            guidance_config=GuidanceConfig(n_inner_steps=1, t_start=6, t_end=2),
        )
    assert sampled == []
    assert not (tmp_path / "r").exists()


def test_recompose_window_past_the_schedule_writes_nothing(pipeline_dirs, tmp_path, capsys):
    scene, traj, desc = pipeline_dirs
    rc = main([
        "recompose", str(desc), str(traj), str(tmp_path / "r"),
        "--atlas", str(scene / "latents_t0.cmt"), "--t-end", "9",
    ])
    assert rc == 2
    assert "guidance window empty" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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


def test_metrics_trajectories_without_subject(pipeline_dirs, tmp_path, capsys):
    scene, _, _ = pipeline_dirs
    run = tmp_path / "runself"
    run.mkdir()
    (run / "output.cmt").write_bytes((scene / "latents_t0.cmt").read_bytes())
    (scene / "trajectories.json").write_text("{}")
    assert main(["metrics", str(run), str(scene)]) == 2
    assert "no true trajectory" in capsys.readouterr().err

"""Damaged artifacts and mistyped configs end in a documented exit code, never in a traceback.

One small real run (the 6-frame 24x24 demo scene, 6 DDIM steps) is built
once. Each example copies it, damages one artifact (truncates, overwrites
or deletes a file, or sets or renames one key of a JSON document), and runs
every stage that reads artifacts: each must exit 0, 2 or 3.

The config fuzz sets one field, at any level, of a small pipeline config
(2 DDIM steps) or of the demo scene spec to one of a fixed set of probe
values, and runs ``momix pipeline`` or ``momix synth``: each must exit 0,
2 or 3, and on exit 2 must not have made its output directory.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momix.cli import main
from momix.synth import save_scene, scene_to_json

from test_cli import demo_scene

N_STEPS = 6
SOURCES = ("A", "B", "background")
JSON_FILES = (
    ["scene/manifest.json", "scene/spec.json", "traj/index.json", "desc/extract_index.json",
     "run/run.json"]
    + [f"desc/t{t:03d}/{sid}.json" for t in range(N_STEPS + 1) for sid in SOURCES]
)
ARTIFACTS = sorted(
    JSON_FILES
    + ["scene/latents_t0.cmt", "scene/mask_A.cmm", "scene/mask_B.cmm", "run/output.cmt",
       "run/trace.jsonl"]
    + [f"traj/t{N_STEPS:03d}.cmt"]  # z_T, the one latent the archive keeps
    + [f"desc/t{t:03d}/deltas.cmt" for t in range(N_STEPS + 1)]
)
ONE_STEP = json.dumps({"n_inner_steps": 1})
VALUES = (None, True, False, -1, 10**20, 1.5, "x", [0, 1], {"k": 0})
NAMES = ("mask", "x", "n_step", "background")

_damage = st.one_of(
    st.tuples(st.just("truncate"), st.sampled_from(ARTIFACTS), st.integers(0, 2**16)),
    st.tuples(st.just("overwrite"), st.sampled_from(ARTIFACTS), st.integers(0, 2**16),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.sampled_from(ARTIFACTS)),
    st.tuples(st.just("set"), st.sampled_from(JSON_FILES), st.integers(0, 2**16),
              st.sampled_from(VALUES)),
    st.tuples(st.just("rename"), st.sampled_from(JSON_FILES), st.integers(0, 2**16),
              st.sampled_from(NAMES)),
)


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    guidance = tmp_path_factory.mktemp("fuzz-guidance") / "guidance.json"
    guidance.write_text(ONE_STEP)  # outside the run, so never in a damaged copy
    save_scene(demo_scene(), root / "spec.json")
    scene, traj, desc, run = (str(root / d) for d in ("scene", "traj", "desc", "run"))
    assert main(["synth", str(root / "spec.json"), scene]) == 0
    assert main(["invert", f"{scene}/manifest.json", traj, desc, "--steps", str(N_STEPS)]) == 0
    assert main(["recompose", desc, traj, run, "--atlas", f"{scene}/latents_t0.cmt",
                 "--guidance", str(guidance)]) == 0
    assert main(["metrics", run, scene, "--out", str(root / "metrics.json")]) == 0
    for path in ("spec.json", "metrics.json"):  # no stage reads these
        (root / path).unlink()
    files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    assert files == ARTIFACTS
    return root


def _fields(doc):
    """(container, key) of every value nested in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = []
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out.extend(_fields(value))
    return out


def _apply(damage, root: Path) -> None:
    kind, path = damage[0], root / damage[1]
    if kind == "delete":
        path.unlink()
        return
    data = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(data[:damage[2] % len(data)])
    elif kind == "overwrite":
        at = damage[2] % len(data)
        path.write_bytes(data[:at] + damage[3] + data[at + len(damage[3]):])
    else:
        doc = json.loads(data)
        fields = _fields(doc)
        if kind == "rename":  # one key of an object, its value kept
            fields = [(container, key) for container, key in fields if isinstance(key, str)]
            container, key = fields[damage[2] % len(fields)]
            container[damage[3]] = container.pop(key)
        else:
            container, key = fields[damage[2] % len(fields)]
            container[key] = damage[3]
        path.write_text(json.dumps(doc))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(damage=_damage)
# one non-UTF-8 byte in a JSON file a stage reads
@example(damage=("overwrite", "desc/t003/A.json", 0, b"\xff"))
@example(damage=("overwrite", "scene/manifest.json", 0, b"\xff"))
# a descriptor's n_frames far beyond the latents' frame count, plain and softened
@example(damage=("set", "desc/t004/A.json", 0, 10**20))
@example(damage=("set", "desc/t004/background.json", 0, 10**20))
@example(damage=("set", "desc/t000/B.json", 0, 10**20))
# "mask" for "masks" (the manifest's key 5 in document order): no subjects at all
@example(damage=("rename", "scene/manifest.json", 5, "mask"))
# a z_T header of 5 frames, where the manifest has 6, and a trajectory index
# that names a "files" map, as an archive of every latent did
@example(damage=("overwrite", "traj/t006.cmt", 8, b"\x05"))
@example(damage=("rename", "traj/index.json", 0, "files"))
def test_damaged_artifacts_exit_with_a_documented_code(base_run, damage):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        shutil.copytree(base_run, root)
        _apply(damage, root)
        scene, traj, desc, run, out = (str(root / d) for d in ("scene", "traj", "desc", "run",
                                                                   "out"))
        guidance = Path(tmp) / "guidance.json"  # outside the copy, so never damaged
        guidance.write_text(ONE_STEP)
        recompose = ["recompose", desc, traj, f"{out}/r", "--atlas", f"{scene}/latents_t0.cmt",
                     "--guidance", str(guidance)]
        soften = Path(tmp) / "soften.json"
        soften.write_text(json.dumps({"subjects": {"A": {"op": "soften", "w_c": 1}}}))
        commands = [
            ["invert", f"{scene}/manifest.json", f"{out}/traj", f"{out}/desc", "--steps",
             str(N_STEPS)],
            recompose,
            recompose + ["--plan", str(soften)],
            ["metrics", run, scene, "--out", f"{out}/metrics.json"],
        ]
        codes = [main(argv) for argv in commands]
        assert set(codes) <= {0, 2, 3}, (damage, codes)


# the pipeline config of tests/test_cli.py at 2 DDIM steps, with a weight and a
# plan entry so that those sections have fields to set too
PIPELINE = {
    "out_dir": "unused",  # --out overrides it, so no example writes outside its directory
    "seed": 5,
    "scene": scene_to_json(demo_scene(n=5)),
    "schedule": {"n_steps": 2, "power": 2.0, "floor": 1e-4},
    "bandwidth": 0.5,
    "guidance": {"n_inner_steps": 2, "t_end": 1, "weights": {"A": 1.0}},
    "plan": {"subjects": {"B": {"op": "soften", "w_c": 0.5}}},
    "init": "shared",
    "metrics": {"threshold": 0.5},
}
SPEC = scene_to_json(demo_scene())
PROBES = (None, True, False, -1, 0, 10**20, 1e300, -1e-300, 1.5, "x", [0, 1], {"k": 0}, [], {})


def _paths(doc, prefix=()):
    """The path of every value nested in a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = []
    for key, value in items:
        out.append((*prefix, key))
        if isinstance(value, (dict, list)):
            out.extend(_paths(value, (*prefix, key)))
    return out


_setting = st.one_of(
    st.tuples(st.just("pipeline"), st.sampled_from(_paths(PIPELINE))),
    st.tuples(st.just("synth"), st.sampled_from(_paths(SPEC))),
)
_POINT = ("blobs", 0, "trajectory", 0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(setting=_setting, value=st.sampled_from(PROBES))
# a point whose squared offset from the frame overflows float64
@example(setting=("pipeline", ("scene", *_POINT)), value=[1e300, 4.0])
@example(setting=("synth", _POINT), value=[1e300, 4.0])
# a radius of 1e20 on A hides B, which the plan softens
@example(setting=("pipeline", ("scene", "blobs", 0, "radius")), value=10**20)
# squares that overflow, an inner-step count past the cap (checked, never run)
@example(setting=("pipeline", ("scene", "blobs", 0, "radius")), value=1e300)
@example(setting=("pipeline", ("bandwidth",)), value=1e300)
@example(setting=("pipeline", ("guidance", "n_inner_steps")), value=10**20)
# a zero signature
@example(setting=("pipeline", ("scene", "blobs", 1, "channel_signature")), value=[0, 0, 0])
def test_mistyped_configs_exit_with_a_documented_code(setting, value):
    kind, path = setting
    doc = json.loads(json.dumps(PIPELINE if kind == "pipeline" else SPEC))
    *parents, key = path
    entry = doc
    for k in parents:
        entry = entry[k]
    entry[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out = Path(tmp) / "doc.json", Path(tmp) / "out"
        doc_path.write_text(json.dumps(doc))
        argv = (["pipeline", str(doc_path), "--out", str(out)] if kind == "pipeline"
                else ["synth", str(doc_path), str(out)])
        code = main(argv)
        assert code in (0, 2, 3), (setting, value, code)
        assert code != 2 or not out.exists(), (setting, value)

"""One I/O contract for every CLI stage, checked by an audit hook (PEP 578).

Each case runs ``momix.cli.main`` in a subprocess that installs
``sys.addaudithook`` (a hook cannot be removed again) and records every
``open``, rename, remove, mkdir and directory listing under the work
directory. The contract names no file format:

* every write opens a ``.name.<hex>.tmp`` file with mode ``x`` and ends in
  one rename onto ``name`` in the same directory;
* every read is an argument, a file directly inside an argument
  directory, a file that an index the stage has already read lists, or a
  file the stage itself wrote; no stage lists a directory;
* a stage that guides reads the descriptor archive at exactly the
  timesteps of its guidance window;
* a run that exits 2 writes, renames, makes and removes nothing;
* an ``invert`` that fails mid-stream (exit 3) leaves no index and no temp file.

What an index lists is ``_listed``'s one piece of layout knowledge.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import momix
from momix import pipeline as pl
from momix.diffusion import read_trajectory_index
from momix.features import PairOperator

README = Path(__file__).resolve().parents[1] / "README.md"
N_STEPS = 6

_CHILD = r"""
import json, os, sys
work, calls_path, out_path, setup = sys.argv[1:]
sys.path = [p for p in sys.path if p not in ("", ".")]  # imports never look in the work dir
os.chdir(work)
from momix.cli import main
exec(setup)

WATCHED = {"open", "os.rename", "os.remove", "os.mkdir", "os.rmdir", "os.listdir",
           "os.scandir", "os.truncate"}
root = os.getcwd() + os.sep
recording, events = False, []

def hook(event, args):
    if not recording or event not in WATCHED:
        return
    paths = args[:2] if event == "os.rename" else args[:1]
    if not all(isinstance(p, (str, os.PathLike)) for p in paths):
        return  # a file descriptor
    paths = [os.path.abspath(os.fspath(p)) for p in paths]
    if any(p.startswith(root) for p in paths):
        mode = args[1] if event == "open" else None
        flags = args[2] if event == "open" else None
        events.append([event, [p[len(root):] for p in paths], mode, flags])

sys.addaudithook(hook)
results = []
for argv in json.load(open(calls_path)):
    kinds = {a: "dir" if os.path.isdir(a) else "file" for a in argv if os.path.exists(a)}
    events = []
    recording = True
    try:
        rc = main(argv)
    finally:
        recording = False
    results.append({"argv": argv, "rc": rc, "inputs": kinds, "events": events})
with open(out_path, "w") as fh:
    json.dump(results, fh)
"""

_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC
_TEMP = re.compile(r"\.(?P<name>.+)\.[0-9a-f]{16}\.tmp")


def run_calls(work: Path, calls: list[list[str]], setup: str = "") -> list[dict]:
    """Each argv in ``calls`` through ``main`` in one hooked subprocess, with its events.

    ``setup`` is code the subprocess runs before the hook is installed.
    """
    calls_path, out_path = work.parent / "calls.json", work.parent / "events.json"
    calls_path.write_text(json.dumps(calls))
    env = dict(os.environ, PYTHONPATH=str(Path(momix.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(work), str(calls_path),
                           str(out_path), setup], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(out_path.read_text())


def _listed(index: Path) -> set[Path]:
    """The files an index names: each of its strings, as a path against its directory.

    The descriptor archive's index names its files by layout instead: each
    source at each timestep, and each timestep's tensor.
    """
    doc = json.loads(index.read_text())
    strings, stack = [], [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, str):
            strings.append(value)
    out = {Path(os.path.normpath(index.parent / s)) for s in strings}
    if {"timesteps", "sources"} <= doc.keys():
        out |= {index.parent / f"t{t:03d}" / f"{sid}.json"
                for t in doc["timesteps"] for sid in doc["sources"]}
        out |= {index.parent / f"t{t:03d}" / "deltas.cmt" for t in doc["timesteps"]}
    return out


def _is_write(mode, flags) -> bool:
    return any(c in mode for c in "wxa+") if isinstance(mode, str) else bool(flags & _WRITE_FLAGS)


def check_contract(call: dict, work: Path) -> list[Path]:
    """Assert the write and read rules on one call; returns the files it read, in order."""
    where = " ".join(call["argv"])
    inputs = {Path(os.path.normpath(a)): kind for a, kind in call["inputs"].items()}
    temps, renamed, written, listed, reads = {}, set(), set(), set(), []
    for event, paths, mode, flags in call["events"]:
        path = Path(paths[0])
        assert event not in ("os.listdir", "os.scandir"), f"{where}: lists {path}"
        if event == "open" and _is_write(mode, flags):
            name = _TEMP.fullmatch(path.name)
            assert name and "x" in mode, f"{where}: writes {path} in place (mode {mode!r})"
            assert path not in temps, f"{where}: opens {path} twice"
            temps[path] = path.with_name(name["name"])
        elif event == "open":
            assert (path in written or inputs.get(path) == "file"
                    or inputs.get(path.parent) == "dir" or path in listed), \
                f"{where}: reads {path}, which no argument or index it read names"
            if path.suffix == ".json":
                listed |= {p.relative_to(work) for p in _listed(work / path)
                           if p.is_relative_to(work)}
            reads.append(path)
        elif event == "os.rename":
            src, dst = path, Path(paths[1])
            assert temps.get(src) == dst, f"{where}: renames {src} onto {dst}"
            assert src not in renamed, f"{where}: renames {src} twice"
            renamed.add(src)
            written.add(dst)
    assert renamed == set(temps), f"{where}: temp files never renamed: {set(temps) - renamed}"
    return reads


def check_window(reads: list[Path], desc: Path, guidance: dict, traj: Path) -> None:
    """The descriptor archive is read at exactly the guidance window's timesteps."""
    start, end = pl.guidance_config_from_json(guidance).window(read_trajectory_index(traj).n_steps)
    read_at = {int(m[1]) for p in reads if p.is_relative_to(desc)
               and (m := re.match(r"t(\d+)", p.relative_to(desc).parts[0]))}
    assert read_at == set(range(end, start + 1)), f"descriptors read at {sorted(read_at)}"


def readme_flow() -> tuple[dict[str, str], list[list[str]]]:
    """README's end-to-end CLI run at ``N_STEPS`` steps: the files it writes, and its calls."""
    block = README.read_text().split("A full run, end to end:", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    files, calls = {}, []
    heredoc = re.search(r"cat > (\S+) <<'JSON'\n(.*?)\nJSON\n", block, re.S)
    files[heredoc[1]] = heredoc[2]
    for line in block[heredoc.end():].replace("\\\n", " ").splitlines():
        if line.startswith("echo "):
            text, _, name = shlex.split(line)[1:]
            files[name] = text
        elif line.startswith("momix "):
            argv = shlex.split(line)[1:]
            if argv[0] == "invert":
                argv[argv.index("--steps") + 1] = str(N_STEPS)
            calls.append(argv)
    return files, calls


_USAGE_ERRORS = {
    "bad-plan": ({"bad-plan.json": {"subjects": {"Z": {"op": "remove"}}}},
                 ["recompose", "out/desc", "out/traj", "out/bad", "--atlas",
                  "out/scene/latents_t0.cmt", "--plan", "bad-plan.json"]),
    "unstated-w_c": ({"soften.json": {"subjects": {"A": {"op": "soften"}}}},
                     ["recompose", "out/desc", "out/traj", "out/bad", "--atlas",
                      "out/scene/latents_t0.cmt", "--plan", "soften.json"]),
    "wrong-scene-document": ({"wrong-scene.json": {"n_frames": 4, "n_channels": 1, "height": 8,
                                                   "width": 8, "blob": []}},
                             ["synth", "wrong-scene.json", "out/bad"]),
    "negative-power": ({}, ["invert", "out/scene/manifest.json", "out/bad", "out/bad/desc",
                            "--power", "-1"]),
}


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The README flow, then each usage error, run once under the hook.

    Returns the work dir and each call by its stage or usage-error case.
    """
    work = tmp_path_factory.mktemp("io") / "work"
    work.mkdir()
    files, calls = readme_flow()
    for name, text in files.items():
        (work / name).write_text(text)
    assert [argv[0] for argv in calls] == ["synth", "invert", "recompose", "metrics"]
    names = [argv[0] for argv in calls] + list(_USAGE_ERRORS)
    for docs, argv in _USAGE_ERRORS.values():
        for name, doc in docs.items():
            (work / name).write_text(json.dumps(doc))
        calls.append(argv)
    return work, dict(zip(names, run_calls(work, calls)))


@pytest.mark.parametrize("stage", ["synth", "invert", "recompose", "metrics"])
def test_readme_flow_keeps_the_io_contract(flow, stage):
    work, calls = flow
    call = calls[stage]
    assert call["rc"] == 0
    assert call["events"], "the hook saw nothing"
    reads = check_contract(call, work)
    if stage == "recompose":
        argv = call["argv"]
        guidance = json.loads((work / argv[argv.index("--guidance") + 1]).read_text())
        check_window(reads, Path(argv[1]), guidance, work / argv[2])


def test_pipeline_keeps_the_io_contract(tmp_path):
    files, _ = readme_flow()
    work = tmp_path / "work"
    work.mkdir()
    guidance = json.loads(files["guidance.json"])
    config = {"out_dir": "out", "scene": json.loads(files["scene.json"]),
              "schedule": {"n_steps": N_STEPS}, "guidance": guidance}
    (work / "config.json").write_text(json.dumps(config))
    [call] = run_calls(work, [["pipeline", "config.json"]])
    assert call["rc"] == 0
    reads = check_contract(call, work)
    check_window(reads, Path("out/desc"), guidance, work / "out" / "traj")


def test_invert_reads_the_clean_latents_once(flow):
    # one full read serves inversion's start, t = 0's descriptors and the default
    # atlas; the other open is the manifest's check of the file's header (the
    # default atlas used to add a header check and a read of its own)
    _, calls = flow
    argv = calls["invert"]["argv"]
    latents = Path(os.path.normpath(Path(argv[1]).parent / "latents_t0.cmt"))
    opened = [Path(paths[0]) for event, paths, *_ in calls["invert"]["events"]
              if event == "open"]
    assert opened.count(latents) == 2, opened


@pytest.mark.parametrize("n_steps", [N_STEPS, 2 * N_STEPS])
def test_pipeline_applies_do_not_grow_with_n_steps(tmp_path, monkeypatch, n_steps):
    # inversion and guided sampling carry W z through every step, so the pair
    # operator is applied a fixed number of times per run: t = 0's descriptors, one
    # image per atlas member in each carry, the first guided timestep, and the metrics
    files, _ = readme_flow()
    config = {"scene": json.loads(files["scene.json"]), "schedule": {"n_steps": n_steps},
              "guidance": json.loads(files["guidance.json"])}
    applies = []
    original = PairOperator.apply
    monkeypatch.setattr(PairOperator, "apply",
                        lambda self, latents: applies.append(1) or original(self, latents))
    pl.run_pipeline(config, tmp_path / "out")
    assert len(applies) == 1 + 1 + 1 + 1 + 2  # one atlas member: the scene's own


@pytest.mark.parametrize("case", list(_USAGE_ERRORS))
def test_a_usage_error_touches_nothing(flow, case):
    work, calls = flow
    call = calls[case]
    assert call["rc"] == 2
    assert call["events"], "the hook saw nothing"
    changed = [e[:2] for e in call["events"] if e[0] != "open" or _is_write(e[2], e[3])]
    assert changed == []
    assert not (work / "out" / "bad").exists()


# every denoiser the CLI builds predicts finite noise up to t = 2, then inf
_BLOW_UP = """
import numpy as np
from momix import pipeline as pl

class BlowUp:
    def predict_noise(self, z, t):
        return 0.0, (((1.0, np.full(z.shape, np.inf)),) if t >= 3 else ())

pl.build_denoiser = lambda *args, **kwargs: BlowUp()
"""


def test_an_invert_that_fails_mid_stream_leaves_no_index(tmp_path):
    # the rerun removes both indexes before its first latent and has written
    # descriptors for t = 0..3 when the step to t = 4 turns non-finite
    files, calls = readme_flow()
    work = tmp_path / "work"
    work.mkdir()
    (work / "scene.json").write_text(files["scene.json"])
    synth, invert = calls[:2]
    assert [call["rc"] for call in run_calls(work, [synth, invert])] == [0, 0]
    traj, desc = (work / invert[i] for i in (2, 3))
    assert (traj / "index.json").exists() and (desc / "extract_index.json").exists()
    [call] = run_calls(work, [invert], setup=_BLOW_UP)
    assert call["rc"] == 3
    check_contract(call, work)
    assert not (traj / "index.json").exists()
    assert not (desc / "extract_index.json").exists()
    written = {Path(paths[1]).parent.name for event, paths, *_ in call["events"]
               if event == "os.rename"}
    assert written == {f"t{t:03d}" for t in range(4)}
    assert [p for p in work.rglob("*") if _TEMP.fullmatch(p.name)] == []

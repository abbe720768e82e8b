"""momix benchmark: one workload, one seed, timed runs plus output checks.

    python3 perfbench/run.py --workload readme-keep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The benchmark imports momix from the
checkout's ``src`` and nowhere else, so it fails in a directory without it.

With ``--trace 0`` it runs the workload untraced, over and over, until
``--seconds`` have passed (at least two runs, so reruns can be compared),
and reports the end-to-end metrics. ``--trace 1`` does the same and then one more run with
spans around every layer, and reports the per-layer metrics. Each run is a
fresh process, so its peak RSS is its own. Set-up time is sampled from
every run's process and from extra set-up-only processes spawned between
the runs. Every run's outputs are checked; a run that raises, crashes or
fails a check counts in ``failed``. The last line of standard output is one
JSON object; a fuller report goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
# Set-up-only processes spawned after each untraced run; each run's own
# process gives one more set-up sample.
SETUP_PER_RUN = 5
CHILD_TIMEOUT = 150
THREAD_ENV = (
    "CONMO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# Quality figures a workload may not produce; the neutral value stands in.
NEUTRAL = {"guidance_loss_ratio": 1.0, "traj_rmse_px": 1.0}


def import_momix():
    """Import momix from this checkout's src; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import momix

    where = Path(momix.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"momix imported from {where}, not from {src}")
    sys.path.insert(0, str(HERE))


def git_rev() -> str:
    """HEAD's commit, or 'unknown' outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload, seed: int) -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": workload.name,
        "why": workload.why,
    }


def measure_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def one_run(workload, inputs, out_dir: Path, ready: float, tracer=None) -> dict:
    """Run the workload once in this process and check its outputs."""
    from tracing import instrument, layer_metrics

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    doc: dict = {"error": None, "ready": ready}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(inputs, out_dir)
        else:
            with instrument(tracer) as regions:
                result = workload.run(inputs, out_dir)
        doc["elapsed"] = time.perf_counter() - start
        doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc.update(dataclasses.asdict(workload.check(inputs, out_dir, result)))
    except Exception:
        doc["error"] = traceback.format_exc()
        return doc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        doc["layers"] = layer_metrics(tracer.spans, regions, doc["elapsed"])
    return doc


def spawn_run(args, out_dir: Path, traced: bool) -> dict:
    """One run in a fresh process, so its peak RSS is its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--one-run", str(out_dir),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced))]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"run timed out after {CHILD_TIMEOUT} s"}
    try:
        doc = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"run exited {done.returncode}: {done.stderr[-2000:]}"}
    doc["setup_s"] = doc.pop("ready") - start
    return doc


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--one-run", type=Path, metavar="OUT_DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_momix()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(ready)
        return 0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.one_run is not None:
        from tracing import Tracer

        tracer = Tracer(f"{workload.name}-s{args.seed}-p{os.getpid()}") if args.trace else None
        doc = one_run(workload, inputs, args.one_run, ready, tracer)
        if tracer is not None:
            tracer.write(out_dir / f"{workload.name}-s{args.seed}.spans.jsonl")
        print(json.dumps(doc))
        return 0

    work = HERE / ".work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        return _measure(args, workload, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, work: Path, out_dir: Path) -> int:
    runs, errors, setup = [], [], []
    digest = None
    checks: set[str] = set()

    def record(doc: dict, label: str) -> bool:
        nonlocal digest
        if doc["error"] is None:
            checks.update(doc["checks"])
            if digest is None:
                digest = doc["digest"]
            else:
                checks.add("rerun-digest")
            if doc["digest"] != digest:
                doc["errors"].append(f"artifact digest {doc['digest']} != first run's {digest}")
            if doc["errors"]:
                doc["error"] = "; ".join(doc["errors"])
        if doc["error"] is not None:
            errors.append(f"{label}: {doc['error']}")
        return doc["error"] is None

    start = time.perf_counter()
    attempted = 0
    while attempted < MIN_REPS or time.perf_counter() - start < args.seconds:
        doc = spawn_run(args, work / f"run{attempted}", traced=False)
        attempted += 1
        if record(doc, f"run {attempted}"):
            runs.append(doc)
            setup.append(doc["setup_s"])
        setup.extend(measure_setup(workload.name, args.seed) for _ in range(SETUP_PER_RUN))
    times = [r["elapsed"] for r in runs]

    layers = None
    if args.trace:
        doc = spawn_run(args, work / "traced", traced=True)
        attempted += 1
        if record(doc, "traced run"):
            layers = doc["layers"]
            layers["trace.run_s"] = doc["elapsed"]
            layers["trace.overhead_s"] = doc["elapsed"] - statistics.median(times) if times else 0.0
            for key, name in (("final_loss", "guidance.final_loss"),
                              ("desc_rel_l2", "metrics.desc_rel_l2")):
                layers[name] = doc["quality"].get(key, 0.0)

    failed = len(errors)
    env = environment(workload, args.seed)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for e in errors:
        print("FAILED " + e)
    if not runs or (args.trace and layers is None):
        print("no run finished with correct output; nothing to report", file=sys.stderr)
        return 1

    quality = {k: statistics.median(r["quality"][k] for r in runs) for k in runs[0]["quality"]}
    end_to_end = {
        "run_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }
    for key, neutral in NEUTRAL.items():
        end_to_end[key] = quality.get(key, neutral)
    units = declared_units("end_to_end")
    for name, value in end_to_end.items():
        note = "" if name not in NEUTRAL or name in quality else "  (n/a here: neutral value)"
        print(f"metric {name} = {value:.6g} {units[name]}{note}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} runs failed)")
    for name in ("final_loss", "desc_rel_l2", "gradcheck_rel_err"):
        shown = f"{quality[name]:.6g}" if name in quality else "n/a"
        print(f"quality {name} = {shown}")
    print(f"checks run: {', '.join(sorted(checks))}")
    if layers is not None and workload.name != "gradcheck":
        coverage = layers["pipeline.coverage"]
        verdict = "ok" if coverage >= 0.9 else "LOW"
        print(f"coverage {verdict}: pipeline stages cover {coverage:.1%} of the traced run, "
              f"other {layers['pipeline.other_s']:.4f} s")

    report = {
        "env": env, "attempted": attempted, "failed": failed, "errors": errors,
        "checks": sorted(checks), "run_s": quartiles(times), "setup_s": quartiles(setup),
        "run_s_samples": times, "setup_s_samples": setup,
        "end_to_end": end_to_end, "quality": quality, "per_layer": layers,
    }
    name = f"{workload.name}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    chosen = layers if args.trace else end_to_end
    units = declared_units("per_layer") if args.trace else units
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: inputs from a seed, one run, output checks.

Every workload drives momix only through its public Python API. Sizes,
trajectories and plans are fixed, so the amount of work is the same for
every seed; the seed picks texture seeds, the sampling seed and the
gradcheck seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from momix import gradcheck, pipeline
from momix.features import load_descriptor, lsmm
from momix.masks import BACKGROUND_ID
from momix.metrics import trajectory_rmse
from momix.synth import BlobSpec, SceneSpec, freeze_blob, reverse_blob, scene_to_json, shift_blob
from momix.tensors import load_manifest

# Sub-seeds of one gradcheck run. The random cases' masks depend on the
# seed, so the work of one run_gradcheck call differs by up to about 20%
# between seeds; summing three of them keeps the run time steadier across
# seeds while a run stays short enough to be repeated within one measurement.
GRADCHECK_SUBSEEDS = 3
LARGE_SHIFT_DX = 8


@dataclass
class Outcome:
    """What one run produced: a digest of its outputs, quality figures, and failed checks."""

    digest: str
    quality: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict, Path], object]
    check: Callable[[dict, Path, object], Outcome]


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def two_blob_scene(texture_seed: int) -> SceneSpec:
    """The README scene: 8 frames x 3 channels x 32x32, two crossing blobs."""
    n = 8
    return SceneSpec(
        n_frames=n, n_channels=3, height=32, width=32,
        blobs=(
            BlobSpec("A", tuple((10.0, 5.0 + 2.4 * f) for f in range(n)), 3.0, (0, 2.5, 0)),
            BlobSpec("B", tuple((22.0, 26.0 - 2.4 * f) for f in range(n)), 3.0, (0, 0, 2.5)),
        ),
        texture_seed=texture_seed, texture_amplitude=1.0, texture_wavelengths=(2.5, 4.0),
    )


def large_scene(texture_seed: int) -> SceneSpec:
    """16 frames x 4 channels x 64x64 with three blobs on non-integer tracks."""
    n = 16
    return SceneSpec(
        n_frames=n, n_channels=4, height=64, width=64,
        blobs=(
            BlobSpec("A", tuple((20.0, 10.0 + 2.3 * f) for f in range(n)), 5.0, (0, 2.5, 0, 0)),
            BlobSpec("B", tuple((46.0, 54.0 - 2.3 * f) for f in range(n)), 5.0, (0, 0, 2.5, 0)),
            BlobSpec("C", tuple((8.0 + 2.3 * f, 56.0) for f in range(n)), 4.0, (0, 0, 0, 2.5)),
        ),
        texture_seed=texture_seed, texture_amplitude=1.0, texture_wavelengths=(2.5, 4.0),
    )


# --- inputs -------------------------------------------------------------------


def readme_keep_inputs(seed: int) -> dict:
    texture, sampling = _seeds(seed, 2)
    ref = two_blob_scene(texture)
    config = {
        "seed": sampling,
        "scene": scene_to_json(ref),
        "atlas_include_reference": True,
        "atlas_scenes": [scene_to_json(reverse_blob(ref, "B"))],
        "schedule": {"n_steps": 20, "power": 2.0},
        "bandwidth": 0.5,
        "guidance": {"n_inner_steps": 10, "t_end": 1},
        "plan": {},
        "init": "shared",
    }
    targets = {b.subject_id: list(b.trajectory) for b in ref.blobs}
    return {"config": config, "targets": targets, "kept": ["A", "B"]}


def large_edit_inputs(seed: int) -> dict:
    texture, sampling = _seeds(seed, 2)
    ref = large_scene(texture)
    edited = freeze_blob(shift_blob(ref, "A", 0.0, float(LARGE_SHIFT_DX)), "C")
    config = {
        "seed": sampling,
        "scene": scene_to_json(ref),
        "atlas_include_reference": False,
        "atlas_scenes": [scene_to_json(edited), scene_to_json(reverse_blob(edited, "B"))],
        "schedule": {"n_steps": 24, "power": 4.0},
        "invert_denoiser": "zero",
        "bandwidth": 0.5,
        "guidance": {"n_inner_steps": 3, "t_end": 1, "step_size": 2.0},
        "plan": {"subjects": {
            "A": {"op": "mask_edit", "edit": {"kind": "shift", "dx": LARGE_SHIFT_DX, "dy": 0}},
            "C": {"op": "remove"},
        }},
        "init": "shared",
    }
    truth = {b.subject_id: list(b.trajectory) for b in ref.blobs}
    targets = {
        "A": [(r, c + LARGE_SHIFT_DX) for r, c in truth["A"]],
        "B": truth["B"],
    }
    return {"config": config, "targets": targets, "kept": ["B"]}


def analyze_atlas_inputs(seed: int) -> dict:
    texture, *variants, sampling = _seeds(seed, 18)
    ref = large_scene(texture)
    config = {
        "seed": sampling,
        "scene": scene_to_json(ref),
        "atlas_include_reference": True,
        "atlas_scenes": [scene_to_json(large_scene(v)) for v in variants],
        "schedule": {"n_steps": 50, "power": 2.0},
        "bandwidth": 0.5,
        "guided": False,
        "init": "fresh",
    }
    return {"config": config}


def gradcheck_inputs(seed: int) -> dict:
    return {"seeds": _seeds(seed, GRADCHECK_SUBSEEDS), "n_cases": 20}


# --- runs ---------------------------------------------------------------------
# Called through the module so that a traced run sees the wrapped callable.


def run_pipeline_workload(inputs: dict, out_dir: Path) -> dict:
    return pipeline.run_pipeline(inputs["config"], out_dir)


def run_gradcheck_workload(inputs: dict, out_dir: Path) -> list[dict]:
    return [gradcheck.run_gradcheck(s, n_cases=inputs["n_cases"]) for s in inputs["seeds"]]


# --- checks -------------------------------------------------------------------


def tree_digest(root: Path) -> str:
    """One sha256 over every file's relative path and contents."""
    outer = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            outer.update(str(p.relative_to(root)).encode() + b"\0")
            outer.update(hashlib.sha256(p.read_bytes()).digest())
    return outer.hexdigest()


def _read_trace(out_dir: Path) -> list[dict]:
    lines = (out_dir / "run" / "trace.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def guidance_loss_ratio(trace: list[dict]) -> float:
    """Loss left after each guided update over the loss before it, summed over timesteps.

    The masks, hence the curvature of the quadratic, are the same for every
    seed, so this share is steady where the absolute loss is not. A run with
    no guided update reduced nothing: 1.0.
    """
    by_t: dict[int, list[tuple[int, float]]] = {}
    for e in trace:
        by_t.setdefault(e["timestep"], []).append((e["inner_step"], e["loss"]))
    if not by_t:
        return 1.0
    first = sum(min(v)[1] for v in by_t.values())
    last = sum(max(v)[1] for v in by_t.values())
    return last / first if first > 0 else 1.0


def check_guided(inputs: dict, out_dir: Path, report: dict) -> Outcome:
    outcome = Outcome(digest=tree_digest(out_dir))
    outcome.checks.append("subjects-present")
    rmse = []
    for sid, target in inputs["targets"].items():
        entry = report["subjects"].get(sid, {})
        if entry.get("missing_frames", 1) != 0 or "estimated" not in entry:
            outcome.errors.append(f"subject {sid} missing in {entry.get('missing_frames')} frames")
            continue
        rmse.append(trajectory_rmse(target, entry["estimated"]))
    rel = [
        report["descriptor_distances"][sid]["relative_l2"]
        for sid in inputs["kept"]
        if report["descriptor_distances"].get(sid, {}).get("relative_l2") is not None
    ]
    trace = _read_trace(out_dir)
    if not trace:
        outcome.errors.append("guided run wrote an empty trace")
    else:
        outcome.quality["final_loss"] = float(trace[-1]["loss"])
    outcome.quality["guidance_loss_ratio"] = guidance_loss_ratio(trace)
    if rmse:
        outcome.quality["traj_rmse_px"] = max(rmse)
    if rel:
        outcome.quality["desc_rel_l2"] = max(rel)
    return outcome


def recompute_t0_descriptors(scene_dir: Path) -> dict[str, dict[tuple[int, int], np.ndarray]]:
    """Descriptors of the clean latents, pooled with lsmm over regions built here.

    The regions follow the documented definition and use plain numpy, not
    momix.masks: a subject's pair region is its masks at both frames minus
    every other subject's masks at both frames; the background's is the
    cells no subject covers in either frame.
    """
    manifest = load_manifest(scene_dir / "manifest.json")
    z0 = manifest.load_latent("0").data.astype(np.float64)
    masks = {t.subject_id: t.data for t in manifest.load_masks()}
    occupied = np.zeros(z0.shape[:1] + z0.shape[2:], dtype=bool)
    for m in masks.values():
        occupied |= m
    n = z0.shape[0]
    out: dict[str, dict[tuple[int, int], np.ndarray]] = {}
    for sid in [*masks, BACKGROUND_ID]:
        pairs = {}
        for i in range(n):
            for j in range(i + 1, n):
                if sid == BACKGROUND_ID:
                    region = ~occupied[i] & ~occupied[j]
                else:
                    others = np.zeros_like(occupied[i])
                    for osid, m in masks.items():
                        if osid != sid:
                            others |= m[i] | m[j]
                    region = (masks[sid][i] | masks[sid][j]) & ~others
                if region.any():
                    pairs[(i, j)] = lsmm(z0[i], region) - lsmm(z0[j], region)
        if pairs or sid == BACKGROUND_ID:
            out[sid] = pairs
    return out


def check_analyze(inputs: dict, out_dir: Path, report: dict) -> Outcome:
    outcome = Outcome(digest=tree_digest(out_dir))
    outcome.checks.append("t0-descriptors")
    expected = recompute_t0_descriptors(out_dir / "scene")
    archived = {}
    for p in sorted((out_dir / "desc" / "t000").glob("*.json")):
        d = load_descriptor(p)
        archived[d.source_id] = d
    if sorted(archived) != sorted(expected):
        outcome.errors.append(f"t0 sources {sorted(archived)} != expected {sorted(expected)}")
        return outcome
    for sid, pairs in expected.items():
        desc = archived[sid]
        if desc.forward_pairs() != sorted(pairs):
            outcome.errors.append(f"t0 {sid}: valid pairs differ from the recomputation")
            continue
        for (i, j), want in pairs.items():
            # the archive stores float32
            if not np.allclose(desc.delta(i, j), want, rtol=1e-6, atol=1e-6):
                outcome.errors.append(f"t0 {sid} pair ({i},{j}): delta differs")
                break
    return outcome


def check_gradcheck(inputs: dict, out_dir: Path, results: list[dict]) -> Outcome:
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    outcome = Outcome(digest=digest)
    outcome.checks.append("gradcheck-passed")
    for seed, r in zip(inputs["seeds"], results):
        if not r["passed"] or r["checked"] == 0:
            outcome.errors.append(f"gradcheck seed {seed}: {r}")
    outcome.quality["gradcheck_rel_err"] = max(r["max_rel_err"] for r in results)
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-keep",
            "the README two-blob self-transfer users start from; small arrays, so the "
            "per-pair Python work in guidance dominates",
            readme_keep_inputs, run_pipeline_workload, check_guided,
        ),
        Workload(
            "large-edit",
            "16x4x64x64, shift A, remove C, keep B: guidance with edited target regions "
            "and a fixed step, mixed with extraction",
            large_edit_inputs, run_pipeline_workload, check_guided,
        ),
        Workload(
            "analyze-atlas",
            "17-member atlas, 50 steps, unguided: denoiser, extraction and tensor I/O do "
            "the work and guidance does none",
            analyze_atlas_inputs, run_pipeline_workload, check_analyze,
        ),
        Workload(
            "gradcheck",
            "finite-difference gradient checks: batched loss evaluations instead of "
            "gradient steps",
            gradcheck_inputs, run_gradcheck_workload, check_gradcheck,
        ),
    )
}

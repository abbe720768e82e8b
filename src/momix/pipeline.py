"""End-to-end orchestration: synth -> invert -> extract -> recompose -> metrics.

Each stage writes plain files into a fixed layout under the run root so a
rerun with the same config and seeds is byte-identical. The CLI drives
these functions; tests call them directly.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import (
    Denoiser,
    GaussianAtlasDenoiser,
    NoiseSchedule,
    SamplingGuidance,
    ZeroDenoiser,
    ddim_invert,
    ddim_sample,
    load_trajectory,
    make_initial_noise,
    save_trajectory,
)
from .errors import BadValue, IoFailure, NoValidPairs
from .features import (
    EditPlan,
    MotionDescriptor,
    PairOperator,
    compile_sources,
    extract_descriptors,
    load_descriptor,
    plan_from_json,
    recompose,
    save_descriptor,
)
from .guidance import GuidanceConfig, GuidanceTarget
from .masks import BACKGROUND_ID, apply_edit, background_track
from .metrics import compare_trajectories, descriptor_distance
from .synth import (
    SceneSpec,
    estimate_blob_track,
    load_scene,
    render_scene,
    save_scene,
    scene_from_json,
)
from .tensors import (
    LatentVideo,
    MaskTrack,
    SceneManifest,
    check_keys,
    load_manifest,
    load_tensor,
    read_json,
    save_manifest,
    save_mask,
    save_tensor,
    typed_field,
    write_json,
)

log = logging.getLogger(__name__)

_SAFE_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _safe_name(name: str) -> str:
    if not _SAFE_NAME.match(name):
        raise BadValue(f"id {name!r} is not filesystem-safe (use letters, digits, _ . -)")
    return name


# --- synth ------------------------------------------------------------------


def run_synth(spec: SceneSpec, out_dir) -> Path:
    """Render a scene and write latents, masks, trajectories, and the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    latents, tracks, trajectories = render_scene(spec)
    save_tensor(latents, out_dir / "latents_t0.cmt")
    mask_files = {}
    for track in tracks:
        name = f"mask_{_safe_name(track.subject_id)}.cmm"
        save_mask(track, out_dir / name)
        mask_files[track.subject_id] = name
    manifest = SceneManifest(
        frames=spec.n_frames,
        channels=spec.n_channels,
        height=spec.height,
        width=spec.width,
        latents={"0": "latents_t0.cmt"},
        masks=mask_files,
        root=out_dir,
    )
    save_manifest(manifest, out_dir / "manifest.json")
    write_json(
        out_dir / "trajectories.json",
        {
            "subjects": {sid: [list(p) for p in traj] for sid, traj in trajectories.items()},
            "drift": [list(d) for d in spec.background_drift],
        },
    )
    save_scene(spec, out_dir / "spec.json")
    return out_dir


# --- invert -----------------------------------------------------------------


def build_denoiser(
    atlas: list[LatentVideo] | None, schedule: NoiseSchedule, bandwidth: float = 0.5
) -> Denoiser:
    if not atlas:
        return ZeroDenoiser()
    return GaussianAtlasDenoiser(atlas, schedule, bandwidth=bandwidth)


def run_invert(
    manifest: SceneManifest,
    schedule: NoiseSchedule,
    denoiser: Denoiser,
    out_dir,
) -> Path:
    out_dir = Path(out_dir)
    z0 = manifest.load_latent("0")
    trajectory = ddim_invert(z0, schedule, denoiser)
    save_trajectory(trajectory, schedule, out_dir)
    return out_dir


# --- extract ----------------------------------------------------------------


def run_extract(
    traj_dir,
    manifest: SceneManifest,
    out_dir,
    *,
    legacy_region: bool = False,
    manifest_path=None,
) -> Path:
    """Extract descriptors for every source at every stored timestep."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory, schedule = load_trajectory(traj_dir)
    masks = manifest.load_masks()
    operator = compile_sources(trajectory[0], masks, legacy_region=legacy_region)
    sources_seen: set[str] = set()
    for t, latents in enumerate(trajectory):
        t_dir = out_dir / f"t{t:03d}"
        t_dir.mkdir(exist_ok=True)
        descriptors = extract_descriptors(
            latents, masks, timestep=t, legacy_region=legacy_region, strict=False, operator=operator
        )
        for desc in descriptors:
            save_descriptor(desc, t_dir / f"{_safe_name(desc.source_id)}.json")
            sources_seen.add(desc.source_id)
    index = {
        "n_steps": schedule.n_steps,
        "timesteps": list(range(schedule.n_steps + 1)),
        "sources": sorted(sources_seen),
        "legacy_region": legacy_region,
        "manifest": str(manifest_path) if manifest_path else None,
    }
    write_json(out_dir / "extract_index.json", index)
    return out_dir


def load_references(desc_dir, timesteps=None) -> dict[int, list[MotionDescriptor]]:
    """Descriptors of every source the extract index lists, per timestep.

    Only files the index names are read, so a stray descriptor left in the
    directory is never taken as a reference. ``timesteps`` (default: every
    one the index lists) picks which to load.
    """
    desc_dir = Path(desc_dir)
    index = read_json(desc_dir / "extract_index.json")
    try:
        listed = [int(t) for t in index["timesteps"]]
        sources = [_safe_name(str(sid)) for sid in index["sources"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadValue(f"{desc_dir}: malformed extract index: {exc}") from exc
    refs: dict[int, list[MotionDescriptor]] = {}
    for t in listed if timesteps is None else timesteps:
        if t not in listed:
            raise BadValue(f"{desc_dir}: extract index lists no timestep {t}")
        refs[t] = [load_descriptor(desc_dir / f"t{t:03d}" / f"{sid}.json") for sid in sources]
    return refs


# --- recompose + guided sampling ---------------------------------------------


def build_target_masks(
    subject_masks: list[MaskTrack],
    plan: EditPlan,
    dims: tuple[int, int, int] | None = None,
) -> dict[str, MaskTrack]:
    """Target-side tracks: subject masks (after any plan edits) plus background.

    ``dims`` (frames, height, width) is required when there are no subjects.
    """
    edited: list[MaskTrack] = []
    for track in subject_masks:
        directive = plan.directive_for(track.subject_id)
        if directive.kind == "mask_edit":
            track = apply_edit(track, directive.edit)
        edited.append(track)
    out = {t.subject_id: t for t in edited}
    if subject_masks:
        dims = (subject_masks[0].n_frames, subject_masks[0].height, subject_masks[0].width)
    out[BACKGROUND_ID] = background_track(edited, dims=dims)
    return out


@dataclass
class RecomposeResult:
    output: LatentVideo
    trace: list[dict]
    init_mode: str


def run_recompose(
    desc_dir,
    plan: EditPlan | None,
    traj_dir,
    out_dir,
    *,
    atlas: list[LatentVideo],
    manifest: SceneManifest,
    guidance_config: GuidanceConfig | None = None,
    bandwidth: float = 0.5,
    init: str = "auto",
    seed: int = 0,
    guided: bool = True,
) -> RecomposeResult:
    """Build the guidance problem from stored descriptors and sample a target video."""
    trajectory, schedule = load_trajectory(traj_dir)
    denoiser = build_denoiser(atlas, schedule, bandwidth=bandwidth)
    plan = plan if plan is not None else EditPlan()
    if init == "auto":
        wants_fresh = plan.camera_only or any(
            d.kind == "mask_edit" for d in plan.directives.values()
        )
        init_mode = "fresh" if wants_fresh else "shared"
    else:
        init_mode = init
    zT = make_initial_noise(trajectory[-1], mode=init_mode, seed=seed)

    guidance = None
    if guided:
        config = guidance_config if guidance_config is not None else GuidanceConfig()
        refs_by_t = load_references(desc_dir)
        target_masks = build_target_masks(
            manifest.load_masks(), plan, dims=(manifest.frames, manifest.height, manifest.width)
        )
        regions = PairOperator(target_masks)
        start, end = config.window(schedule.n_steps)
        targets = {}
        for t in range(end, start + 1):
            if t not in refs_by_t:
                raise BadValue(f"descriptor archive lacks timestep {t} needed by guidance")
            targets[t] = GuidanceTarget(
                recompose(refs_by_t[t], plan), regions, weights=config.per_source_weight
            )
            if targets[t].enforced_pair_count() == 0:
                raise NoValidPairs(f"guidance problem has no enforced pairs at timestep {t}")
        guidance = SamplingGuidance(config=config, targets=targets)

    output = ddim_sample(zT, schedule, denoiser, guidance=guidance)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_tensor(output, out_dir / "output.cmt")
    trace = guidance.trace if guidance is not None else []
    trace_path = out_dir / "trace.jsonl"
    try:
        with open(trace_path, "w") as fh:
            for entry in trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {trace_path}: {exc}") from exc
    write_json(
        out_dir / "run.json",
        {"init": init_mode, "seed": seed, "guided": guided, "bandwidth": bandwidth},
    )
    return RecomposeResult(output=output, trace=trace, init_mode=init_mode)


# --- metrics ------------------------------------------------------------------


def run_metrics(run_dir, scene_dir, desc_dir=None, out_path=None, threshold: float = 0.5) -> dict:
    """Compare a generated video against its reference scene.

    Blob trajectories are estimated from the output latents via signature
    projection and scored against the reference ground truth; descriptor
    distances compare clean-latent descriptors over the reference masks.
    """
    run_dir, scene_dir = Path(run_dir), Path(scene_dir)
    output = load_tensor(run_dir / "output.cmt")
    spec = load_scene(scene_dir / "spec.json")
    truth = read_json(scene_dir / "trajectories.json")
    report: dict = {"subjects": {}, "descriptor_distances": {}, "warnings": []}
    for blob in spec.blobs:
        centroids, areas = estimate_blob_track(output, blob.channel_signature, threshold)
        missing = sum(1 for c in centroids if c is None)
        entry: dict = {"areas": areas, "missing_frames": missing}
        if missing == 0:
            try:
                ref = truth["subjects"][blob.subject_id]
            except (KeyError, TypeError) as exc:
                raise BadValue(f"{scene_dir}: no true trajectory for {blob.subject_id!r}") from exc
            entry["estimated"] = [list(c) for c in centroids]
            entry.update(compare_trajectories(ref, centroids).to_json())
        else:
            report["warnings"].append(
                f"subject {blob.subject_id}: blob not found in {missing} output frames"
            )
        report["subjects"][blob.subject_id] = entry

    manifest = load_manifest(scene_dir / "manifest.json")
    masks = manifest.load_masks()
    operator = compile_sources(output, masks)
    try:
        out_desc = extract_descriptors(output, masks, timestep=0, strict=False, operator=operator)
    except NoValidPairs:
        out_desc = []
    if desc_dir is not None:
        ref_desc = load_references(desc_dir, timesteps=[0])[0]
    else:
        ref_latents = manifest.load_latent("0")
        ref_desc = extract_descriptors(
            ref_latents, masks, timestep=0, strict=False, operator=operator
        )
    ref_by_source = {d.source_id: d for d in ref_desc}
    for d in out_desc:
        ref = ref_by_source.get(d.source_id)
        if ref is None:
            continue
        dist, count = descriptor_distance(ref, d)
        shared = ref.deltas[d.rows_of(ref.pairs) >= 0]
        ref_norm = float(np.sum(shared * shared))
        rel = float(np.sqrt(dist / ref_norm)) if ref_norm > 0 else None
        if count == 0:
            report["warnings"].append(f"source {d.source_id}: no shared valid pairs")
        report["descriptor_distances"][d.source_id] = {
            "distance": dist,
            "n_pairs": count,
            "relative_l2": rel,
        }
    if out_path is not None:
        write_json(out_path, report)
    return report


# --- full pipeline --------------------------------------------------------------


_PIPELINE_KEYS = (
    "out_dir", "seed", "scene", "schedule", "atlas_include_reference", "atlas_scenes",
    "bandwidth", "invert_denoiser", "legacy_region", "guidance", "plan", "init", "guided",
    "metrics",
)
_SCHEDULE_KEYS = ("n_steps", "power", "floor")
_METRICS_KEYS = ("threshold",)
_GUIDANCE_KEYS = ("step_size", "n_inner_steps", "t_start", "t_end", "weights")


def guidance_config_from_json(doc: dict) -> GuidanceConfig:
    """The ``guidance`` section of a pipeline config; any other key is rejected."""
    what = "guidance config"
    check_keys(doc, _GUIDANCE_KEYS, what)
    try:
        return GuidanceConfig(
            step_size=doc.get("step_size"),
            n_inner_steps=typed_field(doc, "n_inner_steps", int, 3, what),
            t_start=typed_field(doc, "t_start", int, None, what),
            t_end=typed_field(doc, "t_end", int, None, what),
            per_source_weight={str(k): float(v) for k, v in doc.get("weights", {}).items()},
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise BadValue(f"malformed {what}: {exc}") from exc


def _scene_spec(doc) -> SceneSpec:
    """A scene given inline as a spec object, or as the path of a spec file."""
    return load_scene(doc) if isinstance(doc, str) else scene_from_json(doc)


def run_pipeline(config: dict, out_root) -> dict:
    """Run every stage per a config document; returns the metrics report.

    Every key is checked, and every value parsed, before the first stage
    writes output; an unknown key is rejected rather than left to its default.
    Booleans, integers and the enumerated strings must have their JSON type.
    """
    out_root = Path(out_root)
    what = "pipeline config"
    check_keys(config, _PIPELINE_KEYS, what)
    plan = plan_from_json(config.get("plan", {}))
    gcfg = guidance_config_from_json(config.get("guidance", {}))
    sched_doc = check_keys(config.get("schedule", {}), _SCHEDULE_KEYS, "schedule")
    metrics_doc = check_keys(config.get("metrics", {}), _METRICS_KEYS, "metrics")
    if "scene" not in config:
        raise BadValue("pipeline config needs a 'scene'")
    spec = _scene_spec(config["scene"])
    member_specs = [_scene_spec(doc) for doc in config.get("atlas_scenes", [])]
    try:
        schedule = NoiseSchedule.default(
            n_steps=typed_field(sched_doc, "n_steps", int, 20, what),
            power=float(sched_doc.get("power", 2.0)),
            floor=float(sched_doc.get("floor", 1e-4)),
        )
        bandwidth = float(config.get("bandwidth", 0.5))
        threshold = float(metrics_doc.get("threshold", 0.5))
    except (TypeError, ValueError) as exc:
        raise BadValue(f"malformed {what}: {exc}") from exc
    seed = typed_field(config, "seed", int, 0, what)
    gcfg.window(schedule.n_steps)  # an empty guidance window is a config error
    guided = typed_field(config, "guided", bool, True, what)
    init = typed_field(config, "init", ("auto", "shared", "fresh"), "auto", what)
    legacy_region = typed_field(config, "legacy_region", bool, False, what)
    include_reference = typed_field(config, "atlas_include_reference", bool, True, what)
    invert_with = typed_field(config, "invert_denoiser", ("atlas", "zero"), "atlas", what)
    out_root.mkdir(parents=True, exist_ok=True)
    scene_dir = run_synth(spec, out_root / "scene")
    manifest = load_manifest(scene_dir / "manifest.json")

    atlas_dir = out_root / "atlas"
    atlas_dir.mkdir(exist_ok=True)
    atlas: list[LatentVideo] = []
    if include_reference:
        atlas.append(manifest.load_latent("0"))
    for member_spec in member_specs:
        member_latents, _, _ = render_scene(member_spec)
        atlas.append(member_latents)
    for k, member in enumerate(atlas):
        save_tensor(member, atlas_dir / f"member{k:03d}.cmt")

    if invert_with == "zero":
        invert_denoiser: Denoiser = ZeroDenoiser()
    else:
        invert_denoiser = build_denoiser(atlas, schedule, bandwidth=bandwidth)
    traj_dir = run_invert(manifest, schedule, invert_denoiser, out_root / "traj")

    desc_dir = run_extract(
        traj_dir,
        manifest,
        out_root / "desc",
        legacy_region=legacy_region,
        manifest_path="../scene/manifest.json",
    )

    result = run_recompose(
        desc_dir,
        plan,
        traj_dir,
        out_root / "run",
        atlas=atlas,
        manifest=manifest,
        guidance_config=gcfg,
        bandwidth=bandwidth,
        init=init,
        seed=seed,
        guided=guided,
    )
    report = run_metrics(
        out_root / "run",
        scene_dir,
        desc_dir=desc_dir,
        out_path=out_root / "metrics.json",
        threshold=threshold,
    )
    recorded = {k: v for k, v in config.items() if k != "out_dir"}
    write_json(out_root / "config.json", recorded)
    return report

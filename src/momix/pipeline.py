"""End-to-end orchestration: synth -> invert -> extract -> recompose -> metrics.

Each stage writes plain files into a fixed layout under the run root so a
rerun with the same config and seeds is byte-identical. The CLI drives
these functions; tests call them directly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .diffusion import (
    Denoiser,
    GaussianAtlasDenoiser,
    NoiseSchedule,
    SamplingGuidance,
    ZeroDenoiser,
    ddim_invert_steps,
    ddim_sample,
    make_initial_noise,
    read_trajectory_index,
    save_trajectory,
    trajectory_path,
)
from .errors import BadValue, DimMismatch, NoValidPairs, UnknownSubject
from .features import (
    EditPlan,
    MotionDescriptor,
    compile_sources,
    extract_descriptors,
    load_descriptor,
    plan_from_json,
    recompose,
    save_descriptor,
)
from .guidance import GuidanceConfig, GuidanceTarget
from .masks import BACKGROUND_ID, SAFE_NAME, apply_edit
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
    REQUIRED,
    LatentVideo,
    SceneManifest,
    atomic_write,
    check_keys,
    load_manifest,
    load_tensor,
    make_dir,
    read_json,
    remove_file,
    save_manifest,
    save_mask,
    save_tensor,
    typed_field,
    write_json,
)

log = logging.getLogger(__name__)

# --- synth ------------------------------------------------------------------


def run_synth(spec: SceneSpec, out_dir) -> Path:
    """Render a scene and write its latents, masks, manifest and spec.

    ``spec.json`` is the one record of each blob's true trajectory.
    """
    out_dir = make_dir(out_dir)
    latents, tracks, _ = render_scene(spec)
    save_tensor(latents, out_dir / "latents_t0.cmt")
    mask_files = {}
    for track in tracks:
        name = f"mask_{track.subject_id}.cmm"
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
    save_scene(spec, out_dir / "spec.json")
    return out_dir


# --- invert -----------------------------------------------------------------


def build_denoiser(
    atlas: list[LatentVideo] | None,
    schedule: NoiseSchedule,
    shape: tuple[int, ...],
    bandwidth: float = 0.5,
) -> Denoiser:
    """The atlas denoiser for latents of ``shape``; the zero denoiser for no atlas.

    A member of another shape raises DimMismatch here, before any stage
    that uses the denoiser has written a file.
    """
    for k, member in enumerate(atlas or ()):
        if member.shape != tuple(shape):
            raise DimMismatch(f"atlas member {k} has shape {member.shape}, "
                              f"the latents {tuple(shape)}")
    if not atlas:
        return ZeroDenoiser()
    return GaussianAtlasDenoiser(atlas, schedule, bandwidth=bandwidth)


def run_atlas(
    manifest: SceneManifest,
    member_specs: Sequence[SceneSpec],
    schedule: NoiseSchedule,
    out_dir,
    *,
    include_reference: bool = True,
    bandwidth: float = 0.5,
) -> Denoiser:
    """Write the atlas members to ``out_dir`` and build their denoiser.

    The members are the scene's clean latents (if ``include_reference``),
    then one render per spec of ``member_specs``, written as ``member###.cmt``.
    The denoiser's stack is the only copy of them kept.
    """
    out_dir = make_dir(out_dir)
    atlas: list[LatentVideo] = []
    if include_reference:
        atlas.append(manifest.load_latent("0"))
    for member_spec in member_specs:
        member_latents, _, _ = render_scene(member_spec)
        atlas.append(member_latents)
    for k, member in enumerate(atlas):
        save_tensor(member, out_dir / f"member{k:03d}.cmt")
    shape = (manifest.frames, manifest.channels, manifest.height, manifest.width)
    return build_denoiser(atlas, schedule, shape, bandwidth=bandwidth)


def run_invert(
    manifest: SceneManifest,
    schedule: NoiseSchedule,
    denoiser: Denoiser,
    out_dir,
) -> Path:
    """Invert the scene's clean latents and archive the trajectory in ``out_dir``.

    Each latent is written as soon as its DDIM step has made and checked
    it, so the run holds about one latent at a time, whatever ``n_steps``
    is. ``save_trajectory`` says how a rerun replaces an archive.
    """
    out_dir = Path(out_dir)
    z0 = manifest.load_latent("0")
    save_trajectory(ddim_invert_steps(z0, schedule, denoiser), schedule, out_dir)
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
    """Extract descriptors for every source at every stored timestep.

    The trajectory index is read once; then each timestep's latents are
    loaded, extracted and written before the next is read, so the run holds
    about one latent at a time. A timestep whose latents have another shape
    than t=0's raises DimMismatch before its descriptors are written; a bad
    subject id or mask geometry fails before anything is written. An
    ``extract_index.json`` already in ``out_dir`` is removed before the
    first descriptor is written, and the new one is written after the last,
    so a rerun that fails half way leaves an archive no reader accepts.
    """
    out_dir = Path(out_dir)
    schedule = read_trajectory_index(traj_dir)
    masks = manifest.load_masks()
    latents = load_tensor(trajectory_path(traj_dir, 0))
    shape = latents.shape
    # the regions depend on the masks alone
    operator = compile_sources(latents, masks, legacy_region=legacy_region)
    make_dir(out_dir)
    remove_file(out_dir / "extract_index.json")
    sources_seen: set[str] = set()
    for t in range(schedule.n_steps + 1):
        if t > 0:
            path = trajectory_path(traj_dir, t)
            latents = load_tensor(path)
            if latents.shape != shape:
                raise DimMismatch(f"{path}: latents {latents.shape} differ from t=0's {shape}")
        t_dir = make_dir(out_dir / f"t{t:03d}")
        for desc in extract_descriptors(latents, masks, timestep=t, strict=False, operator=operator):
            save_descriptor(desc, t_dir / f"{desc.source_id}.json")
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


@dataclass(frozen=True)
class ExtractIndex:
    """A descriptor archive's ``extract_index.json``.

    ``root`` holds ``t###/<source>.json`` for t in 0..n_steps, extracted with
    ``legacy_region``. ``manifest`` is the scene manifest's path relative to
    ``root``, or None.
    """

    root: Path
    n_steps: int
    sources: list[str]
    legacy_region: bool
    manifest: str | None

    def references(self, timesteps=None) -> dict[int, list[MotionDescriptor]]:
        """Descriptors of every listed source, per timestep (default: all of them).

        Only the files the index names are read, so a stray descriptor is never
        a reference, and each must hold the source and timestep of its name.
        """
        refs: dict[int, list[MotionDescriptor]] = {}
        for t in range(self.n_steps + 1) if timesteps is None else timesteps:
            if t not in range(self.n_steps + 1):
                raise BadValue(f"{self.root}: extract index lists no timestep {t}")
            refs[t] = []
            for sid in self.sources:
                path = self.root / f"t{t:03d}" / f"{sid}.json"
                desc = load_descriptor(path)
                if (desc.source_id, desc.timestep) != (sid, t):
                    raise BadValue(f"{path}: holds source {desc.source_id!r} at timestep "
                                   f"{desc.timestep}, not {sid!r} at {t}")
                refs[t].append(desc)
        return refs


_INDEX_KEYS = ("n_steps", "timesteps", "sources", "legacy_region", "manifest")


def read_extract_index(desc_dir) -> ExtractIndex:
    """The typed index ``run_extract`` wrote; a missing or mistyped field is rejected."""
    desc_dir = Path(desc_dir)
    what = f"extract index {desc_dir}"
    doc = check_keys(read_json(desc_dir / "extract_index.json"), _INDEX_KEYS, what)
    n_steps = typed_field(doc, "n_steps", int, REQUIRED, what)
    timesteps = typed_field(doc, "timesteps", list, REQUIRED, what)
    if len(timesteps) != n_steps + 1 or any(type(t) is not int or t != k
                                            for k, t in enumerate(timesteps)):
        raise BadValue(f"malformed {what}: timesteps must be 0..{n_steps}, got {timesteps!r}")
    sources = typed_field(doc, "sources", list, REQUIRED, what)
    if not all(isinstance(sid, str) and SAFE_NAME.fullmatch(sid) for sid in sources):
        raise BadValue(f"malformed {what}: sources must be filesystem-safe strings, "
                       f"got {sources!r}")
    if doc.get("manifest", "") is not None:  # null: extract recorded no manifest
        typed_field(doc, "manifest", str, REQUIRED, what)
    return ExtractIndex(
        desc_dir, n_steps, sources,
        legacy_region=typed_field(doc, "legacy_region", bool, REQUIRED, what),
        manifest=doc["manifest"],
    )


# --- recompose + guided sampling ---------------------------------------------


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
    denoiser: Denoiser,
    manifest: SceneManifest,
    guidance_config: GuidanceConfig | None = None,
    init: str = "auto",
    seed: int = 0,
    guided: bool = True,
) -> RecomposeResult:
    """Build the guidance problem from stored descriptors and sample a target video.

    ``denoiser`` comes from ``build_denoiser``: an atlas denoiser must have
    the trajectory's schedule and latent shape, or the run stops before
    sampling. run.json records its ``bandwidth`` (null for any other denoiser).
    """
    # sampling starts from z_T, so the other latents are never read
    schedule = read_trajectory_index(traj_dir)
    reference_zT = load_tensor(trajectory_path(traj_dir, schedule.n_steps))
    if isinstance(denoiser, GaussianAtlasDenoiser):
        if denoiser.members.shape[1:] != reference_zT.shape:
            raise DimMismatch(f"atlas members have shape {denoiser.members.shape[1:]}, "
                              f"the latents {reference_zT.shape}")
        if not np.array_equal(denoiser.schedule.alpha_bar, schedule.alpha_bar):
            raise BadValue(f"the denoiser's schedule is not the one {traj_dir} was inverted with")
    plan = plan if plan is not None else EditPlan()
    edits = {sid: d.edit for sid, d in plan.directives.items() if d.kind == "mask_edit"}
    if init == "auto":
        init_mode = "fresh" if plan.camera_only or edits else "shared"
    else:
        init_mode = init
    zT = make_initial_noise(reference_zT, mode=init_mode, seed=seed)

    guidance = None
    if guided:
        config = guidance_config if guidance_config is not None else GuidanceConfig()
        start, end = config.window(schedule.n_steps)
        index = read_extract_index(desc_dir)
        if index.n_steps != schedule.n_steps:
            raise BadValue(f"{desc_dir}: descriptors span timesteps 0..{index.n_steps}, "
                           f"the trajectory 0..{schedule.n_steps}")
        refs_by_t = index.references(range(end, start + 1))
        subjects = [apply_edit(m, edits[m.subject_id]) if m.subject_id in edits else m
                    for m in manifest.load_masks()]
        regions = compile_sources(reference_zT, subjects, legacy_region=index.legacy_region)
        targets = {}
        for t, refs in refs_by_t.items():
            # checked before ``recompose``, which indexes an (n_frames, n_frames) row table
            for ref in refs:
                if ref.n_frames != reference_zT.n_frames:
                    raise DimMismatch(f"{desc_dir}: descriptor {ref.source_id!r} at timestep {t} "
                                      f"has {ref.n_frames} frames, the latents "
                                      f"{reference_zT.n_frames}")
            targets[t] = GuidanceTarget(
                recompose(refs, plan), regions, weights=config.per_source_weight
            )
            if targets[t].enforced_pair_count() == 0:
                raise NoValidPairs(f"guidance problem has no enforced pairs at timestep {t}")
        guidance = SamplingGuidance(config=config, targets=targets)

    output = ddim_sample(zT, schedule, denoiser, guidance=guidance)
    out_dir = make_dir(out_dir)
    save_tensor(output, out_dir / "output.cmt")
    trace = guidance.trace if guidance is not None else []
    lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in trace)
    atomic_write(out_dir / "trace.jsonl", lines.encode())
    write_json(
        out_dir / "run.json",
        {"init": init_mode, "seed": seed, "guided": guided,
         "bandwidth": denoiser.bandwidth if isinstance(denoiser, GaussianAtlasDenoiser) else None},
    )
    return RecomposeResult(output=output, trace=trace, init_mode=init_mode)


# --- metrics ------------------------------------------------------------------


def run_metrics(run_dir, scene_dir, desc_dir=None, out_path=None, threshold: float = 0.5) -> dict:
    """Compare a generated video against its reference scene.

    Blob trajectories are estimated from the output latents via signature
    projection and scored against the true trajectories in the scene's
    ``spec.json``; descriptor distances compare clean-latent descriptors
    over the reference masks.
    """
    if not np.isfinite(threshold):
        raise BadValue(f"metrics threshold must be finite, got {threshold}")
    run_dir, scene_dir = Path(run_dir), Path(scene_dir)
    output = load_tensor(run_dir / "output.cmt")
    spec = load_scene(scene_dir / "spec.json")
    report: dict = {"subjects": {}, "descriptor_distances": {}, "warnings": []}
    for blob in spec.blobs:
        centroids, areas = estimate_blob_track(output, blob.channel_signature, threshold)
        missing = sum(1 for c in centroids if c is None)
        entry: dict = {"areas": areas, "missing_frames": missing}
        if missing == 0:
            entry["estimated"] = [list(c) for c in centroids]
            entry.update(compare_trajectories(blob.trajectory, centroids).to_json())
        else:
            report["warnings"].append(
                f"subject {blob.subject_id}: blob not found in {missing} output frames"
            )
        report["subjects"][blob.subject_id] = entry

    manifest = load_manifest(scene_dir / "manifest.json")
    masks = manifest.load_masks()
    # compared over the regions the references were extracted with
    index = read_extract_index(desc_dir) if desc_dir is not None else None
    operator = compile_sources(output, masks, legacy_region=bool(index and index.legacy_region))
    try:
        out_desc = extract_descriptors(output, masks, timestep=0, strict=False, operator=operator)
    except NoValidPairs:
        out_desc = []
    if index is not None:
        ref_desc = index.references([0])[0]
    else:
        ref_desc = extract_descriptors(
            manifest.load_latent("0"), masks, timestep=0, strict=False, operator=operator)
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
    weights = doc.get("weights", {})
    if not isinstance(weights, dict):
        raise BadValue(f"malformed {what}: weights must be an object, got {weights!r}")
    # null, like an absent key, selects the stable step
    step_size = None if doc.get("step_size") is None else typed_field(
        doc, "step_size", float, None, what)
    return GuidanceConfig(
        step_size=step_size,
        n_inner_steps=typed_field(doc, "n_inner_steps", int, 3, what),
        t_start=typed_field(doc, "t_start", int, None, what),
        t_end=typed_field(doc, "t_end", int, None, what),
        per_source_weight={
            str(sid): typed_field(weights, sid, float, None, f"{what} weights") for sid in weights
        },
    )


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
    shape = (spec.n_frames, spec.n_channels, spec.height, spec.width)
    for k, member_spec in enumerate(member_specs):
        member_shape = (member_spec.n_frames, member_spec.n_channels,
                        member_spec.height, member_spec.width)
        if member_shape != shape:
            raise DimMismatch(f"{what}: atlas_scenes[{k}] has latents {member_shape}, "
                              f"the scene {shape}")
    schedule = NoiseSchedule.default(
        n_steps=typed_field(sched_doc, "n_steps", int, 20, what),
        power=typed_field(sched_doc, "power", float, 2.0, what),
        floor=typed_field(sched_doc, "floor", float, 1e-4, what),
    )
    bandwidth = typed_field(config, "bandwidth", float, 0.5, what)
    threshold = typed_field(metrics_doc, "threshold", float, 0.5, what)
    seed = typed_field(config, "seed", int, 0, what)
    if seed < 0:
        raise BadValue(f"malformed {what}: seed must be >= 0, got {seed}")
    gcfg.window(schedule.n_steps)  # an empty guidance window is a config error
    guided = typed_field(config, "guided", bool, True, what)
    init = typed_field(config, "init", ("auto", "shared", "fresh"), "auto", what)
    legacy_region = typed_field(config, "legacy_region", bool, False, what)
    include_reference = typed_field(config, "atlas_include_reference", bool, True, what)
    invert_with = typed_field(config, "invert_denoiser", ("atlas", "zero"), "atlas", what)
    blob_ids = {b.subject_id for b in spec.blobs}
    for sid in plan.directives:
        if sid == BACKGROUND_ID or sid not in blob_ids:
            raise UnknownSubject(f"plan names subject {sid!r}; the scene has {sorted(blob_ids)}")
    for sid in gcfg.per_source_weight:
        if sid != BACKGROUND_ID and sid not in blob_ids:
            raise UnknownSubject(f"guidance weight for unknown source {sid!r}; the scene has "
                                 f"{sorted(blob_ids)} and {BACKGROUND_ID!r}")
    scene_dir = run_synth(spec, out_root / "scene")
    manifest = load_manifest(scene_dir / "manifest.json")
    # one denoiser serves inversion and recompose
    denoiser = run_atlas(manifest, member_specs, schedule, out_root / "atlas",
                         include_reference=include_reference, bandwidth=bandwidth)

    invert_denoiser = ZeroDenoiser() if invert_with == "zero" else denoiser
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
        denoiser=denoiser,
        manifest=manifest,
        guidance_config=gcfg,
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

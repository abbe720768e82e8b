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
from typing import Mapping, Sequence

import numpy as np

from .diffusion import (
    Denoiser,
    GaussianAtlasDenoiser,
    NoiseSchedule,
    SamplingGuidance,
    ZeroDenoiser,
    check_bandwidth,
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
from .masks import BACKGROUND_ID, SAFE_NAME, apply_edit, scale_sources
from .metrics import compare_trajectories, descriptor_distance
from .synth import (
    SceneSpec,
    _render_into,
    estimate_blob_track,
    load_scene,
    render_scene,
    save_scene,
    scene_from_json,
)
from .tensors import (
    TENSOR_MAGIC,
    LatentVideo,
    SceneManifest,
    atomic_write,
    load_manifest,
    load_tensor,
    make_dir,
    peek_dims,
    read_array,
    read_json,
    remove_file,
    save_manifest,
    save_mask,
    save_tensor,
    typed_fields,
    write_array,
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


def build_denoiser(atlas: np.ndarray | None, schedule: NoiseSchedule, **options) -> Denoiser:
    """The atlas denoiser over the float64 stack ``atlas``, which it keeps uncopied.

    ``options`` (``bandwidth``) go to ``GaussianAtlasDenoiser``, which
    defaults what is not given. No atlas (None, or a stack of no members)
    gives the zero denoiser.
    """
    if atlas is None or len(atlas) == 0:
        return ZeroDenoiser()
    return GaussianAtlasDenoiser(atlas, schedule, **options)


def load_atlas(paths: Sequence, shape: tuple[int, ...]) -> np.ndarray:
    """The atlas files at ``paths`` as one float64 (K, *shape) stack.

    Every file's header is checked before any payload is read, so a member of
    another shape raises DimMismatch, before any stage that uses the atlas
    has written a file, with no latent loaded. Each file is then read
    straight into its row of the stack, the one copy of the atlas held.
    """
    for k, path in enumerate(paths):
        dims = peek_dims(path, TENSOR_MAGIC)
        if dims != shape:
            raise DimMismatch(f"atlas member {k} has shape {dims}, the latents {shape}")
    members = np.empty((len(paths), *shape))
    for path, row in zip(paths, members):
        read_array(path, out=row)
    return members


def _check_member_shapes(member_specs: Sequence[SceneSpec], shape: tuple[int, ...]) -> None:
    for k, member_spec in enumerate(member_specs):
        if member_spec.latent_shape != shape:
            raise DimMismatch(f"atlas_scenes[{k}] has latents {member_spec.latent_shape}, "
                              f"the scene {shape}")


def run_atlas(
    manifest: SceneManifest,
    member_specs: Sequence[SceneSpec],
    schedule: NoiseSchedule,
    out_dir,
    *,
    include_reference: bool = True,
    **denoiser_options,
) -> Denoiser:
    """Write the atlas members to ``out_dir`` and build their denoiser.

    The members are the scene's clean latents (if ``include_reference``),
    then one render per spec of ``member_specs``, written as ``member###.cmt``.
    A spec of another shape than the scene's raises DimMismatch before
    anything is rendered. The denoiser's stack is allocated first and is the
    only copy of the members kept: each is loaded or rendered straight into
    its row, so a render holds only its masks and texture frames besides.
    ``denoiser_options`` go to ``build_denoiser``.
    """
    shape = manifest.latent_shape
    _check_member_shapes(member_specs, shape)
    out_dir = make_dir(out_dir)
    members = np.empty((int(include_reference) + len(member_specs), *shape))
    if include_reference:
        read_array(manifest.latent_path("0"), out=members[0])
    for row, member_spec in zip(members[int(include_reference):], member_specs):
        _render_into(member_spec, row)
    for k, row in enumerate(members):
        write_array(out_dir / f"member{k:03d}.cmt", row)
    return build_denoiser(members, schedule, **denoiser_options)


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
    if shape != manifest.latent_shape:
        raise DimMismatch(f"{traj_dir}: latents {shape} differ from the manifest's "
                          f"{manifest.latent_shape}")
    # the regions depend on the masks alone
    operator = compile_sources(latents, masks)
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
        "manifest": str(manifest_path) if manifest_path else None,
    }
    write_json(out_dir / "extract_index.json", index)
    return out_dir


@dataclass(frozen=True)
class ExtractIndex:
    """A descriptor archive's ``extract_index.json``.

    ``root`` holds ``t###/<source>.json`` for t in 0..n_steps. ``manifest`` is
    the scene manifest's path relative to ``root``, or None.
    """

    root: Path
    n_steps: int
    sources: list[str]
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


def read_extract_index(desc_dir) -> ExtractIndex:
    """The typed index ``run_extract`` wrote; a missing or mistyped field is rejected."""
    desc_dir = Path(desc_dir)
    what = f"extract index {desc_dir}"
    kinds = {"n_steps": int, "timesteps": list, "sources": list,
             "manifest": str | None}  # null: extract recorded no manifest
    fields = typed_fields(read_json(desc_dir / "extract_index.json"), kinds, what, required=kinds)
    n_steps, timesteps, sources = fields["n_steps"], fields.pop("timesteps"), fields["sources"]
    if len(timesteps) != n_steps + 1 or any(type(t) is not int or t != k
                                            for k, t in enumerate(timesteps)):
        raise BadValue(f"malformed {what}: timesteps must be 0..{n_steps}, got {timesteps!r}")
    if not all(isinstance(sid, str) and SAFE_NAME.fullmatch(sid) for sid in sources):
        raise BadValue(f"malformed {what}: sources must be filesystem-safe strings, "
                       f"got {sources!r}")
    return ExtractIndex(desc_dir, **fields)


# --- recompose + guided sampling ---------------------------------------------


def check_edit(plan: EditPlan, config: GuidanceConfig, subject_ids, n_steps: int,
               height: int, width: int) -> tuple[int, int]:
    """The guidance window of ``config`` over ``n_steps``, once the edit is known to apply.

    The plan may name only the scene's ``subject_ids``, and the weights only
    those and the background; a scale edit must be one ``scale_sources`` can
    map over the (``height``, ``width``) frame. An empty window is an error too.
    """
    window = config.window(n_steps)
    known = sorted(subject_ids)
    for sid, directive in plan.directives.items():
        if sid not in known:
            raise UnknownSubject(f"plan names subject {sid!r}, an unknown subject; "
                                 f"the scene has {known}")
        edit = directive.edit
        if edit is not None and edit.kind == "scale":
            scale_sources(height, width, edit.factor, edit.anchor)
    for sid in config.per_source_weight:
        if sid != BACKGROUND_ID and sid not in known:
            raise UnknownSubject(f"guidance weight for unknown source {sid!r}: a weight for "
                                 f"source {sid!r} needs its mask; the scene has {known} "
                                 f"and {BACKGROUND_ID!r}")
    return window


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
    The plan and the guidance config pass ``check_edit`` against the
    manifest's subjects before sampling, guided or not.
    """
    # sampling starts from z_T, so the other latents are never read
    schedule = read_trajectory_index(traj_dir)
    plan = plan if plan is not None else EditPlan()
    config = guidance_config if guidance_config is not None else GuidanceConfig()
    start, end = check_edit(plan, config, manifest.subject_ids, schedule.n_steps,
                            manifest.height, manifest.width)
    reference_zT = load_tensor(trajectory_path(traj_dir, schedule.n_steps))
    if isinstance(denoiser, GaussianAtlasDenoiser):
        if denoiser.members.shape[1:] != reference_zT.shape:
            raise DimMismatch(f"atlas members have shape {denoiser.members.shape[1:]}, "
                              f"the latents {reference_zT.shape}")
        if not np.array_equal(denoiser.schedule.alpha_bar, schedule.alpha_bar):
            raise BadValue(f"the denoiser's schedule is not the one {traj_dir} was inverted with")
    edits = {sid: d.edit for sid, d in plan.directives.items() if d.kind == "mask_edit"}
    if init == "auto":
        init_mode = "fresh" if plan.camera_only or edits else "shared"
    else:
        init_mode = init
    zT = make_initial_noise(reference_zT, mode=init_mode, seed=seed)

    guidance = None
    if guided:
        index = read_extract_index(desc_dir)
        if index.n_steps != schedule.n_steps:
            raise BadValue(f"{desc_dir}: descriptors span timesteps 0..{index.n_steps}, "
                           f"the trajectory 0..{schedule.n_steps}")
        refs_by_t = index.references(range(end, start + 1))
        subjects = [apply_edit(m, edits[m.subject_id]) if m.subject_id in edits else m
                    for m in manifest.load_masks()]
        regions = compile_sources(reference_zT, subjects)
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
    if output.shape != spec.latent_shape:
        raise DimMismatch(f"{run_dir}: output latents {output.shape} differ from the scene's "
                          f"{spec.latent_shape}")
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
    operator = compile_sources(output, masks)
    try:
        out_desc = extract_descriptors(output, masks, timestep=0, strict=False, operator=operator)
    except NoValidPairs:
        out_desc = []
    if desc_dir is not None:
        ref_desc = read_extract_index(desc_dir).references([0])[0]
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


def guidance_config_from_json(doc: dict) -> GuidanceConfig:
    """The ``guidance`` section of a pipeline config; any other key is rejected.

    A null ``step_size``, like an absent one, selects the stable step.
    """
    what = "guidance config"
    fields = typed_fields(doc, {"step_size": float | None, "n_inner_steps": int, "t_start": int,
                                "t_end": int, "weights": dict}, what)
    if "weights" in fields:
        weights = fields.pop("weights")
        fields["per_source_weight"] = typed_fields(weights, dict.fromkeys(weights, float),
                                                   f"{what} weights", required=weights)
    return GuidanceConfig(**fields)


def _scene_spec(doc) -> SceneSpec:
    """A scene given inline as a spec object, or as the path of a spec file."""
    return load_scene(doc) if isinstance(doc, str) else scene_from_json(doc)


def given(settings: Mapping, **keys) -> dict:
    """Each ``arg=name`` as ``arg: settings[name]``, if set; the stage defaults the rest."""
    return {arg: settings[name] for arg, name in keys.items() if name in settings}


def run_pipeline(config: dict, out_root=None) -> dict:
    """Run every stage per a config document; returns the metrics report.

    The stages write under ``out_root``, by default the config's ``out_dir``.
    Every key is checked, and every value parsed, before the first stage
    writes output; an unknown key is rejected rather than left to its default.
    Booleans, integers and the enumerated strings must have their JSON type.
    """
    what = "pipeline config"
    cfg = typed_fields(config, {
        "out_dir": str, "seed": int, "scene": dict | str, "schedule": dict,
        "atlas_include_reference": bool, "atlas_scenes": list, "bandwidth": float,
        "invert_denoiser": ("atlas", "zero"), "guidance": dict,
        "plan": dict, "init": ("auto", "shared", "fresh"), "guided": bool, "metrics": dict,
    }, what, required=("scene",))
    out_root = out_root or cfg.get("out_dir")
    if out_root is None:
        raise BadValue("config needs 'out_dir' (or pass --out)")
    out_root = Path(out_root)
    plan = plan_from_json(cfg.get("plan", {}))
    gcfg = guidance_config_from_json(cfg.get("guidance", {}))
    schedule = NoiseSchedule.default(**typed_fields(
        cfg.get("schedule", {}), {"n_steps": int, "power": float, "floor": float}, "schedule",
        where=what))
    metrics_args = typed_fields(cfg.get("metrics", {}), {"threshold": float}, "metrics")
    spec = _scene_spec(cfg["scene"])
    member_specs = [_scene_spec(doc) for doc in cfg.get("atlas_scenes", [])]
    _check_member_shapes(member_specs, spec.latent_shape)
    if "bandwidth" in cfg:
        check_bandwidth(cfg["bandwidth"])
    if cfg.get("seed", 0) < 0:
        raise BadValue(f"malformed {what}: seed must be >= 0, got {cfg['seed']}")
    check_edit(plan, gcfg, [b.subject_id for b in spec.blobs], schedule.n_steps,
               spec.height, spec.width)
    scene_dir = run_synth(spec, out_root / "scene")
    manifest = load_manifest(scene_dir / "manifest.json")
    # one denoiser serves inversion and recompose
    denoiser = run_atlas(manifest, member_specs, schedule, out_root / "atlas",
                         **given(cfg, include_reference="atlas_include_reference",
                                 bandwidth="bandwidth"))

    invert_denoiser = ZeroDenoiser() if cfg.get("invert_denoiser") == "zero" else denoiser
    traj_dir = run_invert(manifest, schedule, invert_denoiser, out_root / "traj")

    desc_dir = run_extract(traj_dir, manifest, out_root / "desc",
                           manifest_path="../scene/manifest.json")

    run_recompose(
        desc_dir,
        plan,
        traj_dir,
        out_root / "run",
        denoiser=denoiser,
        manifest=manifest,
        guidance_config=gcfg,
        **given(cfg, init="init", seed="seed", guided="guided"),
    )
    report = run_metrics(
        out_root / "run",
        scene_dir,
        desc_dir=desc_dir,
        out_path=out_root / "metrics.json",
        **metrics_args,
    )
    recorded = {k: v for k, v in config.items() if k != "out_dir"}
    write_json(out_root / "config.json", recorded)
    return report

"""End-to-end orchestration: synth -> invert and extract, in one pass -> recompose -> metrics.

Each stage writes plain files into a fixed layout under the run root so a
rerun with the same config and seeds is byte-identical. The CLI drives
these functions; tests call them directly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .archive import _read_timestep, save_descriptors
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
    trajectory_path,
)
from .errors import BadValue, DimMismatch, NoValidPairs, UnknownSubject
from .features import (
    EditPlan,
    MotionDescriptor,
    PairOperator,
    compile_sources,
    extract_descriptors,
    plan_from_json,
    recompose,
    warn_empty_sources,
)
from .guidance import GuidanceConfig, GuidanceTarget
from .masks import BACKGROUND_ID, SAFE_NAME, apply_edit, scale_sources
from .metrics import compare_trajectories
from .synth import (
    SceneSpec,
    _render_into,
    estimate_blob_track,
    load_scene,
    render_scene,
    save_scene,
    scene_from_json,
    scene_masks,
)
from .tensors import (
    TENSOR_MAGIC,
    LatentVideo,
    MaskTrack,
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
    # consecutive members of one blob geometry share its masks; held only while
    # they serve, they add nothing to the stage's peak
    blobs = tracks = None
    for row, member_spec in zip(members[int(include_reference):], member_specs):
        if member_spec.blobs != blobs:
            del tracks  # before the next geometry's are made
            blobs, tracks = member_spec.blobs, scene_masks(member_spec)
        _render_into(member_spec, row, tracks)
    del tracks
    for k, row in enumerate(members):
        write_array(out_dir / f"member{k:03d}.cmt", row)
    return build_denoiser(members, schedule, **denoiser_options)


def run_invert(
    manifest: SceneManifest,
    schedule: NoiseSchedule,
    denoiser: Denoiser,
    traj_dir,
) -> Iterator[np.ndarray]:
    """Invert the scene's clean latents: yield each one, then archive z_T in ``traj_dir``.

    A generator: asked for its first latent, it removes any ``index.json`` in
    ``traj_dir``, then yields the float64 latents at t = 0..n_steps as
    ``ddim_invert_steps`` makes them, each a read-only view valid until the next
    is asked for. Resumed after the last, it writes z_T as
    ``trajectory_path(traj_dir, n_steps)`` and then the index (``n_steps`` and
    ``alpha_bar``), so a stream abandoned half way leaves no index.
    """
    traj_dir = make_dir(traj_dir)
    index = traj_dir / "index.json"
    remove_file(index)
    for z in ddim_invert_steps(manifest.load_latent("0"), schedule, denoiser):
        yield z
    write_array(trajectory_path(traj_dir, schedule.n_steps), z)
    write_json(index, {"n_steps": schedule.n_steps,
                       "alpha_bar": [float(a) for a in schedule.alpha_bar]})


# --- extract ----------------------------------------------------------------


def run_extract(
    latents: Iterable[np.ndarray],
    manifest: SceneManifest,
    out_dir,
    *,
    manifest_path,
) -> ExtractIndex:
    """Extract descriptors for every source from a stream of latents; returns the index written.

    ``latents`` yields float64 latents of the manifest's shape at t = 0..n_steps,
    such as ``run_invert``'s stream. Each is cast to float32, the values a tensor
    file holds, and its descriptors are written before the next is asked for.
    A bad subject id or mask geometry fails before anything is written, and a
    stream of no latents raises BadValue. An ``extract_index.json`` already in
    ``out_dir`` is removed before the first latent is asked for, and the new one
    is written after the last, so a rerun that fails half way leaves an archive
    no reader accepts.
    """
    out_dir = Path(out_dir)
    masks = manifest.load_masks()
    # the regions depend on the masks alone
    operator = compile_sources(manifest.latent_shape, masks)
    warn_empty_sources(operator)
    make_dir(out_dir)
    remove_file(out_dir / "extract_index.json")
    sources_seen: set[str] = set()
    t = -1
    for t, z in enumerate(latents):
        with np.errstate(over="ignore"):  # past float32's range is inf, which LatentVideo rejects
            z = z.astype(np.float32)
        z.setflags(write=False)
        descs = extract_descriptors(LatentVideo(z), masks, timestep=t, strict=False,
                                    operator=operator)
        save_descriptors(descs, make_dir(out_dir / f"t{t:03d}"))
        sources_seen.update(desc.source_id for desc in descs)
        del z  # the next latent is made with no cast alive
    if t < 0:
        raise BadValue(f"{out_dir}: no latents to extract descriptors from")
    index = ExtractIndex(out_dir, t, sorted(sources_seen), str(manifest_path))
    write_json(out_dir / "extract_index.json", {
        "n_steps": index.n_steps,
        "timesteps": list(range(index.n_steps + 1)),
        "sources": index.sources,
        "manifest": index.manifest,
    })
    return index


@dataclass(frozen=True)
class ExtractIndex:
    """A descriptor archive's ``extract_index.json``.

    ``root`` holds, for t in 0..n_steps, ``t###/deltas.cmt``, the timestep's
    (n_rows, C) deltas of every source, and one ``t###/<source>.json`` per
    source naming its pairs and its ``rows`` of that tensor. ``manifest`` is
    the scene manifest's path relative to ``root``.
    """

    root: Path
    n_steps: int
    sources: list[str]
    manifest: str

    def references(self, timesteps=None) -> dict[int, list[MotionDescriptor]]:
        """Descriptors of every listed source, per timestep (default: all of them).

        Only the files the index names are read, so a stray descriptor is never
        a reference. Each timestep's tensor is read once; each document must
        hold the source and timestep of its name, its rows must be as many as
        its pairs, and the sources' rows must tile the tensor. Every timestep
        read must have one channel count.
        """
        refs: dict[int, list[MotionDescriptor]] = {}
        channels = set()
        for t in range(self.n_steps + 1) if timesteps is None else timesteps:
            if t not in range(self.n_steps + 1):
                raise BadValue(f"{self.root}: extract index lists no timestep {t}")
            refs[t] = _read_timestep(self.root / f"t{t:03d}", t, self.sources)
            channels.update(desc.n_channels for desc in refs[t])
            if len(channels) > 1:
                raise BadValue(f"{self.root}: descriptors up to timestep {t} have channel "
                               f"counts {sorted(channels)}")
        return refs


def read_extract_index(desc_dir) -> ExtractIndex:
    """The typed index ``run_extract`` wrote; a missing or mistyped field is rejected."""
    desc_dir = Path(desc_dir)
    what = f"extract index {desc_dir}"
    kinds = {"n_steps": int, "timesteps": list, "sources": list,
             "manifest": str}
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


def check_edit(plan: EditPlan, config: GuidanceConfig, latent_shape: Sequence[int],
               masks: Sequence[MaskTrack], n_steps: int) -> tuple[tuple[int, int], PairOperator]:
    """The guidance window of ``config`` over ``n_steps`` and the target regions (the
    scene's ``masks`` with the plan's mask edits applied), once the edit is known to apply.

    The plan may name only its subjects that have a pair region, and the weights only
    its subjects and the background; a scale edit must be one ``scale_sources`` can map
    over the frame. Some source with a positive weight must have a target row whose
    pair its recomposed reference has. An empty window is an error too.
    """
    window = config.window(n_steps)
    regions = compile_sources(latent_shape, masks)
    known = sorted(sid for sid in regions.slices if sid != BACKGROUND_ID)
    height, width = regions.spatial
    for sid, directive in plan.directives.items():
        if sid not in known:
            raise UnknownSubject(f"plan names subject {sid!r}, an unknown subject; "
                                 f"the scene has {known}")
        rows = regions.slices[sid]
        if rows.start == rows.stop:
            raise UnknownSubject(f"plan names subject {sid!r}, which has no pair region: "
                                 f"other subjects cover it in every frame pair")
        edit = directive.edit
        if edit is not None and edit.kind == "scale":
            scale_sources(height, width, edit.factor, edit.anchor)
    for sid in config.weights:
        if sid != BACKGROUND_ID and sid not in known:
            raise UnknownSubject(f"guidance weight for unknown source {sid!r}: a weight for "
                                 f"source {sid!r} needs its mask; the scene has {known} "
                                 f"and {BACKGROUND_ID!r}")
    # the references have the pairs of extraction's descriptors: the scene's rows
    refs = recompose([MotionDescriptor(sid, 0, regions.n_frames, regions.ij[rows],
                                       np.zeros((rows.stop - rows.start, 1)))
                      for sid, rows in regions.slices.items()], plan)
    edits = {sid: d.edit for sid, d in plan.directives.items() if d.kind == "mask_edit"}
    if edits:  # the scene's regions go first: two at once raise large-edit's peak RSS by 1 MB
        del regions
        regions = compile_sources(latent_shape, [apply_edit(m, edits[m.subject_id])
                                                 if m.subject_id in edits else m for m in masks])
    if not GuidanceTarget(refs, regions, weights=config.weights).weight.any():
        raise BadValue("the edit guides nothing: no source with a positive guidance weight "
                       "has a target pair region its recomposed reference also has")
    return window, regions


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

    z_T's header must give the manifest's shape, or the run stops before it
    reads anything else; z_T itself is loaded only to start sampling.
    ``denoiser`` comes from ``build_denoiser``: an atlas denoiser must have
    the trajectory's schedule and latent shape, or the run stops before
    sampling. run.json records its ``bandwidth`` (null for any other denoiser).
    The plan and the guidance config pass ``check_edit`` against the
    regions of the manifest's masks before sampling, guided or not.
    """
    schedule = read_trajectory_index(traj_dir)
    plan = plan if plan is not None else EditPlan()
    config = guidance_config if guidance_config is not None else GuidanceConfig()
    zT_path = trajectory_path(traj_dir, schedule.n_steps)
    shape = peek_dims(zT_path, TENSOR_MAGIC)
    if shape != manifest.latent_shape:
        raise DimMismatch(f"{zT_path}: z_T {shape} is not the manifest's {manifest.latent_shape}")
    (start, end), regions = check_edit(plan, config, shape, manifest.load_masks(),
                                       schedule.n_steps)
    # unguided, drop the operator (4 MB at 16x4x64x64) before z_T: held, it raised peak RSS 1.3 MB
    regions = regions if guided else None
    if isinstance(denoiser, GaussianAtlasDenoiser):
        if denoiser.members.shape[1:] != shape:
            raise DimMismatch(f"atlas members have shape {denoiser.members.shape[1:]}, "
                              f"the latents {shape}")
        if not np.array_equal(denoiser.schedule.alpha_bar, schedule.alpha_bar):
            raise BadValue(f"the denoiser's schedule is not the one {traj_dir} was inverted with")
    edits = {sid: d.edit for sid, d in plan.directives.items() if d.kind == "mask_edit"}
    if init == "auto":
        init_mode = "fresh" if plan.camera_only or edits else "shared"
    else:
        init_mode = init

    guidance = None
    if guided:
        index = read_extract_index(desc_dir)
        if index.n_steps != schedule.n_steps:
            raise BadValue(f"{desc_dir}: descriptors span timesteps 0..{index.n_steps}, "
                           f"the trajectory 0..{schedule.n_steps}")
        refs_by_t = index.references(range(end, start + 1))
        targets = {}
        for t, refs in refs_by_t.items():
            # checked before ``recompose``, which indexes an (n_frames, n_frames) row table
            for ref in refs:
                if ref.n_frames != shape[0]:
                    raise DimMismatch(f"{desc_dir}: descriptor {ref.source_id!r} at timestep {t} "
                                      f"has {ref.n_frames} frames, the latents {shape[0]}")
            targets[t] = GuidanceTarget(
                recompose(refs, plan), regions, weights=config.weights
            )
            if targets[t].enforced_pair_count() == 0:
                raise NoValidPairs(f"guidance problem has no enforced pairs at timestep {t}")
        guidance = SamplingGuidance(config=config, targets=targets)
    # z_T lives only as the argument ddim_sample drops once copied; fresh noise drops it sooner
    output = ddim_sample(make_initial_noise(load_tensor(zT_path), mode=init_mode, seed=seed),
                         schedule, denoiser, guidance=guidance)
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


def run_metrics(run_dir, scene_dir, out_path=None, threshold: float = 0.5) -> dict:
    """Compare a generated video against its reference scene.

    Blob trajectories are estimated from the output latents via signature
    projection and scored against the true trajectories in the scene's
    ``spec.json``. Descriptor distances apply the pair operator of the
    scene's masks to the scene's clean latents and to the output, and sum
    each source's squared differences over its rows; ``relative_l2`` divides
    by the reference's own sum of squares, and is null where that is 0.
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
            entry.update(compare_trajectories(blob.trajectory, centroids))
        else:
            report["warnings"].append(
                f"subject {blob.subject_id}: blob not found in {missing} output frames"
            )
        report["subjects"][blob.subject_id] = entry

    manifest = load_manifest(scene_dir / "manifest.json")
    operator = compile_sources(output.shape, manifest.load_masks())
    ref = operator.apply(manifest.load_latent("0").data)
    residual = ref - operator.apply(output.data)
    for sid, rows in operator.slices.items():
        dist = float(np.sum(residual[rows] * residual[rows]))
        ref_norm = float(np.sum(ref[rows] * ref[rows]))
        if rows.start == rows.stop:
            report["warnings"].append(f"source {sid}: no valid pairs")
        report["descriptor_distances"][sid] = {
            "distance": dist,
            "n_pairs": rows.stop - rows.start,
            "relative_l2": float(np.sqrt(dist / ref_norm)) if ref_norm > 0 else None,
        }
    if out_path is not None:
        write_json(out_path, report)
    return report


# --- full pipeline --------------------------------------------------------------


def guidance_config_from_json(doc: dict) -> GuidanceConfig:
    """A pipeline config's ``guidance`` section, or a ``recompose --guidance`` file.

    Any other key is rejected. A null ``step_size``, like an absent one, runs
    conjugate gradients.
    """
    what = "guidance config"
    fields = typed_fields(doc, {"step_size": float | None, "n_inner_steps": int, "t_start": int,
                                "t_end": int, "weights": dict}, what)
    if "weights" in fields:
        weights = fields["weights"]
        fields["weights"] = typed_fields(weights, dict.fromkeys(weights, float),
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
    check_edit(plan, gcfg, spec.latent_shape, scene_masks(spec), schedule.n_steps)
    scene_dir = run_synth(spec, out_root / "scene")
    manifest = load_manifest(scene_dir / "manifest.json")
    # one denoiser serves inversion and recompose
    denoiser = run_atlas(manifest, member_specs, schedule, out_root / "atlas",
                         **given(cfg, include_reference="atlas_include_reference",
                                 bandwidth="bandwidth"))

    invert_denoiser = ZeroDenoiser() if cfg.get("invert_denoiser") == "zero" else denoiser
    index = run_extract(run_invert(manifest, schedule, invert_denoiser, out_root / "traj"),
                        manifest, out_root / "desc", manifest_path="../scene/manifest.json")

    run_recompose(
        index.root,
        plan,
        out_root / "traj",
        out_root / "run",
        denoiser=denoiser,
        manifest=manifest,
        guidance_config=gcfg,
        **given(cfg, init="init", seed="seed", guided="guided"),
    )
    report = run_metrics(out_root / "run", scene_dir, out_path=out_root / "metrics.json",
                         **metrics_args)
    recorded = {k: v for k, v in config.items() if k != "out_dir"}
    write_json(out_root / "config.json", recorded)
    return report

"""Command-line driver: synth, invert, extract, recompose, metrics, gradcheck, pipeline.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure. Every
command is deterministic given its config and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import pipeline as pl
from .diffusion import NoiseSchedule, ZeroDenoiser, read_trajectory_index, trajectory_path
from .errors import BadValue, DimMismatch, EmptyRegion, MomixError, NonFinite, NoValidPairs
from .features import (
    Directive,
    EditPlan,
    extract_descriptors,
    load_plan,
)
from .gradcheck import run_gradcheck
from .guidance import GuidanceConfig
from .masks import MaskEdit
from .metrics import descriptor_distance
from .synth import load_scene
from .tensors import load_manifest, load_tensor, read_json

_NUMERIC_ERRORS = (NonFinite, NoValidPairs, EmptyRegion)
# A flag so marked is left out of ``args`` when not given, and ``pl.given``
# passes its stage only the flags that are there: the stage's default applies.
_STAGE_DEFAULT = argparse.SUPPRESS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momix",
        description="Motion disentanglement and recomposition engine for latent videos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene from a spec JSON")
    p.add_argument("scene_spec", help="path to a scene spec JSON")
    p.add_argument("out_dir")
    p.add_argument("--images", action="store_true", help="also dump PGM frames")

    p = sub.add_parser("invert", help="run DDIM inversion and archive the trajectory")
    p.add_argument("manifest", help="scene manifest JSON")
    p.add_argument("out_dir")
    p.add_argument("--steps", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--power", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--floor", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--zero-noise", action="store_true", help="use the zero denoiser")
    p.add_argument("--atlas", nargs="+", default=None, help="atlas latent files")
    p.add_argument("--bandwidth", type=float, default=_STAGE_DEFAULT)

    p = sub.add_parser("extract", help="extract motion descriptors per source per timestep")
    p.add_argument("traj_dir", help="trajectory archive directory")
    p.add_argument("manifest", help="scene manifest JSON")
    p.add_argument("out_dir")
    p.add_argument(
        "--baseline",
        default=None,
        help="descriptor dir of an isolated-subject scene; prints refined and "
        "legacy distances against it",
    )

    p = sub.add_parser("recompose", help="apply an edit plan and sample a guided target video")
    p.add_argument("desc_dir", help="descriptor archive directory")
    p.add_argument("traj_dir", help="reference trajectory archive directory")
    p.add_argument("out_dir")
    p.add_argument("--plan", default=None, help="edit plan JSON (default: keep everything)")
    p.add_argument("--manifest", default=None, help="override the manifest recorded at extract")
    p.add_argument("--atlas", nargs="+", required=True, help="atlas latent files for the denoiser")
    p.add_argument("--bandwidth", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--soften", type=float, default=None, metavar="W_C")
    p.add_argument("--remove", action="append", default=[], metavar="ID")
    p.add_argument("--camera-only", action="store_true")
    p.add_argument("--shift", nargs=3, action="append", default=[], metavar=("ID", "DX", "DY"))
    p.add_argument("--resize", nargs=2, action="append", default=[], metavar=("ID", "FACTOR"))
    p.add_argument("--init", choices=["auto", "shared", "fresh"], default=_STAGE_DEFAULT)
    p.add_argument("--seed", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--step-size", type=float, default=_STAGE_DEFAULT, help="default: 1/curvature")
    p.add_argument("--inner-steps", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--t-start", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--t-end", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--weight", action="append", default=[], metavar="ID=W")
    p.add_argument("--unguided", action="store_true", help="sample without guidance")

    p = sub.add_parser("metrics", help="score a generated video against its reference scene")
    p.add_argument("run_dir")
    p.add_argument("scene_dir")
    p.add_argument("--desc", default=None, help="reference descriptor dir")
    p.add_argument("--threshold", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--out", default=None, help="report path (default run_dir/metrics.json)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the guidance gradient")
    p.add_argument("--seed", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--cases", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--fault", choices=["sign-flip"], default=None, help="test hook")
    p.add_argument("--zero-weights", action="store_true", help="test hook")

    p = sub.add_parser("pipeline", help="run synth->invert->extract->recompose->metrics")
    p.add_argument("config", help="run config JSON")
    p.add_argument("--out", default=None, help="override out_dir from the config")

    return parser


def _cmd_synth(args) -> int:
    spec = load_scene(args.scene_spec)
    out = pl.run_synth(spec, args.out_dir)
    if args.images:
        from .synth import write_frame_images

        write_frame_images(load_tensor(out / "latents_t0.cmt"), Path(args.out_dir) / "frames")
    print(f"scene written to {out} ({spec.n_frames} frames, {len(spec.blobs)} subjects)")
    return 0


def _cmd_invert(args) -> int:
    manifest = load_manifest(args.manifest)
    schedule = NoiseSchedule.default(**pl.given(vars(args), n_steps="steps", power="power",
                                                floor="floor"))
    if args.zero_noise:
        denoiser = ZeroDenoiser()
    else:
        atlas_paths = args.atlas if args.atlas else [manifest.latent_path("0")]
        denoiser = pl.build_denoiser(pl.load_atlas(atlas_paths, manifest.latent_shape),
                                     schedule, **pl.given(vars(args), bandwidth="bandwidth"))
    out = pl.run_invert(manifest, schedule, denoiser, args.out_dir)
    print(f"trajectory archive written to {out} ({schedule.n_steps + 1} tensors)")
    return 0


def _cmd_extract(args) -> int:
    manifest = load_manifest(args.manifest)
    baseline = None
    if args.baseline:  # read before anything is written, so a bad baseline leaves no archive
        baseline = {d.source_id: d
                    for d in pl.read_extract_index(args.baseline).references([0])[0]}
        for d in baseline.values():
            channels = d.n_channels if len(d.pairs) else manifest.channels  # no pairs, no channels
            if (d.n_frames, channels) != (manifest.frames, manifest.channels):
                raise DimMismatch(f"baseline {args.baseline}: descriptor {d.source_id!r} has "
                                  f"{d.n_frames} frames x {d.n_channels} channels, the scene "
                                  f"{manifest.frames} x {manifest.channels}")
    rel = os.path.relpath(args.manifest, args.out_dir)
    out = pl.run_extract(args.traj_dir, manifest, args.out_dir, manifest_path=rel)
    index = pl.read_extract_index(out)
    print(f"descriptors written to {out}: sources={index.sources}, timesteps=0..{index.n_steps}")
    if baseline is not None:
        _print_baseline_distances(args, manifest, baseline)
    return 0


def _print_baseline_distances(args, manifest, baseline) -> None:
    z0 = load_tensor(trajectory_path(args.traj_dir, 0))  # run_extract has read its index
    masks = manifest.load_masks()
    for mode, legacy in (("refined", False), ("legacy", True)):
        for d in extract_descriptors(z0, masks, timestep=0, legacy_region=legacy, strict=False):
            if d.source_id in baseline:
                dist, n = descriptor_distance(d, baseline[d.source_id])
                print(f"{mode} {d.source_id}: distance to baseline = {dist:.6g} over {n} pairs")


def _parse_weights(items: list[str]) -> dict[str, float]:
    weights = {}
    for item in items:
        if "=" not in item:
            raise BadValue(f"--weight expects ID=W, got {item!r}")
        sid, _, val = item.partition("=")
        try:
            weights[sid] = float(val)
        except ValueError:
            raise BadValue(f"--weight expects a numeric value, got {item!r}")
    return weights


def _plan_from_args(args, manifest) -> EditPlan:
    base = load_plan(args.plan) if args.plan else EditPlan()
    directives = dict(base.directives)
    if args.soften is not None:
        for sid in manifest.subject_ids:
            directives.setdefault(sid, Directive("soften", w_c=args.soften))
    for sid in args.remove:
        directives[sid] = Directive("remove")
    for sid, dx, dy in args.shift:
        try:
            edit = MaskEdit("shift", dx=int(dx), dy=int(dy))
        except ValueError:
            raise BadValue(f"--shift expects integer dx dy, got {dx!r} {dy!r}")
        directives[sid] = Directive("mask_edit", edit=edit)
    for sid, factor in args.resize:
        try:
            factor = float(factor)
        except ValueError:
            raise BadValue(f"--resize expects a numeric factor, got {factor!r}")
        anchor = ((manifest.height - 1) / 2.0, (manifest.width - 1) / 2.0)
        directives[sid] = Directive("mask_edit", edit=MaskEdit("scale", factor=factor, anchor=anchor))
    return EditPlan(
        directives=directives,
        include_background=base.include_background,
        w_c=args.soften if args.soften is not None else base.w_c,
        camera_only=args.camera_only or base.camera_only,
    )


def _cmd_recompose(args) -> int:
    desc_dir = Path(args.desc_dir)
    if args.manifest:
        manifest_path = Path(args.manifest)
    else:
        # recorded relative to the desc dir at extract time
        recorded = pl.read_extract_index(desc_dir).manifest
        if recorded is None:
            raise BadValue("no manifest recorded at extract time; pass --manifest")
        manifest_path = desc_dir / recorded
    manifest = load_manifest(manifest_path)
    plan = _plan_from_args(args, manifest)
    config = GuidanceConfig(
        **pl.given(vars(args), step_size="step_size", n_inner_steps="inner_steps",
                   t_start="t_start", t_end="t_end"),
        per_source_weight=_parse_weights(args.weight),
    )
    denoiser = pl.build_denoiser(pl.load_atlas(args.atlas, manifest.latent_shape),
                                 read_trajectory_index(args.traj_dir),
                                 **pl.given(vars(args), bandwidth="bandwidth"))
    result = pl.run_recompose(
        desc_dir,
        plan,
        args.traj_dir,
        args.out_dir,
        denoiser=denoiser,
        manifest=manifest,
        guidance_config=config,
        guided=not args.unguided,
        **pl.given(vars(args), init="init", seed="seed"),
    )
    if result.trace:
        first, last = result.trace[0]["loss"], result.trace[-1]["loss"]
        print(f"sampled with guidance: first loss {first:.6g}, last loss {last:.6g}")
    else:
        print("sampled without guidance")
    print(f"target video written to {Path(args.out_dir) / 'output.cmt'} (init={result.init_mode})")
    return 0


def _cmd_metrics(args) -> int:
    out_path = args.out or (Path(args.run_dir) / "metrics.json")
    report = pl.run_metrics(
        args.run_dir,
        args.scene_dir,
        desc_dir=args.desc,
        out_path=out_path,
        **pl.given(vars(args), threshold="threshold"),
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_gradcheck(args) -> int:
    report = run_gradcheck(
        fault=args.fault,
        zero_weights=args.zero_weights,
        **pl.given(vars(args), seed="seed", n_cases="cases"),
    )
    if report["vacuous"]:
        print(f"warning: {report['vacuous']}; gradient check is vacuous")
    print(
        f"gradcheck: {report['checked']} cases, max relative error "
        f"{report['max_rel_err']:.3e} (worst case {report.get('worst_case')})"
    )
    if not report["passed"]:
        print("gradcheck FAILED: analytic gradient disagrees with finite differences",
              file=sys.stderr)
        return 3
    print("gradcheck passed")
    return 0


def _cmd_pipeline(args) -> int:
    report = pl.run_pipeline(read_json(args.config), args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "invert": _cmd_invert,
    "extract": _cmd_extract,
    "recompose": _cmd_recompose,
    "metrics": _cmd_metrics,
    "gradcheck": _cmd_gradcheck,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MomixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

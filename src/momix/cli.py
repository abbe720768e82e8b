"""Command-line driver: synth, invert, recompose, metrics, gradcheck, pipeline.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure. Every
command is deterministic given its config and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import pipeline as pl
from .diffusion import NoiseSchedule, ZeroDenoiser, read_trajectory_index
from .errors import BadValue, EmptyRegion, MomixError, NonFinite, NoValidPairs
from .features import compile_sources, load_plan
from .gradcheck import run_gradcheck
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

    p = sub.add_parser("invert", help="run DDIM inversion, extracting descriptors as it goes")
    p.add_argument("manifest", help="scene manifest JSON")
    p.add_argument("traj_dir", help="trajectory archive directory (z_T)")
    p.add_argument("desc_dir", help="descriptor archive directory")
    p.add_argument("--steps", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--power", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--floor", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--zero-noise", action="store_true", help="use the zero denoiser")
    p.add_argument("--atlas", nargs="+", default=None, help="atlas latent files")
    p.add_argument("--bandwidth", type=float, default=_STAGE_DEFAULT)

    p = sub.add_parser("recompose", help="apply an edit plan and sample a guided target video")
    p.add_argument("desc_dir", help="descriptor archive directory")
    p.add_argument("traj_dir", help="reference trajectory archive directory")
    p.add_argument("out_dir")
    p.add_argument("--plan", default=None, help="edit plan JSON (default: keep everything)")
    p.add_argument("--atlas", nargs="+", required=True, help="atlas latent files for the denoiser")
    p.add_argument("--bandwidth", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--init", choices=["auto", "shared", "fresh"], default=_STAGE_DEFAULT)
    p.add_argument("--seed", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--guidance", default=None,
                   help="guidance settings JSON: a pipeline config's guidance section")
    p.add_argument("--unguided", action="store_true", help="sample without guidance")

    p = sub.add_parser("metrics", help="score a generated video against its reference scene")
    p.add_argument("run_dir")
    p.add_argument("scene_dir")
    p.add_argument("--threshold", type=float, default=_STAGE_DEFAULT)
    p.add_argument("--out", default=None, help="report path (default run_dir/metrics.json)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the guidance gradient")
    p.add_argument("--seed", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--cases", type=int, default=_STAGE_DEFAULT)
    p.add_argument("--fault", choices=["sign-flip"], default=None, help="test hook")
    p.add_argument("--zero-weights", action="store_true", help="test hook")

    p = sub.add_parser("pipeline", help="run synth->invert->recompose->metrics")
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
    if args.zero_noise and (args.atlas or "bandwidth" in args):
        raise BadValue("--zero-noise takes no --atlas or --bandwidth: the zero denoiser "
                       "has no atlas")
    atlas = pl.load_atlas(args.atlas, manifest.latent_shape) if args.atlas else None
    # the one read of the clean latents: inversion's start, t = 0's descriptors and,
    # without --atlas, the atlas
    z0 = manifest.load_latent("0")
    if args.zero_noise:
        denoiser = ZeroDenoiser()
    else:
        atlas = z0.data[None].astype(np.float64) if atlas is None else atlas
        denoiser = pl.build_denoiser(atlas, schedule, **pl.given(vars(args), bandwidth="bandwidth"))
    rel = os.path.relpath(args.manifest, args.desc_dir)
    operator = compile_sources(manifest.latent_shape, manifest.load_masks())
    stream = pl.run_invert(z0, schedule, denoiser, args.traj_dir, operator)
    del z0, operator  # the stream holds them only as long as it needs them
    index = pl.run_extract(stream, args.desc_dir, manifest_path=rel)
    print(f"trajectory archive written to {args.traj_dir} (z_T after {index.n_steps} steps)")
    print(f"descriptors written to {index.root}: sources={index.sources}, "
          f"timesteps=0..{index.n_steps}")
    return 0


def _cmd_recompose(args) -> int:
    desc_dir = Path(args.desc_dir)
    # recorded relative to the desc dir at invert time
    manifest = load_manifest(desc_dir / pl.read_extract_index(desc_dir).manifest)
    plan = load_plan(args.plan) if args.plan else None
    options = pl.given(vars(args), init="init", seed="seed")
    if args.guidance:
        options["guidance_config"] = pl.guidance_config_from_json(read_json(args.guidance))
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
        guided=not args.unguided,
        **options,
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
    report = pl.run_metrics(args.run_dir, args.scene_dir, out_path=out_path,
                            **pl.given(vars(args), threshold="threshold"))
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

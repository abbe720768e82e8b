"""Spans around momix's public callables, recorded from outside the package.

``instrument`` wraps each listed callable at every place a momix module
binds it (``from .x import f`` makes a second binding), records one span
per call, and restores the originals on exit. Spans carry a name, start,
end, parent span and the run id, and stay in memory until written out.
``layer_metrics`` turns one traced run's spans into the per-layer figures.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from momix.guidance import stable_step_size

@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans. A span opened on a worker
    thread with nothing open there (momix extracts descriptors on a thread
    pool) takes the innermost span open on the tracer's own thread as parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
        span = Span(name, parent, time.perf_counter())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                doc = {"run": self.run_id, "id": k, "name": s.name, "parent": s.parent,
                       "start": s.start, "end": s.end}
                fh.write(json.dumps(doc) + "\n")


# --- what gets wrapped ----------------------------------------------------------


class _Digests:
    """Content digests of mask arrays, computed once per array object."""

    def __init__(self):
        self._by_id: dict[int, tuple[object, bytes]] = {}

    def of(self, arr) -> bytes:
        hit = self._by_id.get(id(arr))
        if hit is None or hit[0] is not arr:
            hit = (arr, hashlib.sha1(arr.tobytes()).digest())
            self._by_id[id(arr)] = hit  # keeps arr alive, so its id is not reused
        return hit[1]


def _bound(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _targets():
    """(module, attribute, span name, after-call hook) for every wrapped callable."""
    digests = _Digests()
    regions: set = set()

    def pair_region_info(span, args, kwargs, result):
        subject, others, i, j = (_bound(args, kwargs, k, n)
                                 for k, n in enumerate(("subject", "others", "i", "j")))
        key = ("pair", i, j, digests.of(subject.data), tuple(digests.of(o.data) for o in others))
        regions.add(key)
        span.info["area"] = int(result.sum())

    def background_region_info(span, args, kwargs, result):
        background, i, j = (_bound(args, kwargs, k, n)
                            for k, n in enumerate(("background", "i", "j")))
        regions.add(("background", i, j, digests.of(background.data)))
        span.info["area"] = int(result.sum())

    def extract_info(span, args, kwargs, result):
        span.info["channels"] = _bound(args, kwargs, 0, "latents").n_channels
        span.info["pairs"] = sum(len(d.forward_pairs()) for d in result)

    def update_info(span, args, kwargs, result):
        target, config = _bound(args, kwargs, 1, "target"), _bound(args, kwargs, 2, "config")
        losses = result[1]
        span.info["pairs"] = target.enforced_pair_count()
        span.info["step"] = config.step_size if config.step_size is not None else (
            stable_step_size(target))
        if losses[0] > 0:
            span.info["loss_ratio"] = losses[-1] / losses[0]

    def denoiser_bytes_info(span, args, kwargs, result):
        span.info["bytes"] = int(args[0].members.nbytes)

    def file_info(position):
        def hook(span, args, kwargs, result):
            span.info["bytes"] = os.path.getsize(_bound(args, kwargs, position, "path"))

        return hook

    def fd_info(span, args, kwargs, result):
        span.info["rows"] = 2 * int(_bound(args, kwargs, 0, "z").data.size)

    def gradcheck_info(span, args, kwargs, result):
        span.info["cases"] = int(result["checked"])
        span.info["max_rel_err"] = float(result["max_rel_err"])

    targets = [
        ("momix.pipeline", "run_pipeline", "pipeline.run", None),
        ("momix.pipeline", "run_synth", "pipeline.synth", None),
        ("momix.pipeline", "run_invert", "pipeline.invert", None),
        ("momix.pipeline", "run_extract", "pipeline.extract", None),
        ("momix.pipeline", "run_recompose", "pipeline.recompose", None),
        ("momix.pipeline", "run_metrics", "pipeline.metrics", None),
        ("momix.synth", "render_scene", "synth.render", None),
        ("momix.diffusion", "ddim_invert", "diffusion.invert", None),
        ("momix.diffusion", "ddim_sample", "diffusion.sample", None),
        ("momix.diffusion", "GaussianAtlasDenoiser.predict_noise", "diffusion.denoise", None),
        ("momix.diffusion", "ZeroDenoiser.predict_noise", "diffusion.denoise", None),
        ("momix.diffusion", "GaussianAtlasDenoiser.posterior_mean", "diffusion.posterior",
         denoiser_bytes_info),
        ("momix.features", "extract_descriptors", "features.extract", extract_info),
        ("momix.features", "recompose", "features.recompose", None),
        ("momix.masks", "pair_region", "masks.region", pair_region_info),
        ("momix.masks", "background_pair_region", "masks.region", background_region_info),
        ("momix.masks", "apply_edit", "masks.edit", None),
        ("momix.guidance", "TargetRegions.__init__", "guidance.compile", None),
        ("momix.guidance", "GuidanceTarget.__init__", "guidance.compile", None),
        ("momix.guidance", "GuidanceTarget.with_references", "guidance.compile", None),
        ("momix.guidance", "guided_update", "guidance.update", update_info),
        ("momix.guidance", "loss_and_gradient", "guidance.grad", None),
        ("momix.guidance", "guidance_loss", "guidance.loss", None),
        ("momix.guidance", "guidance_gradient", "gradcheck.analytic", None),
        ("momix.tensors", "write_array", "tensors.write", file_info(0)),
        ("momix.tensors", "save_mask", "tensors.write", file_info(1)),
        ("momix.tensors", "read_array", "tensors.read", file_info(0)),
        ("momix.tensors", "load_mask", "tensors.read", file_info(0)),
        ("momix.metrics", "compare_trajectories", "metrics.score", None),
        ("momix.metrics", "descriptor_distance", "metrics.score", None),
        ("momix.gradcheck", "finite_difference_gradient", "gradcheck.fd", fd_info),
        ("momix.gradcheck", "run_gradcheck", "gradcheck.run", gradcheck_info),
    ]
    return targets, regions


def _wrap(tracer: Tracer, original, span_name: str, hook):
    def wrapper(*args, **kwargs):
        index = tracer.begin(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer.spans[index], args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target at all of its momix bindings; yields the set of distinct regions.

    A callable that a later version of momix no longer has is skipped, and
    its metrics read 0.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "momix" or name.startswith("momix.")]
    targets, regions = _targets()
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr, span_name, hook in targets:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(tracer, original, span_name, hook))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, original, span_name, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield regions
    finally:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)


# --- per-layer metrics ------------------------------------------------------------


class _Spans:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for k, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(k)

    def named(self, name: str) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s.name == name]

    def _has_ancestor(self, k: int, name: str) -> bool:
        p = self.spans[k].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def total(self, name: str) -> float:
        """Time in spans of this name, counting a span nested in a namesake once."""
        return sum(self.spans[k].duration for k in self.named(name)
                   if not self._has_ancestor(k, name))

    def self_time(self, name: str, minus: tuple[str, ...]) -> float:
        """Time in spans of this name minus the part their named children cover."""
        out = 0.0
        for k in self.named(name):
            intervals = sorted(
                (self.spans[c].start, self.spans[c].end)
                for c in self.children.get(k, ())
                if self.spans[c].name in minus
            )
            covered, reach = 0.0, float("-inf")
            for a, b in intervals:
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out += self.spans[k].duration - covered
        return out

    def info_sum(self, name: str, key: str) -> float:
        return sum(self.spans[k].info.get(key, 0) for k in self.named(name))

    def info_values(self, name: str, key: str) -> list[float]:
        return [self.spans[k].info[key] for k in self.named(name) if key in self.spans[k].info]

    def area_under(self, k: int) -> int:
        total = 0
        for c in self.children.get(k, ()):
            total += self.spans[c].info.get("area", 0) + self.area_under(c)
        return total


def layer_metrics(spans: list[Span], regions: set, traced_run_s: float) -> dict[str, float]:
    sp = _Spans(spans)
    m: dict[str, float] = {}
    stages = ("synth", "invert", "extract", "recompose", "metrics")
    for stage in stages:
        m[f"pipeline.{stage}_s"] = sp.total(f"pipeline.{stage}")
    staged = sum(m[f"pipeline.{s}_s"] for s in stages)
    pipeline_s = sp.total("pipeline.run")
    m["pipeline.other_s"] = pipeline_s - staged if pipeline_s else 0.0
    m["pipeline.coverage"] = staged / traced_run_s if pipeline_s else 0.0

    m["guidance.grad_s"] = sp.total("guidance.grad")
    m["guidance.grad_calls"] = len(sp.named("guidance.grad"))
    m["guidance.loss_s"] = sp.total("guidance.loss")
    m["guidance.update_s"] = sp.total("guidance.update")
    m["guidance.update_calls"] = len(sp.named("guidance.update"))
    m["guidance.update_self_s"] = sp.self_time("guidance.update", ("guidance.grad", "guidance.loss"))
    m["guidance.compile_s"] = sp.total("guidance.compile")
    m["guidance.enforced_pairs"] = sp.info_sum("guidance.update", "pairs")
    steps = sp.info_values("guidance.update", "step")
    m["guidance.step_size"] = statistics.median(steps) if steps else 0.0
    ratios = sp.info_values("guidance.update", "loss_ratio")
    m["guidance.loss_ratio"] = statistics.median(ratios) if ratios else 1.0

    m["features.extract_s"] = sp.total("features.extract")
    m["features.extract_calls"] = len(sp.named("features.extract"))
    m["features.pairs"] = sp.info_sum("features.extract", "pairs")
    m["features.cells_pooled"] = sum(
        2 * sp.spans[k].info.get("channels", 0) * sp.area_under(k)
        for k in sp.named("features.extract")
    )
    m["features.recompose_s"] = sp.total("features.recompose")

    calls = len(sp.named("masks.region"))
    m["masks.region_s"] = sp.total("masks.region")
    m["masks.region_calls"] = calls
    m["masks.region_distinct"] = len(regions)
    m["masks.region_useful_ratio"] = len(regions) / calls if calls else 0.0
    m["masks.edit_s"] = sp.total("masks.edit")

    m["diffusion.denoise_s"] = sp.total("diffusion.denoise")
    m["diffusion.denoise_calls"] = len(sp.named("diffusion.denoise"))
    m["diffusion.denoise_bytes"] = sp.info_sum("diffusion.posterior", "bytes")
    m["diffusion.invert_s"] = sp.total("diffusion.invert")
    m["diffusion.sample_s"] = sp.total("diffusion.sample")
    m["diffusion.sample_self_s"] = sp.self_time(
        "diffusion.sample", ("guidance.update", "diffusion.denoise"))

    m["tensors.write_s"] = sp.total("tensors.write")
    m["tensors.read_s"] = sp.total("tensors.read")
    m["tensors.files_written"] = len(sp.named("tensors.write"))
    m["tensors.bytes_written"] = sp.info_sum("tensors.write", "bytes")
    m["tensors.bytes_read"] = sp.info_sum("tensors.read", "bytes")

    m["synth.render_s"] = sp.total("synth.render")
    m["synth.render_calls"] = len(sp.named("synth.render"))
    m["metrics.score_s"] = sp.total("metrics.score")

    m["gradcheck.fd_s"] = sp.total("gradcheck.fd")
    m["gradcheck.analytic_s"] = sp.total("gradcheck.analytic")
    m["gradcheck.loss_rows"] = sp.info_sum("gradcheck.fd", "rows")
    m["gradcheck.cases"] = sp.info_sum("gradcheck.run", "cases")
    errs = sp.info_values("gradcheck.run", "max_rel_err")
    m["gradcheck.max_rel_err"] = max(errs) if errs else 0.0
    return m

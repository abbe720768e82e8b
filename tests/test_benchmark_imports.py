"""The benchmark in perfbench/ drives momix by name; these tests keep those names alive.

A callable the tracer cannot find is skipped and its per-layer metric reads
0, so a rename would otherwise go unnoticed until the next benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from momix import gradcheck, pipeline
from momix.features import MotionDescriptor
from momix.guidance import GuidanceTarget

from test_cli import _pipeline_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_resolves():
    targets, _ = _load("tracing")._targets()
    missing, gone = [], []
    for mod_name, attr, _, _ in targets:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None:
                gone.append(f"{mod_name}.{attr}")
            elif meth not in vars(cls):
                missing.append(f"{mod_name}.{attr}")
        elif not callable(getattr(owner, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    # The tracer still wraps the target-side compile under the name of a class
    # guidance no longer defines (guidance compiles a plain PairOperator); that
    # one entry is a known benchmark follow-up. Any other is a rename.
    assert len(gone) <= 1, gone


def test_workload_checks_run_on_a_traced_pipeline(tmp_path):
    workloads = _load("workloads")
    tracing = _load("tracing")
    for name in ("forward_pairs", "delta"):
        assert name in vars(MotionDescriptor)
    assert "enforced_pair_count" in vars(GuidanceTarget)

    config = dict(_pipeline_config(tmp_path), guidance={"n_inner_steps": 2, "t_end": 1})
    tracer = tracing.Tracer("guard")
    with tracing.instrument(tracer) as regions:
        report = pipeline.run_pipeline(config, tmp_path / "out")
        gradcheck.run_gradcheck(0, n_cases=2)
    m = tracing.layer_metrics(tracer.spans, regions, traced_run_s=1.0)
    assert m["guidance.update_calls"] > 0
    # the tracer reads the denoiser's ``members`` for its byte count
    assert m["diffusion.denoise_calls"] > 0
    assert m["diffusion.denoise_bytes"] > 0
    assert m["guidance.enforced_pairs"] > 0
    assert m["guidance.step_size"] > 0
    assert m["features.pairs"] > 0
    assert m["tensors.files_written"] > 0
    assert m["gradcheck.cases"] == 2
    # the t=0 descriptor check the analyze workload runs
    outcome = workloads.check_analyze({}, tmp_path / "out", report)
    assert outcome.errors == []

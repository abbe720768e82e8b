"""The benchmark workloads' outputs at seed 1, byte for byte.

Byte-identical output is the engine's main promise. Acceptance c12 compares
two runs of one tree; this test pins the bytes themselves, so a change that
moves one stored byte fails here. The inputs are the benchmark's own, built
by ``perfbench/workloads.py``, and each digest is the one its benchmark check
computes: the output tree's for the three pipeline workloads, the results'
for gradcheck.

The bytes are promised per environment: under another numpy build or on
another machine einsum may sum in another order. A run in another
environment than the one recorded fails, naming both. A change that moves
bytes by design, or a new environment, regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and a change that does so names each digest that moved, and why, in CHANGES.md.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from test_benchmark_imports import _load

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 1
WORKLOADS = ("readme-keep", "large-edit", "analyze-atlas", "gradcheck")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def digest(name: str, out_dir: Path) -> str:
    workload = _load("workloads").WORKLOADS[name]
    inputs = workload.make_inputs(SEED)
    return workload.check(inputs, out_dir, workload.run(inputs, out_dir)).digest


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_matches_its_golden_digest(tmp_path, name):
    golden = json.loads(GOLDEN.read_text())
    if golden["environment"] != environment():
        pytest.fail(f"the golden digests were made on {golden['environment']}, and this is "
                    f"{environment()}; the bytes are promised per environment, so regenerate "
                    f"the file here from a known-good tree: "
                    f"PYTHONPATH=src python tests/test_golden.py")
    assert digest(name, tmp_path) == golden["digests"][name], (
        f"{name} at seed {SEED} no longer writes the bytes it wrote")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {name: digest(name, Path(work) / name) for name in WORKLOADS}
    doc = {"seed": SEED, "environment": environment(), "digests": digests}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sys.exit(0)

"""Each momix module imports on its own, and the package root imports none of them."""

import subprocess
import sys
from pathlib import Path

import momix

SRC = Path(momix.__file__).resolve().parents[1]

# drops every cached momix module, then imports the named one alone; the
# package root first, which must load no submodule
_PROBE = """
import importlib, sys

def fresh():
    for name in [n for n in sys.modules if n.startswith("momix")]:
        del sys.modules[name]

fresh()
import momix
loaded = sorted(n for n in sys.modules if n.startswith("momix."))
assert not loaded, f"import momix loaded {loaded}"
for name in sys.argv[1:]:
    fresh()
    importlib.import_module(f"momix.{name}")
"""


def test_each_module_imports_on_its_own():
    # without a package facade the import order is not fixed, so a cycle
    # between two modules would show only from some entry points
    modules = sorted(p.stem for p in (SRC / "momix").glob("*.py") if p.stem != "__init__")
    assert "pipeline" in modules
    done = subprocess.run([sys.executable, "-c", _PROBE, *modules], cwd=SRC,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

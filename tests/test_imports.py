"""Import-isolation tests: every subpackage imports cleanly on its own.

Circular imports can hide behind favourable import orders in a shared test
process; these tests import each public module in a *fresh* interpreter so
any cycle fails loudly regardless of ordering.
"""

import subprocess
import sys

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.topology",
    "repro.cluster",
    "repro.simulation",
    "repro.validation",
    "repro.validation.report",
    "repro.workloads",
    "repro.analysis",
    "repro.scenarios",
    "repro.experiments",
    "repro.io",
    "repro.io.reporting",
    "repro.cli",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_isolation(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"importing {module} failed:\n{proc.stderr}"


def test_cli_entrypoint_runs_in_isolation():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "describe", "--system", "544"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "N=544" in proc.stdout


#: Runs in a fresh interpreter with scipy made unimportable, as in a
#: numpy-only install (scipy is only the ``validation`` extra).
NUMPY_ONLY_SCRIPT = """
import sys
from importlib.abc import MetaPathFinder


class BlockScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import repro

repro.Experiment("544").saturation()
from repro.simulation.replication import replicate

try:
    replicate(None, 1e-4)
except ImportError as exc:
    assert "'validation' extra" in str(exc), exc
else:
    raise AssertionError("replicate() ran without scipy")
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_numpy_only_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

"""The public surface: every ``__all__`` entry resolves, every name the
package re-exports is public in the module that defines it, importing the
package or its CLI leaves the heavy scipy subpackages unloaded, and importing
the package leaves the closed polygamma sums unloaded."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pdvol

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdvol.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"pdvol.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"pdvol.{name}.__all__ names undefined {missing}"


def _reexports():
    tree = ast.parse(Path(pdvol.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [alias.name for alias in node.names]


def test_package_reexports_are_public():
    for module, names in _reexports():
        if module == "errors":  # exceptions only; the module has no __all__
            continue
        mod = importlib.import_module(f"pdvol.{module}")
        stale = [n for n in names if n not in mod.__all__]
        assert not stale, f"pdvol re-exports {stale} outside pdvol.{module}.__all__"
        assert all(getattr(pdvol, n) is getattr(mod, n) for n in names)


# loaded on first use only: the KS tests need scipy.stats, which brings
# scipy.optimize, and the triangulation scipy.spatial; no path starts a
# process pool, and the package's one helper thread starts at its first large
# call: a sampler batch of several blocks, a CGF call of 512 points or more,
# or a Gil-Pelaez exponential table of 8192 entries or more
DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.spatial", "concurrent.futures.process",
            "concurrent.futures.thread")
# the paper's closed polygamma sums are claims under test, on no production
# path; the CLI loads them through the claim report
CLAIMS_ONLY = {"pdvol": ("pdvol.polygamma_sums",), "pdvol.cli": ()}


def _loaded_after(code, watched):
    """Run code in a fresh interpreter and return the watched modules it left loaded."""
    src = str(Path(pdvol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += f"\nimport sys; print(*(m for m in {watched!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("module", ["pdvol", "pdvol.cli"])
def test_import_defers_heavy_modules(module):
    loaded = _loaded_after(f"import {module}", DEFERRED + CLAIMS_ONLY[module])
    assert loaded == [], f"import {module} loaded {loaded}"


def test_triangulation_loads_neither_optimize_nor_a_pool():
    # the torus margin has a closed form and the replicates run in one process
    code = (
        "import os; from pdvol.cli import main\n"
        "assert main(['delaunay2d', '--side', '30', '--mode', 'toroidal', '--replicates', '2', '-o', os.devnull]) == 0"
    )
    watched = ("scipy.optimize", "concurrent.futures.process", "scipy.spatial")
    assert _loaded_after(code, watched) == ["scipy.spatial"]

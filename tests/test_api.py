"""The public surface: every ``__all__`` entry resolves, and every name the
package re-exports is public in the module that defines it."""

import ast
import importlib
import pkgutil
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

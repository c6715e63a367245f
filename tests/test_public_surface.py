"""The public surface resolves: every name in the ``__all__`` of
``rbtlse`` and of each of its submodules, and every ``rbtlse.<name>`` the
benchmark workloads reach, so a refactor that drops or renames one fails
here instead of in a benchmark run."""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import rbtlse
import rbtlse.cli

MODULES = ["rbtlse"] + sorted(
    f"rbtlse.{m.name}" for m in pkgutil.iter_modules(rbtlse.__path__))

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _rbtlse_path(node):
    """'a.b' for an attribute chain rbtlse.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "rbtlse":
        return ".".join(reversed(parts))
    return None


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_names_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    used = {path for node in ast.walk(tree)
            if (path := _rbtlse_path(node))}
    assert used
    missing = []
    for path in sorted(used):
        try:
            functools.reduce(getattr, path.split("."), rbtlse)
        except AttributeError:
            missing.append(path)
    assert missing == []

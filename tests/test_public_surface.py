"""The public surface resolves: every name in ``rbtlse.__all__``, and every
``rbtlse.<name>`` the benchmark workloads reach, so a refactor that drops
or renames one fails here instead of in a benchmark run."""

import ast
import functools
from pathlib import Path

import rbtlse
import rbtlse.cli

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


def test_all_names_resolve():
    missing = [name for name in rbtlse.__all__ if not hasattr(rbtlse, name)]
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

"""The package's import graph: every module imports alone, and sibling
modules are imported at module level, so imports run one way
(highdim <- chain <- lyapunov <- analysis/cli, ising <- highdim)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "lyapexp"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_alone(name):
    """A cycle that only works in one import order fails here."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import lyapexp.{name}"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr


def _siblings(node):
    """The lyapexp modules an import statement names."""
    if isinstance(node, ast.Import):
        mods = [a.name for a in node.names]
    elif node.module and (node.level or node.module != "lyapexp"):
        mods = [("lyapexp." if node.level else "") + node.module]
    else:
        mods = [f"lyapexp.{a.name}" for a in node.names]
    return [m.split(".")[1] for m in mods if m.startswith("lyapexp.")]


def test_functions_import_no_sibling_but_kernels():
    """The only imports of a sibling inside a function are those of
    ``kernels``, deferred so that start-up does not load it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [(path.stem, fn.name, name)
                              for name in _siblings(node)]
    assert found, "no function-level import was seen at all"
    assert [f for f in found if f[2] != "kernels"] == []

"""Every module-level import in the package, its tests and the bench is used,
and importing the package, or drawing a record's noise, leaves ``numpy.random``
unloaded.

No linter is installed, so this scan stands in for one.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmapuf

# the package's __init__.py is exempt: its imports are the package's re-exports
PACKAGE = sorted(p for p in Path(cmapuf.__file__).parent.glob("*.py") if p.name != "__init__.py")
BENCH = Path(__file__).parent.parent / "bench"
MODULES = (
    PACKAGE
    + sorted(Path(__file__).parent.glob("*.py"))
    + sorted(BENCH.glob("*.py"))
    + sorted(BENCH.glob("tests/*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports at top level but never mentions again."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_names_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom . import a, b as c\n"
    assert unused_imports(source + "os.path.join(a)\n") == ["json (line 2)", "c (line 4)"]


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random costs about 6 MB and some startup; only the callers that draw
    # from numpy's generators load it, and a record's noise is closed form in its seed
    code = (
        "import sys, numpy as np, cmapuf, cmapuf.cli; print('numpy.random' in sys.modules); "
        "cmapuf.crp._record_noise(np.arange(4, dtype=np.uint64), 0.01); "
        "print('numpy.random' in sys.modules)"
    )
    src = str(Path(cmapuf.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "False\nFalse\n", out.stderr


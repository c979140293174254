"""Every module-level import in the package, its tests and the bench is used,
importing the package, or drawing a record's noise, leaves ``numpy.random``
unloaded, the model layers do no file I/O, no module reads another's
private names, and only the response word's field rule bounds a range
check by the word's field widths.

No linter is installed, so this scan stands in for one.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cmapuf

# __init__.py included: a name is imported from the module that defines it, not re-exported
PACKAGE = sorted(Path(cmapuf.__file__).parent.glob("*.py"))
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


def read_names(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assignments named with one leading ``_`` that no
    code of ``sources`` reads outside the name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum(map(read_names, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            own = read_names(node)
            unused += [
                f"{module}.{name} (line {node.lineno})" for name in names
                if name[:1] == "_" and name[:2] != "__" and reads[name] == own[name]
            ]
    return unused


def test_every_private_module_level_name_is_used():
    # a private helper whose last caller went is dead code that no import check sees
    package = Path(cmapuf.__file__).parent.glob("*.py")
    assert unused_private_names({path.stem: path.read_text() for path in package}) == []


def test_the_scan_names_an_unused_private_name():
    sources = {
        "a": "_space = 1\n_used = 2\nclass _Gone: pass\ndef _self(n): return _self(n - 1)\n",
        "b": "from .a import _used\nimport a\na._used, _used\n_dead: int = 0\n__all__ = []\n",
    }
    assert unused_private_names(sources) == [
        "a._space (line 1)", "a._Gone (line 3)", "a._self (line 4)", "b._dead (line 4)"
    ]


def private_reads(sources: dict[str, str]) -> list[str]:
    """``reader -> m._x`` for each name with one leading ``_`` that a module of ``sources``
    reads from another, by ``from .m import _x`` or as ``m._x`` after ``from . import m``."""
    private = lambda name: name[:1] == "_" and name[:2] != "__"
    found = []
    for reader, source in sources.items():
        tree = ast.parse(source)
        modules = {}  # local name -> module, for ``from . import m as local``
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = (node.module or "").removeprefix("cmapuf").lstrip(".")
            for alias in node.names:
                if not origin and alias.name in sources:
                    modules[alias.asname or alias.name] = alias.name
                elif origin in sources and private(alias.name):
                    found.append(f"{reader} -> {origin}.{alias.name}")
        found += [f"{reader} -> {modules[n.value.id]}.{n.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in modules and private(n.attr)]
    return found


def test_no_module_reads_another_modules_private_names():
    # a private name read from another module is either misnamed or reached into
    package = Path(cmapuf.__file__).parent.glob("*.py")
    assert private_reads({path.stem: path.read_text() for path in package}) == []


def test_the_scan_names_a_read_of_another_modules_private_name():
    sources = {
        "a": "_x = 1\n_y = 2\n__all__ = []\ndef _own(): return _x\n",
        "b": "from . import a, a as q\nfrom .a import _y, __all__\nfrom numpy import _z\n"
             "a._x, q._own, a.__all__, _z._w, a._x\n",
        "c": "from cmapuf.a import _x\nfrom cmapuf import a\na._y\n",
    }
    assert private_reads(sources) == [
        "b -> a._y", "b -> a._x", "b -> a._own", "b -> a._x", "c -> a._x", "c -> a._y"
    ]


# The response word's field widths: one rule, ``word.check_word_field``, checks a value
# against them.
WORD_BOUNDS = {"MAX_REGIONS", "CODE_FIELD_BITS"}


def word_bound_checks(sources: dict[str, str]) -> list[str]:
    """``module.function`` (``module`` for module-level code) for each top-level function,
    method or module body that both calls ``check_range`` and reads a name of ``WORD_BOUNDS``:
    a place that could restate the word's field rule."""
    named = lambda node, names: (isinstance(node, ast.Name) and node.id in names
                                 or isinstance(node, ast.Attribute) and node.attr in names)
    found = []
    for module, source in sources.items():
        scopes, body = [], []
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((f"{module}.{node.name}", [node]))
            elif isinstance(node, ast.ClassDef):
                scopes += [(f"{module}.{node.name}.{n.name}", [n]) for n in node.body
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                body.append(node)
        for scope, nodes in scopes + [(module, body)]:
            walked = [n for node in nodes for n in ast.walk(node)]
            checks = any(isinstance(n, ast.Call) and named(n.func, {"check_range"}) for n in walked)
            if checks and any(named(n, WORD_BOUNDS) for n in walked):
                found.append(scope)
    return found


def test_only_the_word_rule_bounds_a_check_by_the_words_fields():
    # a second check against MAX_REGIONS or CODE_FIELD_BITS would be a second statement of
    # what the word holds, free to drift from the first
    sources = {path.stem: path.read_text() for path in MODULES}
    assert word_bound_checks(sources) == ["word.check_word_field"]


def test_the_scan_names_each_place_that_bounds_a_check_by_a_word_field():
    sources = {
        "a": "from .q import MAX_REGIONS\ndef f(k): check_range('k', k, 1, MAX_REGIONS)\n"
             "def g(k): return k << q.CODE_FIELD_BITS\n",
        "b": "class S:\n    def check(self):\n        hi = q.CODE_FIELD_BITS\n"
             "        codec.check_range('bits', self.bits, 1, hi)\n",
        "c": "codec.check_range('k', 3, 1, MAX_REGIONS)\ndef h(): check_range('x', 1)\n",
    }
    assert word_bound_checks(sources) == ["a.f", "b.S.check", "c"]


# the modules that model the chip and attack it; files are the codec's, crp's and cli's
MODEL_LAYERS = ("variation", "analog", "cellarray", "word", "quantizer", "adc", "attack")
FILE_MODULES = {"csv", "io", "json", "os", "pathlib", "shutil"}


def file_access(source: str) -> list[str]:
    """What a module takes for file I/O: a name from ``codec`` other than ``check_range``,
    ``codec`` itself, a file module, or a call of ``open``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("codec", "cmapuf.codec"):
            found += [f"codec.{a.name}" for a in node.names if a.name != "check_range"]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "cmapuf"):
            found += [a.name for a in node.names if a.name == "codec"]
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] in FILE_MODULES:
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] in FILE_MODULES]
            found += [a.name for a in node.names if a.name == "cmapuf.codec"]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            found.append("open")
    return found


@pytest.mark.parametrize("name", MODEL_LAYERS)
def test_the_model_layers_do_no_file_io(name):
    # a spec or chip file is read and written with codec.read_json/write_json,
    # not through a wrapper in the layer that defines the type
    path = Path(cmapuf.__file__).parent / f"{name}.py"
    assert file_access(path.read_text()) == []


def test_the_layering_scan_names_each_way_into_a_file():
    source = (
        "from .codec import check_range, read_json\nfrom . import codec\nimport cmapuf.codec\n"
        "import json\nfrom pathlib import Path\nopen('x').read()\n"
    )
    assert file_access(source) == [
        "codec.read_json", "codec", "cmapuf.codec", "json", "pathlib", "open"
    ]


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


"""Every function of the package runs under a command, or names what pins it.

The benchmark's three workload chains run at their tiny size, then ``energy``, ``curve``
and ``synth``, then one bad input per dataset loader, all in this process under
``sys.setprofile``.  A process they fork keeps the hook and reports what it enters
through a file.  Each ``def`` under ``src/`` that none of them enters must be listed in
``REACH_EXEMPT`` with the claim or check that keeps it; code that only tests reach is
otherwise dead.  No coverage package is installed, so this scan stands in for one.
"""

import ast
import os
import sys
from pathlib import Path

import cmapuf
from cmapuf.cli import build_parser, main

PACKAGE = Path(cmapuf.__file__).parent
BENCH = Path(__file__).parent.parent / "bench"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def defs(sources: dict[str, str]) -> list[tuple[str, tuple[str, int, str]]]:
    """``(module.qualname, (module, first line, name))`` for every ``def`` of ``sources``,
    methods and nested defs included.  The first line is a code object's: a decorated
    def's starts at its first decorator."""
    found = []

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, (module, line, child.name)))
                walk(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(module, child, f"{prefix}{child.name}.")
            else:
                walk(module, child, prefix)

    for module, source in sources.items():
        walk(module, ast.parse(source), f"{module}.")
    return found


def reach_faults(sources: dict[str, str], reached: set[tuple[str, int, str]],
                 exempt: dict[str, str]) -> list[str]:
    """What breaks the rule: a def of ``sources`` whose ``(module, first line, name)`` is
    not in ``reached`` and that ``exempt`` leaves out, an exempt def that is reached, and an
    exempt name that no def holds."""
    found = defs(sources)
    faults = [f"{name} is reached by no command" for name, key in found
              if key not in reached and name not in exempt]
    faults += [f"{name} is exempt, but a command reaches it" for name, key in found
               if key in reached and name in exempt]
    names = {name for name, _ in found}
    return faults + [f"{name} is exempt, but no def holds it" for name in exempt
                     if name not in names]


# The defs no command reaches, each with what keeps it.
TRACED = "bench/tracer.py's TRACED wraps it by name; it goes when the bench traces the kernels"
LLOYD_MAX = "test_acceptance.py::test_criterion_3_lloyd_max's convergence; bench's iteration count"
ROUND_TRIP = "test_acceptance.py::test_criterion_6_adc's exhaustive response-word round trip"
REACH_EXEMPT = {
    "adc.convert": TRACED,
    "cellarray.evaluate": TRACED,
    "crp.record_seed": TRACED,
    "quantizer.region_of": TRACED,
    "quantizer.quantization_mse": LLOYD_MAX,
    "quantizer.lloyd_max_mse_trace": LLOYD_MAX,
    "word.encode_word": ROUND_TRIP,
    "word.decode_word": ROUND_TRIP,
    "word.ResponseWord.__post_init__": ROUND_TRIP,
}


def run_commands(tmp_path, monkeypatch, capsys) -> None:
    """The commands whose reach counts, each checked to do what it should."""
    build_parser.cache_clear()  # as in a fresh process, the first command builds the parser
    for workload in workloads.WORKLOADS.values():
        (tmp_path / workload.name).mkdir()
        monkeypatch.chdir(tmp_path / workload.name)
        for name, argv in workloads.steps(workload.name, 5, "tiny"):
            assert main(argv) == 0, f"{workload.name} {name}: {capsys.readouterr().err}"
    monkeypatch.chdir(tmp_path)
    for argv in (["energy", "--out", "energy.csv"], ["curve", "--out", "curve.csv"],
                 ["synth", "--chips", "2", "--out", "chips"]):
        assert main(argv) == 0, capsys.readouterr().err
    # one bad record per loader: its error path is a def of its own
    csv_lines = (tmp_path / "design-clean" / "crps.csv").read_text().splitlines(keepends=True)
    chip, _, rest = csv_lines[1].split(",", 2)
    jsonl_lines = (tmp_path / "enroll-noisy" / "crps.jsonl").read_text().splitlines(keepends=True)
    bad = {
        "bad.csv": (csv_lines[:1] + [f"{chip},zz,{rest}"],
                    "row 1 has a bad 'challenge' field: 'zz'"),
        "bad.jsonl": ([jsonl_lines[0][:-2] + ', "bits": 8}\n'], "row 1 repeats the 'bits' key"),
    }
    capsys.readouterr()
    for name, (lines, message) in bad.items():
        Path(name).write_text("".join(lines))
        assert main(["metrics", "--in", name, "--out", "metrics.json"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_every_function_is_reached_by_a_command_or_names_its_pin(tmp_path, monkeypatch, capsys):
    entered = set()
    pid = os.getpid()
    forks = tmp_path / "forks"
    forks.mkdir()

    def profile(frame, event, arg):
        # a forked process keeps this hook but not this set: it appends each code it
        # enters to a file of its own, which outlives it
        if event == "call" and frame.f_code not in entered:
            entered.add(frame.f_code)
            if os.getpid() != pid:
                code = frame.f_code
                with open(forks / f"{os.getpid()}.tsv", "a") as out:
                    out.write(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_commands(tmp_path, monkeypatch, capsys)
    finally:
        sys.setprofile(previous)
    codes = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}
    for path in forks.iterdir():
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            codes.add((filename, int(first), name))
    package = PACKAGE.resolve()
    reached = {(path.stem, first, name) for filename, first, name in codes
               for path in [Path(filename).resolve()] if path.parent == package}
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert reach_faults(sources, reached, REACH_EXEMPT) == []


def test_the_scan_names_an_unreached_def_and_each_stale_exemption():
    sources = {
        "a": "def f():\n    def g(): pass\n    return g\n\n"
             "class C:\n    @property\n    def p(self): pass\n    def q(self): pass\n",
        "b": "async def h(): pass\ndef kept(): pass\n",
    }
    reached = {("a", 1, "f"), ("a", 6, "p"), ("b", 2, "kept")}
    exempt = {"a.C.p": "pins a claim", "b.kept": "pins a claim", "b.gone": "pins a claim"}
    assert reach_faults(sources, reached, exempt) == [
        "a.f.<locals>.g is reached by no command",
        "a.C.q is reached by no command",
        "b.h is reached by no command",
        "a.C.p is exempt, but a command reaches it",
        "b.kept is exempt, but a command reaches it",
        "b.gone is exempt, but no def holds it",
    ]

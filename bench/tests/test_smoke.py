"""Smoke test of the benchmark itself at tiny sizes; it asserts no timing.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declares_the_three_workloads():
    assert WORKLOADS == ["design-clean", "enroll-noisy", "attack"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    code, out = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
        "--size", "tiny",
    )
    assert code == 0, out
    doc = last_json(out)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["failed"] == 0 and doc["correct"], out
    assert doc["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())
    if trace:
        dump = json.loads((ROOT / ".bench_run" / workload / "trace.json").read_text())
        assert set(dump) == {"names", "name", "start", "end", "parent"}
        assert "cli.crps" in dump["names"]


def test_steady_mode_runs_all_workloads_without_failures():
    code, out = run_bench("--steady", "1", "--seconds", "0", "--size", "tiny")
    assert code == 0, out
    summary = last_json(out)
    assert list(summary) == WORKLOADS
    for w in summary.values():
        assert w["fail_rate"] == 0
        assert {"median", "q1", "q3", "spread"} <= set(w["metrics"]["wall_s"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench("--workload", "attack", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert out == ""


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    names = ["root", "a", "b", "c"]
    got = tracer.self_times(
        names, name=[0, 1, 2, 3], start=[0, 1, 5, 2], end=[10, 4, 9, 3], parent=[-1, 0, 0, 1]
    )
    assert {n: got[n]["self_s"] for n in names} == {"root": 3, "a": 2, "b": 4, "c": 1}
    assert got["root"]["busy_s"] == 10 and got["c"]["calls"] == 1


def test_install_reports_what_it_cannot_trace(monkeypatch):
    for mod_name in {m for m, _ in tracer.TRACED}:
        monkeypatch.delitem(sys.modules, f"cmapuf.{mod_name}", raising=False)
    attack = ModuleType("cmapuf.attack")
    attack.es_fit = lambda: SimpleNamespace(history=None)  # history of the wrong type
    monkeypatch.setitem(sys.modules, "cmapuf.attack", attack)
    t = tracer.Tracer()
    missing = tracer.install(t)
    assert "attack.es_fit" not in missing
    assert set(missing) == {f"{m}.{f}" for m, f in tracer.TRACED} - {"attack.es_fit"}
    attack.es_fit()
    assert t.names == ["attack.es_fit"] and list(t.observe_errors) == ["attack.es_fit"]

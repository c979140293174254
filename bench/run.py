"""cmapuf benchmark: time the CLI step chains end to end and per layer.

    python3 bench/run.py --workload design-clean --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --steady 5              # every workload, seeds 1..5

A run repeats its workload's chain (see ``workloads.py``) for
``--seconds`` seconds, one client and one chain at a time (a closed
loop).  Each repetition is a fresh child process (``child.py``) that
calls ``cmapuf.cli.main`` per step with BLAS threads capped at the number
of usable cores.  After each repetition every output is checked
(``checks.py``); a step fails on a non-zero exit, an exception or a
failed check.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  The host shares its cores with other tenants and runs this
process in fast and slow spells that last seconds to minutes, long
enough to slow whole runs by a third.  So the time metrics are host
seconds at a reference host speed: each child times a fixed Python loop
after set-up and after every step (``child.calibrate``), and each step's
seconds are scaled by ``CALIBRATION_REF_S`` over the mean of the loop
times on either side of it; ``setup_s`` (spawn to first step) is scaled
by the loop time right after it.  A change to the program moves these
figures as it moves host time; a change of host speed does not.  The
per-layer metrics ``host.calibration_ms`` and ``host.raw_wall_s`` keep
the unscaled figures.  ``--trace 1`` makes the same untraced
repetitions, then one traced repetition, and reports the per-layer
metrics: span self times and counts, per-step CLI time, and the tracing
overhead.  A traced function the package no longer defines, or a
tracer observation that raises, fails the run, so that a layer cannot
silently read zero.  The traced run leaves its spans in
``.bench_run/<workload>/trace.json``.

``--steady N`` runs each workload with seeds 1..N and prints every
metric's median, quartiles and spread against the bound in
``BENCHMARK.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count steps.  The ``sim.*`` metrics are simulated quantities of
the modelled converter, not host time, and are not validated against
silicon.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 150
# The calibration loop's time at the reference host speed: a round figure
# near the loop's fastest time seen on the 2-vCPU x86_64 VM the benchmark
# was defined on.
CALIBRATION_REF_S = 0.025


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def run_child(workload: str, seed: int, size: str, trace: bool) -> dict | None:
    """One fresh process running the chain; its result, or None if it died."""
    RUN_ROOT.mkdir(exist_ok=True)
    result = RUN_ROOT / f"{workload}.result.json"
    result.unlink(missing_ok=True)
    job = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "src": str(SRC),
        "run_dir": str(RUN_ROOT / workload),
        "result": str(result),
        "t_spawn": time.monotonic(),
    }
    with open(RUN_ROOT / f"{workload}.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=child_env(),
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


def sim_metrics(cols: dict[str, np.ndarray]) -> dict[str, float]:
    """Simulated conversion cost per read from the dataset's bits column."""
    from cmapuf import adc

    bits, counts = np.unique(cols["bits"], return_counts=True)
    config = adc.AdcConfig()
    n = counts.sum()
    cycles = sum(int(c) * adc.conversion_cycles(int(b)) for b, c in zip(bits, counts))
    energy = sum(int(c) * adc.conversion_energy(config, int(b)) for b, c in zip(bits, counts))
    return {"sim.cycles_per_read": cycles / n, "sim.energy_per_read_pj": energy / n * 1e12}


def occupancy(cols: dict[str, np.ndarray]) -> dict[str, float]:
    region, counts = np.unique(cols["region"], return_counts=True)
    return {str(int(r)): float(c) / len(cols["region"]) for r, c in zip(region, counts)}


class Run:
    """Repetitions of one workload and the failures found in them."""

    def __init__(self, workload: str, seed: int, size: str, golden: dict | None) -> None:
        self.workload, self.seed, self.size, self.golden = workload, seed, size, golden
        self.steps = [name for name, _ in workloads.steps(workload, seed, size)]
        self.reps: list[dict] = []
        self.traced: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.sim: dict[str, float] | None = None
        self.occupancy: dict[str, float] = {}

    def repeat(self, trace: bool) -> dict | None:
        result = run_child(self.workload, self.seed, self.size, trace)
        self.attempted += len(self.steps)
        if result is None:
            log = (RUN_ROOT / f"{self.workload}.log").read_text()[-2000:]
            self.failures += [f"{s}: child process failed\n{log}" for s in self.steps]
            return None
        failed = {s["step"]: [s["error"]] for s in result["steps"] if s["error"]}
        try:
            fails, cols = checks.check_run(
                RUN_ROOT / self.workload, self.workload, self.size, self.golden
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed outputs
            fails, cols = [(s, f"outputs unreadable: {exc!r}") for s in self.steps], None
        for step, msg in fails:
            failed.setdefault(step, []).append(msg)
        if cols is not None:
            sim = sim_metrics(cols)
            if self.sim is None:
                self.sim, self.occupancy = sim, occupancy(cols)
            elif sim != self.sim:
                failed.setdefault("crps", []).append("sim.* metrics differ between repetitions")
        layers = result.get("layers", {})
        if layers.get("response_bits_ref_mismatches"):
            failed.setdefault("crps", []).append("adc.response_bits disagrees with adc.convert")
        if layers.get("untraced"):
            failed.setdefault("trace", []).append(
                f"traced functions not found: {', '.join(layers['untraced'])}")
        for span, error in layers.get("observe_errors", {}).items():
            failed.setdefault("trace", []).append(f"observation of {span} failed: {error}")
        self.failures += [f"{step}: {'; '.join(msgs)}" for step, msgs in failed.items()]
        return result

    @property
    def failed(self) -> int:
        return len(self.failures)

    def step_medians(self) -> dict[str, float]:
        ok = [r for r in self.reps if r]
        return {
            s: statistics.median(r["steps"][i]["seconds"] for r in ok)
            for i, s in enumerate(self.steps)
        } if ok else {}


def at_reference_speed(rep: dict) -> tuple[float, float]:
    """A repetition's set-up and chain seconds at the reference host speed."""
    cal = rep["calibration_s"]
    setup = rep["setup_s"] * CALIBRATION_REF_S / cal[0]
    wall = sum(
        s["seconds"] * 2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1])
        for i, s in enumerate(rep["steps"])
    )
    return setup, wall


def end_to_end(run: Run) -> dict[str, float]:
    ok = [r for r in run.reps if r]
    if not ok:
        return {}
    words = workloads.words(run.workload, run.size)
    setups, walls = zip(*(at_reference_speed(r) for r in ok))
    out = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "words_per_s": statistics.median(words / w for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    return out | (run.sim or {})


def per_layer(run: Run) -> dict[str, float]:
    if not run.traced or not run.reps or not any(run.reps):
        return {}
    layers = run.traced["layers"]
    spans, counts = layers["spans"], layers["counts"]

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def per_unit_ms(span: str, key: str) -> float:
        n = counts.get(key, 0)
        return 1e3 * spans.get(span, {}).get("busy_s", 0.0) / n if n else 0.0

    steps = run.step_medians()
    step_s = lambda *names: sum(steps.get(n, 0.0) for n in names)
    untraced = statistics.median(r["wall_s"] for r in run.reps if r)
    return {
        "variation.synth_s": self_s("variation.synth_population"),
        "variation.chips": counts.get("variation.chips", 0),
        "cellarray.evaluate_s": self_s("cellarray.evaluate"),
        "cellarray.evaluate_calls": calls("cellarray.evaluate"),
        "crp.record_seed_s": self_s("crp.record_seed"),
        "adc.convert_s": self_s("adc.convert"),
        "adc.convert_calls": calls("adc.convert"),
        "quantizer.region_of_s": self_s("quantizer.region_of"),
        "adc.response_bits_s": self_s("adc.response_bits"),
        "adc.response_bits_ref_s": layers.get("response_bits_ref_s", 0.0),
        "crp.generate_s": self_s("crp.generate"),
        "crp.records": counts.get("crp.records", 0),
        "crp.save_s": self_s("crp.save_csv", "crp.save_jsonl"),
        "crp.load_s": self_s("crp.load_csv", "crp.load_jsonl"),
        "crp.bytes": counts.get("crp.bytes", 0),
        "crp.bits_matrix_s": self_s("crp.bits_matrix"),
        "crp.uniqueness_s": self_s("crp.uniqueness"),
        "crp.uniformity_s": self_s("crp.uniformity"),
        "crp.bit_aliasing_s": self_s("crp.bit_aliasing"),
        "crp.reliability_s": self_s("crp.reliability"),
        "crp.reliability_reads": counts.get("crp.reliability_reads", 0),
        "quantizer.lloyd_max_s": self_s("quantizer.lloyd_max"),
        "quantizer.lloyd_max_iters": layers.get("lloyd_max_iters", 0),
        "analog.transfer_array_s": self_s("analog.transfer_array"),
        "attack.es_fit_s": self_s("attack.es_fit"),
        "attack.es_gen_ms": per_unit_ms("attack.es_fit", "attack.es_generations"),
        "attack.es_improving_gens": counts.get("attack.es_improving_gens", 0),
        "attack.lr_train_s": self_s("attack.lr_train"),
        "attack.lr_epoch_ms": per_unit_ms("attack.lr_train", "attack.lr_epochs"),
        "attack.split_s": self_s("attack.split"),
        "attack.report_s": self_s("attack.attack_report"),
        "cli.mc_s": step_s("mc"),
        "cli.fit_quantizer_s": step_s("fit-quantizer"),
        "cli.crps_s": step_s("crps"),
        "cli.metrics_s": step_s("metrics"),
        "cli.attack_lr_s": step_s(*(s for s in run.steps if s.startswith("attack-lr"))),
        "cli.attack_es_s": step_s("attack-es"),
        "cli.overhead_s": self_s(*(f"cli.{s}" for s in run.steps)),
        "trace.overhead_s": run.traced["wall_s"] - untraced,
        "host.calibration_ms": 1e3 * statistics.median(
            c for r in run.reps if r for c in r["calibration_s"]),
        "host.raw_wall_s": untraced,
    }


def load_golden(workload: str, seed: int, size: str) -> dict | None:
    doc = json.loads((BENCH / "golden.json").read_text())
    return doc.get(size, {}).get(str(workloads.input_set(seed)), {}).get(workload)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> Run:
    """Repeat the chain while the next repetition is expected to end within ``seconds``."""
    run = Run(workload, seed, size, load_golden(workload, seed, size))
    # a throwaway import fills the page cache and writes bytecode before timing
    warm = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import cmapuf.cli, tracer"
    subprocess.run([sys.executable, "-c", warm], env=child_env(), check=False,
                   timeout=CHILD_TIMEOUT_S)
    t0 = time.monotonic()
    while True:
        run.reps.append(run.repeat(trace=False))
        elapsed = time.monotonic() - t0
        if elapsed * (len(run.reps) + 1) / len(run.reps) > seconds:
            break
    if trace:
        run.traced = run.repeat(trace=True)
    return run


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(run: Run, trace: bool) -> dict:
    spec = declared()["per_layer" if trace else "end_to_end"]
    values = per_layer(run) if trace else end_to_end(run)
    print(f"workload {run.workload}  seed {run.seed} (input set "
          f"{workloads.input_set(run.seed)})  size {run.size}  repetitions {len(run.reps)}")
    print(f"machine: nproc {nproc()}  {platform.machine()}  python {platform.python_version()}"
          f"  numpy {np.__version__}")
    for step, sec in run.step_medians().items():
        print(f"  step {step:<16} {sec:10.4f} s (median, unscaled)")
    walls = "  ".join(f"{r['wall_s']:.3f}" for r in run.reps if r)
    print(f"  chain wall per repetition (unscaled): {walls} s")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(f"  fail_rate {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} steps)")
    if run.occupancy:
        occ = "  ".join(f"r{r}={v:.4f}" for r, v in run.occupancy.items())
        print(f"  region occupancy (share of reads; not gated): {occ}")
    metrics = {}
    for m in spec:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<28} {values[m['name']]:>16.6f} {m['unit']}")
    return {
        "correct": run.failed == 0 and len(metrics) == len(spec),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def steady(repeats: int, names: list[str], seconds: float, size: str) -> dict:
    """Run each workload with seeds 1..repeats; quartiles of every metric."""
    declared_e2e = {m["name"]: m for m in declared()["end_to_end"]}
    summary = {}
    for w in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(1, repeats + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--size", size]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += doc["attempted"]
            failed += doc["failed"]
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: fail_rate {failed / attempted:.4f} ({failed} of {attempted} steps)")
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            unit, bound = declared_e2e[name]["unit"], declared_e2e[name]["bound"]
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
                          "values": vals}
            flag = "" if spread < bound / 3 else "  <-- over a third of bound"
            print(f"  {name:<24} median {med:14.6f} {unit:<8} q1 {q1:14.6f}  q3 {q3:14.6f}  "
                  f"spread {100 * spread:6.2f}%  bound {100 * bound:.0f}%{flag}")
        summary[w] = {"fail_rate": failed / attempted, "metrics": rows}
    return summary


def main(argv: list[str] | None = None) -> int:
    bench = declared()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run every workload (or --workload) with seeds 1..N")
    args = p.parse_args(argv)
    if not (SRC / "cmapuf" / "cli.py").is_file():
        print(f"error: no cmapuf sources under {SRC}", file=sys.stderr)
        return 2
    if args.steady:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        print(json.dumps(steady(args.steady, names, args.seconds, args.size)))
        return 0
    if args.workload is None:
        p.error("--workload is required unless --steady is given")
    sys.path.insert(0, str(SRC))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(report(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

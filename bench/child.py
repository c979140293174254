"""One run of a workload's CLI chain in a fresh process.

Usage: ``python child.py '<json job>'``; the parent (``run.py``) builds
the job.  The child imports cmapuf from the checkout, empties and enters
the run directory, then calls ``cmapuf.cli.main(argv)`` once per step and
writes a JSON result: set-up time, per-step seconds and errors, chain
wall time, peak RSS and the calibration times (see ``calibrate``).  With
``trace`` set it first wraps the library's public calls in spans (see
``tracer.py``), adds a ``cli.<step>`` span per step and reports the
per-layer figures the spans give, with the traced functions it could not
find and the observations that raised.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tr
import workloads

CALIBRATION_LOOPS = 400_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The host lends this process its cores in fast and slow spells; the
    loop is timed after set-up and after every step, so that each step's
    time can be scaled by the speed the host ran at around it.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def _layers(tracer: tr.Tracer, run_dir: Path, untraced: list[str]) -> dict:
    """Self times, counts, tracing faults and the two after-the-fact measurements."""
    tracer.dump(run_dir / "trace.json")
    spans = tr.self_times(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
    out = {
        "spans": spans,
        "counts": dict(tracer.counts),
        "untraced": untraced,
        "observe_errors": tracer.observe_errors,
    }

    from cmapuf import adc, quantizer

    calls = tracer.captured.get("convert", [])
    if calls:
        # the batched converter on the voltages the scalar converter saw
        config, spec = tracer.captured["convert_ctx"]
        volts = np.array([v for v, _ in calls])
        response_bits = getattr(adc.response_bits, "__wrapped__", adc.response_bits)
        t0 = time.perf_counter()
        batched = response_bits(config, spec, volts)
        out["response_bits_ref_s"] = time.perf_counter() - t0
        scalar = "".join(word.encoded for _, word in calls).encode()
        scalar = np.frombuffer(scalar, dtype=np.uint8).reshape(len(calls), -1) - ord("0")
        out["response_bits_ref_mismatches"] = int(np.any(batched != scalar, axis=1).sum())
    fits = tracer.captured.get("lloyd_max", [])
    if fits:
        iters = 0
        for args, kwargs in fits:
            kw = {k: v for k, v in kwargs.items() if k in ("tol", "max_iter")}
            iters += len(quantizer.lloyd_max_mse_trace(*args[:2], **kw))
        out["lloyd_max_iters"] = iters
    return out


def main(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from cmapuf import cli

    run_dir = Path(job["run_dir"])
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)
    tracer = None
    if job["trace"]:
        tracer = tr.Tracer()
        untraced = tr.install(tracer)
    steps = workloads.steps(job["workload"], job["seed"], job["size"])
    setup_s = time.monotonic() - job["t_spawn"]

    results = []
    calibration = [calibrate()]
    for name, argv in steps:
        span = tracer.open(f"cli.{name}") if tracer else None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except SystemExit as exc:  # argparse rejects bad arguments this way
            error = f"exit {exc.code}"
        except Exception:
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        results.append({"step": name, "seconds": seconds, "error": error})
        calibration.append(calibrate())

    out = {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": results,
    }
    if tracer:
        out["layers"] = _layers(tracer, run_dir, untraced)
    return out


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = main(job)
    Path(job["result"]).write_text(json.dumps(result))

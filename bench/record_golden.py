"""Record ``golden.json``: output digests and noisy metric values per input set.

    python3 bench/record_golden.py

Runs every workload once on every input set at every size, through the
same child process the benchmark uses, and stores the sha256 digest of
each pinned file and, for the noisy workload, its uniqueness and mean
reliability.  Run it only to pin a deliberate, declared output change;
the recorded file is what every benchmark run checks its outputs
against.  It is written from scratch, so no size keeps stale digests.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def record(size: str) -> dict:
    out = {}
    for s in range(workloads.INPUT_SETS):
        out[str(s)] = {}
        for name, w in workloads.WORKLOADS.items():
            if run.run_child(name, s, size, trace=False) is None:
                raise RuntimeError(f"{name} failed on input set {s} at size {size}")
            run_dir = run.RUN_ROOT / name
            entry = {"digests": checks.digests(run_dir, name)}
            if w.noisy:
                doc = json.loads((run_dir / "metrics.json").read_text())
                entry["noisy"] = checks.summary(doc)
            fails, _ = checks.check_run(run_dir, name, size, entry)
            if fails:
                raise RuntimeError(f"{name} input set {s} at size {size}: {fails}")
            out[str(s)][name] = entry
            print(f"{size} input set {s} {name}: {len(entry['digests'])} digests", flush=True)
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    golden = {size: record(size) for size in workloads.SIZES}
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for one run of a workload, made from outside the package.

Noiseless outputs and every manifest are pinned by sha256 digests recorded
in ``golden.json``.  Noisy outputs are checked by invariants instead, so a
deliberate change of the noise stream passes while a broken one fails:
exact record count and identity columns, a precision that matches the
region, codes that fit it, and metrics that agree with the dataset and lie
within a stated tolerance of the recorded values.

Every check returns a list of ``(step, message)`` failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import workloads

# Files pinned by digest, by the step that writes them: every noiseless
# output and every manifest.  enroll-noisy's crps.jsonl and metrics.json
# are noisy and checked by invariants instead.
_PINNED = {
    "design-clean": {
        "mc": ["mc.csv", "samples.txt", "mc.csv.manifest.json"],
        "fit-quantizer": ["quantizer.json", "quantizer.json.manifest.json"],
        "crps": ["crps.csv", "crps.csv.manifest.json"],
        "metrics": ["metrics.json", "metrics.json.manifest.json"],
    },
    "enroll-noisy": {
        "crps": ["crps.jsonl.manifest.json"],
        "metrics": ["metrics.json.manifest.json"],
    },
    "attack": {
        "crps": ["crps.csv", "crps.csv.manifest.json"],
        **{
            f"attack-lr-{e}": [f"lr_{e}.csv", f"lr_{e}.csv.manifest.json"]
            for e in ("raw", "rowcol", "cell")
        },
        "attack-es": ["es.csv", "es.csv.manifest.json"],
    },
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(run_dir: Path, workload: str) -> dict[str, str]:
    files = [f for fs in _PINNED[workload].values() for f in fs]
    return {f: sha256(run_dir / f) for f in files if (run_dir / f).exists()}


def check_digests(run_dir: Path, workload: str, golden: dict) -> list[tuple[str, str]]:
    fails = []
    for step, files in _PINNED[workload].items():
        for f in files:
            path = run_dir / f
            if not path.exists():
                fails.append((step, f"{f} missing"))
            elif sha256(path) != golden.get(f):
                fails.append((step, f"{f} digest differs from the recorded one"))
    return fails


def read_dataset(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV or JSONL dataset, parsed without cmapuf."""
    if path.suffix == ".jsonl":
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        rows = [r for r in rows if "_meta" not in r]
    else:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    cols = {
        "chip_id": np.array([r["chip_id"] for r in rows]),
        "challenge": np.array([int(r["challenge"], 16) for r in rows], dtype=np.int64),
        "encoded": np.array([r["encoded"] for r in rows]),
    }
    for key in ("region", "code", "bits"):
        cols[key] = np.array([int(r[key]) for r in rows], dtype=np.int64)
    for key in ("temperature", "noise_sigma"):
        cols[key] = np.array([float(r[key]) for r in rows])
    return cols


def bit_matrix(cols: dict[str, np.ndarray]) -> np.ndarray:
    """(n, 11) 0/1 matrix of the encoded column."""
    raw = "".join(cols["encoded"].tolist()).encode()
    return (np.frombuffer(raw, dtype=np.uint8) - ord("0")).reshape(len(cols["encoded"]), -1)


def check_dataset(cols: dict[str, np.ndarray], manifest: dict) -> list[str]:
    """Identity columns, precision per region and code range of one dataset."""
    params = manifest["parameters"]
    chips, words = params["chips"], params["challenges"]
    n = chips * words
    if len(cols["chip_id"]) != n:
        return [f"{len(cols['chip_id'])} records, expected {n}"]
    fails = []
    want_ids = np.repeat([f"chip{i:03d}" for i in range(chips)], words)
    if not np.array_equal(cols["chip_id"], want_ids):
        fails.append("chip_id column differs")
    if not np.array_equal(cols["challenge"], np.tile(np.arange(words), chips)):
        fails.append("challenge column differs")
    if not np.all(cols["temperature"] == params["conditions"]["temperature"]):
        fails.append("temperature column differs")
    if not np.all(cols["noise_sigma"] == params["conditions"]["noise_sigma"]):
        fails.append("noise_sigma column differs")
    table = np.array(params["quantizer"]["bits_per_region"])
    region = cols["region"]
    if region.min() < 1 or region.max() > table.size:
        return fails + ["region outside the quantizer's table"]
    if not np.array_equal(cols["bits"], table[region - 1]):
        fails.append("bits differ from the precision of their region")
    if np.any(cols["code"] < 0) or np.any(cols["code"] >= 1 << cols["bits"]):
        fails.append("code does not fit its precision")
    expect = [f"{r:03b}{c:08b}" for r, c in zip(region.tolist(), cols["code"].tolist())]
    if cols["encoded"].tolist() != expect:
        fails.append("encoded differs from region and code")
    return fails


def check_metrics(
    doc: dict, cols: dict[str, np.ndarray], chips: int, reference: dict | None, tol: dict | None
) -> list[str]:
    """Metrics agree with the dataset they were computed from.

    Uniqueness, uniformity and bit aliasing are recomputed from the bits:
    uniqueness as sum n1 (K - n1) / (C B K (K - 1) / 2) over bit columns.
    With a reference, uniqueness and mean reliability must also lie within
    ``tol`` of it.
    """
    bits = bit_matrix(cols)
    ids = list(dict.fromkeys(cols["chip_id"].tolist()))
    per_chip = bits.reshape(len(ids), -1, bits.shape[1])
    k = per_chip.shape[0]
    fails = []

    def uniq(cube: np.ndarray) -> float:
        ones = cube.sum(axis=0).astype(float)
        return float((ones * (k - ones)).sum() / (cube.shape[1] * cube.shape[2] * k * (k - 1) / 2))

    def close(got: float | None, want: float) -> bool:
        return got is not None and abs(got - want) <= 1e-9

    if not close(doc.get("uniqueness"), uniq(per_chip)):
        fails.append("uniqueness does not match the dataset")
    if not close(doc.get("uniqueness_code_bits"), uniq(per_chip[:, :, 3:])):
        fails.append("uniqueness_code_bits does not match the dataset")
    unif = doc.get("uniformity", {})
    if sorted(unif) != sorted(ids) or any(
        not close(unif[cid], float(per_chip[i].mean())) for i, cid in enumerate(ids)
    ):
        fails.append("uniformity does not match the dataset")
    alias = doc.get("bit_aliasing") or []
    if len(alias) != bits.shape[1] or not np.allclose(alias, bits.mean(axis=0), rtol=0, atol=1e-9):
        fails.append("bit_aliasing does not match the dataset")
    rel = doc.get("reliability", {})
    if len(rel) != chips or not all(0.0 <= v <= 1.0 for v in rel.values()):
        fails.append("reliability missing for some chips or outside [0, 1]")
    elif reference is not None:
        got = summary(doc)
        for key, want in reference.items():
            if abs(got[key] - want) > tol[key]:
                fails.append(f"{key} {got[key]:.6f} not within {tol[key]} of {want:.6f}")
    return fails


def summary(doc: dict) -> dict[str, float]:
    """The noisy metric values recorded per input set."""
    rel = list(doc["reliability"].values())
    return {"uniqueness": doc["uniqueness"], "mean_reliability": float(np.mean(rel))}


def check_run(
    run_dir: Path, workload: str, size: str, golden: dict | None
) -> tuple[list[tuple[str, str]], dict[str, np.ndarray] | None]:
    """Every check of one run; also returns the dataset columns."""
    w = workloads.WORKLOADS[workload]
    if golden is None:
        return [(step, "no recorded digests") for step in _PINNED[workload]], None
    fails = check_digests(run_dir, workload, golden["digests"])
    data = run_dir / w.dataset
    manifest = run_dir / f"{w.dataset}.manifest.json"
    if not (data.exists() and manifest.exists()):
        return fails + [("crps", "dataset or its manifest missing")], None
    man = json.loads(manifest.read_text())
    cols = read_dataset(data)
    fails += [("crps", msg) for msg in check_dataset(cols, man)]
    metrics = run_dir / "metrics.json"
    if workload != "attack":
        if not metrics.exists():
            return fails + [("metrics", "metrics.json missing")], cols
        doc = json.loads(metrics.read_text())
        reference = golden.get("noisy") if w.noisy else None
        tol = workloads.NOISY_TOLERANCE[size]
        fails += [
            ("metrics", msg)
            for msg in check_metrics(doc, cols, man["parameters"]["chips"], reference, tol)
        ]
    return fails, cols

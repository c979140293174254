"""The benchmark's three workloads: CLI step chains built from a seed.

A workload seed picks one of ``INPUT_SETS`` input sets (seed modulo
``INPUT_SETS``), so that every noiseless output has a recorded sha256
digest in ``golden.json`` to check against.  Input set ``s`` synthesizes
chips ``100 s .. 100 s + chips - 1`` and draws Monte Carlo samples from
seed ``s``; everything else is fixed.

Each step is ``(name, argv)``.  Paths in ``argv`` are relative to the
run directory, because manifests embed them and their digests must not
depend on where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT_SETS = 16
TEMPS = "0,30,60"
RELIABILITY_CHALLENGES = 256  # crp.reliability re-reads every challenge word
NOISE_SIGMA = 0.002
ES_PARENTS = 8  # attack's --parents default
ES_POPULATION = 40  # attack's --population default
TRAIN_FRAC = 0.75  # attack's --train-frac default

# Sizes: "full" is the benchmark, "tiny" is for the smoke test.  The
# populations have 25 chips, not 100, so that a run holds ten or more
# short repetitions, each step scaled by a calibration taken right around
# it; with 100 chips a run held four to six, and host speed changed within
# a repetition.
SIZES = {
    "full": {"chips": 25, "challenges": 256, "samples": 100_000, "generations": 4000},
    "tiny": {"chips": 2, "challenges": 16, "samples": 2_000, "generations": 20},
}

# Noisy metrics must land within these absolute tolerances of the values
# recorded for the input set.  They are about ten times the change seen
# when only the noise seeds change, so a different but sound noise
# stream passes and a broken one does not.
NOISY_TOLERANCE = {
    "full": {"uniqueness": 0.015, "mean_reliability": 0.01},
    "tiny": {"uniqueness": 0.05, "mean_reliability": 0.02},
}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # the crps output the checks and sim.* metrics read
    noisy: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design-clean", "crps.csv", noisy=False),
        Workload("enroll-noisy", "crps.jsonl", noisy=True),
        Workload("attack", "crps.csv", noisy=False),
    )
}


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def steps(workload: str, seed: int, size: str = "full") -> list[tuple[str, list[str]]]:
    s = input_set(seed)
    p = {k: str(v) for k, v in SIZES[size].items()}
    chip_seed = str(100 * s)
    if workload == "design-clean":
        return [
            ("mc", ["mc", "--seed", str(s), "--samples", p["samples"],
                    "--out", "mc.csv", "--samples-out", "samples.txt"]),
            ("fit-quantizer", ["fit-quantizer", "--samples", "samples.txt",
                               "--out", "quantizer.json"]),
            ("crps", ["crps", "--seed", chip_seed, "--chips", p["chips"],
                      "--challenges", p["challenges"], "--quantizer", "quantizer.json",
                      "--out", "crps.csv"]),
            ("metrics", ["metrics", "--in", "crps.csv", "--temps", TEMPS,
                         "--out", "metrics.json"]),
        ]
    if workload == "enroll-noisy":
        return [
            ("crps", ["crps", "--seed", chip_seed, "--chips", p["chips"],
                      "--challenges", p["challenges"], "--noise-sigma", str(NOISE_SIGMA),
                      "--noise-seed", "1", "--out", "crps.jsonl"]),
            ("metrics", ["metrics", "--in", "crps.jsonl", "--temps", TEMPS, "--seed", "2",
                         "--out", "metrics.json"]),
        ]
    if workload == "attack":
        lr = [
            (f"attack-lr-{enc}", ["attack", "--in", "crps.csv", "--model", "lr",
                                  "--encoding", enc, "--out", f"lr_{enc}.csv"])
            for enc in ("raw", "rowcol", "cell")
        ]
        return [
            ("crps", ["crps", "--seed", chip_seed, "--chips", "1",
                      "--challenges", p["challenges"], "--out", "crps.csv"]),
            *lr,
            ("attack-es", ["attack", "--in", "crps.csv", "--model", "es",
                           "--generations", p["generations"], "--out", "es.csv"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def train_words(challenges: int) -> int:
    """Training-side size of attack.split at the default train fraction."""
    return min(max(int(round(TRAIN_FRAC * challenges)), 1), challenges - 1)


def words(workload: str, size: str = "full") -> int:
    """11-bit response words the model computes in one run of the chain.

    Records written, plus reliability re-reads (a reference read and one
    per temperature, for every chip and challenge word), plus one word per
    ES candidate evaluation and training record.
    """
    p = SIZES[size]
    conditions = 1 + len(TEMPS.split(","))
    if workload in ("design-clean", "enroll-noisy"):
        return p["chips"] * (p["challenges"] + conditions * RELIABILITY_CHALLENGES)
    candidates = ES_PARENTS + p["generations"] * ES_POPULATION
    return p["challenges"] + candidates * train_words(p["challenges"])

"""Challenge-response datasets and the standard quality metrics.

A record is one read: which chip, which challenge, the 11-bit response
and the conditions it was taken under.  Noise is reproducible per record:
the generator seed is derived from (dataset noise seed, chip id,
challenge word), so re-generating any single record gives the same bits
without replaying the whole dataset.

Reads are made in one batch per call (``read``): chips x challenge words
to region, code and precision arrays, plus each record's noise seed.
The scalar chain ``evaluate`` -> ``convert`` -> ``encode_word`` and
``record_seed`` stay the definition every batched value must equal; the
batch uses the same libm ``tanh`` as the scalar ``transfer``, so record
bytes do not depend on which route produced them.

Metrics follow the usual fractional-Hamming-distance conventions:

    uniqueness   mean pairwise HD between chips on shared challenges
                 (ideal 0.5 on unbiased bit positions)
    uniformity   fraction of ones a single chip emits (ideal 0.5)
    reliability  1 - mean HD between a reference read and re-reads under
                 stress conditions (ideal 1.0)
    bit_aliasing per-position mean across chips (ideal 0.5 per bit)
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adc import AdcConfig, ResponseWord, convert_array, word_bits
from .analog import Conditions, TransferModel
from .cellarray import CHALLENGE_BITS, Challenge, evaluate_array
from .quantizer import QuantizerSpec
from .variation import ChipInstance


@dataclass(frozen=True)
class CrpRecord:
    chip_id: str
    challenge: int
    response: ResponseWord
    conditions: Conditions

    def __post_init__(self) -> None:
        if not (0 <= self.challenge < 1 << CHALLENGE_BITS):
            raise ValueError(f"challenge must be in [0, 255], got {self.challenge}")


@dataclass
class CrpDataset:
    records: list[CrpRecord]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def chip_ids(self) -> list[str]:
        """Distinct chip ids in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.chip_id)
        return list(seen)

    def for_chip(self, chip_id: str) -> list[CrpRecord]:
        out = [r for r in self.records if r.chip_id == chip_id]
        if not out:
            raise ValueError(f"no records for chip {chip_id!r}")
        return out


def record_seed(base_seed: int, chip_id: str, challenge: int) -> int:
    """Derived noise seed for one (chip, challenge) read."""
    ss = np.random.SeedSequence([base_seed, zlib.crc32(chip_id.encode()), challenge])
    return int(ss.generate_state(1, np.uint64)[0])


# numpy SeedSequence's hash constants, for the batched ``record_seed``.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _seed_words(n: int) -> list[int]:
    """An entropy integer as SeedSequence reads it: little-endian uint32 words."""
    if n < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's message
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int):
    """SeedSequence's hash constants, (xor, multiply) per step: data independent."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _record_seeds(base_seed: int, chip_ids: list[str], words: np.ndarray) -> np.ndarray:
    """``record_seed`` for every (chip, word) pair at once, as (chips, words) uint64.

    SeedSequence's pool mix is a fixed sequence of uint32 operations
    whose constants do not depend on the entropy, so it runs elementwise
    over all records.
    """
    shape = (len(chip_ids), len(words))
    crcs = np.array([zlib.crc32(c.encode()) for c in chip_ids], dtype=np.uint32)[:, None]
    entropy = [np.uint32(w) for w in _seed_words(base_seed)]
    entropy += [crcs, np.asarray(words).astype(np.uint32)[None, :]]
    entropy = [np.broadcast_to(e, shape) for e in entropy]
    entropy += [np.zeros(shape, np.uint32)] * (_POOL_SIZE - len(entropy))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(e, consts) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(e, consts))
    # generate_state(1, uint64): two uint32 words, low word first
    consts = _hash_consts(_INIT_B, _MULT_B)
    low, high = (_hashmix(value, consts).astype(np.uint64) for value in pool[:2])
    return low | (high << np.uint64(32))


@dataclass(frozen=True)
class Reads:
    """One batch of reads, every array shaped (chips, words).

    seeds holds each record's derived noise seed (``record_seed``), or is
    None when the caller did not ask for seeds and the reads are noiseless.
    """

    region: np.ndarray
    code: np.ndarray
    bits: np.ndarray
    seeds: np.ndarray | None


def read(
    chips: list[ChipInstance],
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    challenges: list[int],
    conditions: Conditions,
    with_seeds: bool = True,
) -> Reads:
    """Read every chip at every challenge word in one batch.

    Each value equals the scalar route's: ``record_seed`` for the seed,
    a ``default_rng(seed).normal`` draw for the noise, then ``evaluate``
    and ``convert``.  Bad input raises the scalar route's error: a
    negative noise seed, then a challenge outside [0, 255], then the
    first voltage ``convert`` rejects.
    """
    _seed_words(conditions.noise_seed)  # a negative seed fails, noisy or not
    words = np.asarray(challenges, dtype=np.int64).reshape(-1)
    bad = (words < 0) | (words >= 1 << CHALLENGE_BITS)
    if bad.any():
        Challenge(int(words[np.argmax(bad)]))  # raises
    noisy = conditions.noise_sigma > 0.0
    seeds = None
    if with_seeds or noisy:
        seeds = _record_seeds(conditions.noise_seed, [c.chip_id for c in chips], words)
    noise = None
    if noisy:
        sigma = conditions.noise_sigma
        noise = np.array(
            [np.random.default_rng(s).normal(0.0, sigma) for s in seeds.ravel().tolist()]
        ).reshape(seeds.shape)
    volts = evaluate_array(model, chips, words, conditions, noise)
    region, code, bits = convert_array(adc_config, spec, volts)
    return Reads(region=region, code=code, bits=bits, seeds=seeds)


def bits_matrix(records: list[CrpRecord]) -> np.ndarray:
    """Encoded responses as an (n, 11) int8 matrix."""
    n = len(records)
    region = np.fromiter((r.response.region for r in records), dtype=np.int64, count=n)
    code = np.fromiter((r.response.code for r in records), dtype=np.int64, count=n)
    return word_bits(region, code)


def generate(
    chips: list[ChipInstance],
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    challenges: list[int],
    conditions: Conditions,
) -> CrpDataset:
    """Read every chip at every challenge under one set of conditions.

    Records are emitted chip-major in the order given, challenge order
    preserved within a chip.  The same arguments always produce the same
    dataset, noise included.
    """
    if not chips:
        raise ValueError("need at least one chip")
    if not challenges:
        raise ValueError("need at least one challenge")
    reads = read(chips, model, spec, adc_config, challenges, conditions)
    temperature, sigma = conditions.temperature, conditions.noise_sigma
    records = [
        CrpRecord(
            chip_id=chip.chip_id,
            challenge=word,
            response=ResponseWord(region=region, code=code, bits=bits),
            conditions=Conditions(temperature=temperature, noise_sigma=sigma, noise_seed=seed),
        )
        for chip, *row in zip(chips, reads.region, reads.code, reads.bits, reads.seeds)
        for word, region, code, bits, seed in zip(challenges, *(a.tolist() for a in row))
    ]
    meta = {
        "temperature": conditions.temperature,
        "noise_sigma": conditions.noise_sigma,
        "noise_seed": conditions.noise_seed,
        "n_chips": len(chips),
        "n_challenges": len(challenges),
    }
    return CrpDataset(records=records, metadata=meta)


def uniqueness(dataset: CrpDataset, bit_positions: list[int] | None = None) -> float:
    """Mean pairwise fractional HD between chips over shared challenges.

    bit_positions restricts the comparison to a subset of the 11 response
    bits (for example code bits only); default is all of them.
    """
    ids = dataset.chip_ids
    if len(ids) < 2:
        raise ValueError(f"uniqueness needs >= 2 chips, got {len(ids)}")
    per_chip: dict[str, dict[int, np.ndarray]] = {c: {} for c in ids}
    rows = bits_matrix(dataset.records)
    for r, row in zip(dataset.records, rows):
        reads = per_chip[r.chip_id]
        if r.challenge in reads:
            raise ValueError(
                f"uniqueness needs one read per (chip, challenge), but chip {r.chip_id!r} "
                f"has more than one read of challenge {r.challenge}"
            )
        reads[r.challenge] = row
    common = set(per_chip[ids[0]])
    for c in ids[1:]:
        common &= set(per_chip[c])
    if not common:
        raise ValueError("chips share no common challenges")
    order = sorted(common)
    stack = np.stack([[per_chip[c][w] for w in order] for c in ids])  # (K, C, 11)
    if bit_positions is not None:
        stack = stack[:, :, bit_positions]
    diff = (stack[:, None, :, :] != stack[None, :, :, :]).mean(axis=(2, 3))
    iu = np.triu_indices(len(ids), k=1)
    return float(diff[iu].mean())


def uniformity(dataset: CrpDataset, chip_id: str) -> float:
    """Fraction of ones across one chip's encoded responses."""
    return float(bits_matrix(dataset.for_chip(chip_id)).mean())


def bit_aliasing(dataset: CrpDataset) -> np.ndarray:
    """Per-position mean bit value pooled over all records (length 11).

    With a single challenge in the dataset this is the classic
    across-chip aliasing figure; with many challenges it pools over
    challenges as well.
    """
    if len(dataset.chip_ids) < 2:
        raise ValueError("bit_aliasing needs >= 2 chips")
    return bits_matrix(dataset.records).mean(axis=0)


def reliability(
    chip: ChipInstance,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    test_conditions: list[Conditions],
    reference: Conditions | None = None,
) -> float:
    """1 - mean encoded HD between reference reads and stressed re-reads.

    The reference defaults to a noise-free read at 25 degC.  All 256
    challenges are compared under every test condition.
    """
    if not test_conditions:
        raise ValueError("need at least one test condition")
    if reference is None:
        reference = Conditions(temperature=25.0, noise_sigma=0.0)
    words = list(range(1 << CHALLENGE_BITS))

    def read_bits(cond: Conditions) -> np.ndarray:
        got = read([chip], model, spec, adc_config, words, cond, with_seeds=False)
        return word_bits(got.region, got.code)

    ref_bits = read_bits(reference)
    total = 0.0
    for cond in test_conditions:
        total += float((read_bits(cond) != ref_bits).mean())
    return 1.0 - total / len(test_conditions)


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of dataset metrics; reliability is per chip and optional."""

    uniqueness: float | None
    uniformity: dict[str, float]
    bit_aliasing: tuple[float, ...] | None
    reliability: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = list(self.uniformity.values()) + list(self.reliability.values())
        if self.uniqueness is not None:
            vals.append(self.uniqueness)
        if self.bit_aliasing is not None:
            vals.extend(self.bit_aliasing)
        for v in vals:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"metric value {v} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "uniqueness": self.uniqueness,
            "uniformity": dict(self.uniformity),
            "bit_aliasing": list(self.bit_aliasing) if self.bit_aliasing is not None else None,
            "reliability": dict(self.reliability),
        }


# challenge is serialized as 2-digit hex; noise_sigma rides along so a
# loaded record reconstructs its Conditions value-exactly.
CSV_FIELDS = (
    "chip_id",
    "challenge",
    "region",
    "code",
    "bits",
    "encoded",
    "temperature",
    "noise_sigma",
    "noise_seed",
)


def _record_row(r: CrpRecord) -> dict:
    return {
        "chip_id": r.chip_id,
        "challenge": format(r.challenge, "02x"),
        "region": r.response.region,
        "code": r.response.code,
        "bits": r.response.bits,
        "encoded": r.response.encoded,
        "temperature": r.conditions.temperature,
        "noise_sigma": r.conditions.noise_sigma,
        "noise_seed": r.conditions.noise_seed,
    }


def _row_record(row: dict) -> CrpRecord:
    return CrpRecord(
        chip_id=row["chip_id"],
        challenge=int(row["challenge"], 16),
        response=ResponseWord(
            region=int(row["region"]), code=int(row["code"]), bits=int(row["bits"])
        ),
        conditions=Conditions(
            temperature=float(row["temperature"]),
            noise_sigma=float(row["noise_sigma"]),
            noise_seed=int(row["noise_seed"]),
        ),
    )


def save_csv(dataset: CrpDataset, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for r in dataset.records:
            writer.writerow(_record_row(r))


def load_csv(path: str | Path) -> CrpDataset:
    with open(path, newline="") as fh:
        records = [_row_record(row) for row in csv.DictReader(fh)]
    return CrpDataset(records=records)


def save_jsonl(dataset: CrpDataset, path: str | Path) -> None:
    with open(path, "w") as fh:
        if dataset.metadata:
            fh.write(json.dumps({"_meta": dataset.metadata}, sort_keys=True) + "\n")
        for r in dataset.records:
            fh.write(json.dumps(_record_row(r), sort_keys=True) + "\n")


def load_jsonl(path: str | Path) -> CrpDataset:
    records: list[CrpRecord] = []
    metadata: dict = {}
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if "_meta" in doc:
                metadata = doc["_meta"]
            else:
                records.append(_row_record(doc))
    return CrpDataset(records=records, metadata=metadata)

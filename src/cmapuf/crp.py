"""Challenge-response datasets and the standard quality metrics.

A dataset is a set of equal-length columns, one row per read: chip,
challenge, the response (region, code, precision) and the conditions of
the read.  Noise is reproducible per record: the generator seed is
derived from (dataset noise seed, chip id, challenge word), so
re-generating any single record gives the same bits without replaying
the whole dataset.

``generate`` is the one batched read, chips x challenge words straight
to columns; ``reliability`` re-reads a population through it, once per
condition.  The scalar chain ``evaluate`` -> ``convert`` -> ``encode_word``
and ``record_seed`` stay the definition every batched value must equal;
both share the one imbalance stage, ``analog.effective_mismatch``, and
the one tanh stage, ``analog.transfer_array``.

Metrics follow the usual fractional-Hamming-distance conventions, and
refuse a dataset with more than one read of a (chip, challenge):

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
from functools import cached_property
from pathlib import Path

import numpy as np

from .adc import (
    CODE_FIELD_BITS,
    REGION_FIELD_BITS,
    WORD_BITS,
    AdcConfig,
    ResponseWord,
    convert_array,
    word_bits,
)
from .analog import Conditions, TransferModel
from .cellarray import CHALLENGE_BITS, Challenge, evaluate_array
from .quantizer import QuantizerSpec
from .variation import ChipInstance

# A dataset's columns and their dtypes.
COLUMNS = {
    "chip_id": np.str_,
    "challenge": np.int64,
    "region": np.int64,
    "code": np.int64,
    "bits": np.int64,
    "temperature": np.float64,
    "noise_sigma": np.float64,
    "noise_seed": np.uint64,
}


@dataclass(frozen=True, eq=False)
class CrpDataset:
    """Reads as equal-length 1-D columns (see ``COLUMNS``) plus metadata.

    Columns are converted to their dtype and checked on construction: a
    row that ``ResponseWord``, ``Conditions`` or ``Challenge`` rejects
    makes this raise their error for the first such row, and a noise seed
    outside [0, 2**64) is refused rather than wrapped.
    """

    chip_id: np.ndarray
    challenge: np.ndarray
    region: np.ndarray
    code: np.ndarray
    bits: np.ndarray
    temperature: np.ndarray
    noise_sigma: np.ndarray
    noise_seed: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, dtype in COLUMNS.items():
            values = getattr(self, name)
            if name == "noise_seed":
                values = _seed_column(values)
            try:
                object.__setattr__(self, name, np.asarray(values, dtype=dtype))
            except OverflowError as exc:
                raise ValueError(f"{name}: {exc}") from None
        shapes = {name: getattr(self, name).shape for name in COLUMNS}
        if len(set(shapes.values())) != 1 or self.chip_id.ndim != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes {shapes}")
        bad = (self.region < 1) | (self.region >= 1 << REGION_FIELD_BITS)
        bad |= (self.bits < 1) | (self.bits > CODE_FIELD_BITS)
        bad |= (self.code < 0) | (self.code >= 1 << self.bits)
        bad |= ~((self.temperature >= -20.0) & (self.temperature <= 100.0) & (self.noise_sigma >= 0))
        bad |= (self.challenge < 0) | (self.challenge >= 1 << CHALLENGE_BITS)
        if bad.any():
            # raise the scalar types' error, in the order a record was once built
            i = int(np.argmax(bad))
            ResponseWord(self.region[i].item(), self.code[i].item(), self.bits[i].item())
            Conditions(self.temperature[i].item(), self.noise_sigma[i].item())
            Challenge(self.challenge[i].item())
            raise AssertionError(f"row {i} is valid, but the column checks reject it")

    def __len__(self) -> int:
        return len(self.chip_id)

    @cached_property
    def _chips(self) -> tuple[list[str], np.ndarray]:
        """Distinct chip ids in first-appearance order, and each row's index into them."""
        ids, first, inverse = np.unique(self.chip_id, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(ids))
        return ids[order].tolist(), rank[inverse.reshape(-1)]

    @property
    def chip_ids(self) -> list[str]:
        """Distinct chip ids in first-appearance order."""
        return list(self._chips[0])

    def take(self, rows: np.ndarray, metadata: dict) -> CrpDataset:
        """The dataset of the selected rows (a mask or indices), order kept."""
        return CrpDataset(**{name: getattr(self, name)[rows] for name in COLUMNS}, metadata=metadata)

    def for_chip(self, chip_id: str) -> CrpDataset:
        """One chip's rows, metadata kept."""
        ids, chip = self._chips
        if chip_id not in ids:
            raise ValueError(f"no records for chip {chip_id!r}")
        return self.take(chip == ids.index(chip_id), dict(self.metadata))


def _seed_column(values) -> np.ndarray:
    """Noise seeds as uint64; numpy would wrap or overflow on one outside [0, 2**64)."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    for seed in values:
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"noise_seed must be in [0, 2**64), got {seed}")
    return np.array(values, dtype=np.uint64)


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


def generate(
    chips: list[ChipInstance],
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    challenges: list[int],
    conditions: Conditions,
) -> CrpDataset:
    """Read every chip at every challenge word in one batch.

    Records are emitted chip-major in the order given, challenge order
    preserved within a chip.  The same arguments always produce the same
    dataset, noise included.  Each value equals the scalar route's:
    ``record_seed`` for the seed, a ``default_rng(seed).normal`` draw for
    the noise, then ``evaluate`` and ``convert``.  Bad input raises the
    scalar route's error: a negative noise seed, then a challenge outside
    [0, 255], then the first voltage ``convert`` rejects.
    """
    if not chips:
        raise ValueError("need at least one chip")
    if not challenges:
        raise ValueError("need at least one challenge")
    _seed_words(conditions.noise_seed)  # a negative seed fails, noisy or not
    words = np.asarray(challenges, dtype=np.int64).reshape(-1)
    bad = (words < 0) | (words >= 1 << CHALLENGE_BITS)
    if bad.any():
        Challenge(int(words[np.argmax(bad)]))  # raises
    chip_ids = [c.chip_id for c in chips]
    seeds = _record_seeds(conditions.noise_seed, chip_ids, words)
    noise = None
    if conditions.noise_sigma > 0.0:
        sigma = conditions.noise_sigma
        noise = np.array(
            [np.random.default_rng(s).normal(0.0, sigma) for s in seeds.ravel().tolist()]
        ).reshape(seeds.shape)
    volts = evaluate_array(model, chips, words, conditions, noise)
    region, code, bits = convert_array(adc_config, spec, volts)
    n = seeds.size
    meta = {
        "temperature": conditions.temperature,
        "noise_sigma": conditions.noise_sigma,
        "noise_seed": conditions.noise_seed,
        "n_chips": len(chips),
        "n_challenges": len(challenges),
    }
    return CrpDataset(
        chip_id=np.repeat(chip_ids, len(words)),
        challenge=np.tile(words, len(chips)),
        region=region.ravel(),
        code=code.ravel(),
        bits=bits.ravel(),
        temperature=np.full(n, conditions.temperature),
        noise_sigma=np.full(n, conditions.noise_sigma),
        noise_seed=seeds.ravel(),
        metadata=meta,
    )


def bits_matrix(dataset: CrpDataset) -> np.ndarray:
    """Encoded responses as an (n, 11) int8 matrix."""
    return word_bits(dataset.region, dataset.code)


def _refuse_repeated_reads(dataset: CrpDataset, metric: str) -> None:
    """Raise naming the first row that repeats an earlier (chip, challenge)."""
    key = (dataset._chips[1] << CHALLENGE_BITS) | dataset.challenge
    _, first = np.unique(key, return_index=True)
    if len(first) < len(key):
        repeat = np.ones(len(key), dtype=bool)
        repeat[first] = False
        i = int(np.argmax(repeat))
        raise ValueError(
            f"{metric} needs one read per (chip, challenge), but chip "
            f"{dataset.chip_id[i].item()!r} has more than one read of challenge "
            f"{dataset.challenge[i]}"
        )


def uniqueness(dataset: CrpDataset, bit_positions: list[int] | None = None) -> float:
    """Mean pairwise fractional HD between chips over shared challenges.

    bit_positions restricts the comparison to a subset of the 11 response
    bits (for example code bits only); default is all of them.  Pair
    distances come from one (chips x chips) product of the 0/1 response
    matrix, so memory grows with chips, not with chip pairs; the counts
    are exact in float64, so every pair's value is the exact fraction.
    """
    ids, chip = dataset._chips
    if len(ids) < 2:
        raise ValueError(f"uniqueness needs >= 2 chips, got {len(ids)}")
    _refuse_repeated_reads(dataset, "uniqueness")
    read = np.zeros((len(ids), 1 << CHALLENGE_BITS), dtype=bool)
    read[chip, dataset.challenge] = True
    common = read.all(axis=0)
    if not common.any():
        raise ValueError("chips share no common challenges")
    table = np.zeros((len(ids), 1 << CHALLENGE_BITS, WORD_BITS), dtype=np.int8)
    table[chip, dataset.challenge] = bits_matrix(dataset)
    x = table[:, common]  # (chips, common challenges, 11)
    if bit_positions is not None:
        x = x[:, :, bit_positions]
    x = x.reshape(len(ids), -1).astype(np.float64)
    ones = x.sum(axis=1)
    distance = (ones[:, None] + ones[None, :] - 2.0 * (x @ x.T)) / x.shape[1]
    return float(distance[np.triu_indices(len(ids), k=1)].mean())


def uniformity(dataset: CrpDataset, chip_id: str) -> float:
    """Fraction of ones across one chip's encoded responses."""
    chip = dataset.for_chip(chip_id)
    _refuse_repeated_reads(chip, "uniformity")
    return float(bits_matrix(chip).mean())


def bit_aliasing(dataset: CrpDataset) -> np.ndarray:
    """Per-position mean bit value pooled over all records (length 11).

    With a single challenge in the dataset this is the classic
    across-chip aliasing figure; with many challenges it pools over
    challenges as well.
    """
    if len(dataset.chip_ids) < 2:
        raise ValueError("bit_aliasing needs >= 2 chips")
    _refuse_repeated_reads(dataset, "bit_aliasing")
    return bits_matrix(dataset).mean(axis=0)


def reliability(
    chips: list[ChipInstance],
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    test_conditions: list[Conditions],
) -> list[float]:
    """Per chip, in order: 1 - mean encoded HD between reference and stressed reads.

    The reference is a noise-free read at 25 degC.  All 256 challenges
    are compared under every test condition, with one ``generate`` call
    per condition for the whole population.
    """
    if not test_conditions:
        raise ValueError("need at least one test condition")
    words = list(range(1 << CHALLENGE_BITS))

    def read_bits(cond: Conditions) -> np.ndarray:
        dataset = generate(chips, model, spec, adc_config, words, cond)
        return bits_matrix(dataset).reshape(len(chips), -1)

    ref_bits = read_bits(Conditions(temperature=25.0, noise_sigma=0.0))
    total = np.zeros(len(chips))
    for cond in test_conditions:
        total += (read_bits(cond) != ref_bits).mean(axis=1)
    return (1.0 - total / len(test_conditions)).tolist()


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


# challenge is serialized as 2-digit hex; noise_sigma rides along so a
# loaded record reconstructs its conditions value-exactly.
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


_ENCODED = [format(w, f"0{WORD_BITS}b") for w in range(1 << WORD_BITS)]


def _rows(dataset: CrpDataset):
    """Each record's ``CSV_FIELDS`` values as Python scalars, so floats print as repr."""
    word = (dataset.region << CODE_FIELD_BITS) | dataset.code
    return zip(
        dataset.chip_id.tolist(),
        [format(c, "02x") for c in dataset.challenge.tolist()],
        dataset.region.tolist(),
        dataset.code.tolist(),
        dataset.bits.tolist(),
        [_ENCODED[w] for w in word.tolist()],
        dataset.temperature.tolist(),
        dataset.noise_sigma.tolist(),
        dataset.noise_seed.tolist(),
    )


def _from_rows(rows: list[dict], metadata: dict) -> CrpDataset:
    """A dataset from CSV or JSONL rows; ``CrpDataset`` checks every column.

    A row without a field, or with a null one, or whose ``encoded`` field
    is not its (region, code), raises a ``ValueError`` naming it, rows
    counted from 1.
    """

    def column(name: str, parse=int) -> list:
        values = [row.get(name) for row in rows]
        if None in values:
            raise ValueError(f"row {values.index(None) + 1} has no {name!r} field")
        try:
            return [parse(value) for value in values]
        except TypeError as exc:
            raise ValueError(f"{name}: {exc}") from None

    dataset = CrpDataset(
        chip_id=column("chip_id", str),
        challenge=column("challenge", lambda s: int(s, 16)),
        region=column("region"),
        code=column("code"),
        bits=column("bits"),
        temperature=column("temperature", float),
        noise_sigma=column("noise_sigma", float),
        noise_seed=column("noise_seed"),
        metadata=metadata,
    )
    word = (dataset.region << CODE_FIELD_BITS) | dataset.code
    for i, (got, w) in enumerate(zip(column("encoded", str), word.tolist())):
        if got != _ENCODED[w]:
            raise ValueError(
                f"row {i + 1} has encoded {got!r}, but its region and code are {_ENCODED[w]!r}"
            )
    return dataset


def save_csv(dataset: CrpDataset, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(_rows(dataset))


def load_csv(path: str | Path) -> CrpDataset:
    with open(path, newline="") as fh:
        return _from_rows(list(csv.DictReader(fh)), {})


def save_jsonl(dataset: CrpDataset, path: str | Path) -> None:
    with open(path, "w") as fh:
        if dataset.metadata:
            fh.write(json.dumps({"_meta": dataset.metadata}, sort_keys=True) + "\n")
        for row in _rows(dataset):
            fh.write(json.dumps(dict(zip(CSV_FIELDS, row)), sort_keys=True) + "\n")


def load_jsonl(path: str | Path) -> CrpDataset:
    rows: list[dict] = []
    metadata: dict = {}
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError(f"row {len(rows) + 1} is not a JSON object: {line.strip()!r}")
            if "_meta" in doc:
                metadata = doc["_meta"]
            else:
                rows.append(doc)
    return _from_rows(rows, metadata)

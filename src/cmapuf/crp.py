"""Challenge-response datasets and the standard quality metrics.

A dataset is a set of equal-length columns, one row per read: chip,
challenge, the response (region, code, precision) and the conditions of
the read.  Noise is reproducible per record: the generator seed is
derived from (dataset noise seed, chip id, challenge word), and the
record's noise is ``np.random.default_rng(seed).normal(0, sigma)``, so
re-generating any single record gives the same bits without replaying
the whole dataset.

``generate`` is the one batched read, chips x challenge words straight
to columns; ``reliability`` re-reads a population through it, once per
condition.  It runs one kernel per stage: ``_record_seeds`` for the noise
seeds, ``_record_noise`` for their draws, ``cellarray.evaluate_array`` for
the voltages and ``adc.convert_array`` for the words.  The first two run
numpy's seed-sequence mix elementwise over the whole batch
(``_seed_sequence_state``), so no record builds a generator of its own;
``_record_noise`` is the one draw of a record's noise.  The scalar
``record_seed``, ``cellarray.evaluate`` and ``adc.convert`` are one element
of those kernels, and ``cellarray.decode`` is the one challenge check.

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
    word_strings,
)
from .analog import Conditions, TransferModel
from .cellarray import CHALLENGE_BITS, decode, evaluate_array
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
    row that ``ResponseWord``, ``Conditions`` or ``decode`` rejects makes
    this raise their error for the first such row, and a noise seed
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
        # the first bad row raises, checked in the order a record was once
        # built: its response word, its conditions, then its challenge
        i = int(np.argmax(bad)) if bad.any() else len(bad)
        decode(self.challenge[:i])
        if i < len(bad):
            ResponseWord(self.region[i].item(), self.code[i].item(), self.bits[i].item())
            Conditions(self.temperature[i].item(), self.noise_sigma[i].item())
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
    """Derived noise seed for one (chip, challenge) read: one element of ``_record_seeds``."""
    decode(challenge)
    return int(_record_seeds(base_seed, [chip_id], np.array([challenge]))[0, 0])


# The hash constants of numpy's seed sequence, for ``_seed_sequence_state``.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, for ``_record_noise``.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(n: int) -> list[int]:
    """An entropy integer as numpy's seed sequence reads it: little-endian uint32 words."""
    if n < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int):
    """The seed sequence's hash constants, (xor, multiply) per step: data independent."""
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


def _seed_sequence_state(entropy: list, n_words: int) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)``, elementwise.

    ``entropy`` is the uint32 words, each an array (or scalar) broadcast to
    one shape; the result is ``n_words`` uint64 arrays of that shape.  The
    pool mix is a fixed sequence of uint32 operations with data-independent
    constants, so it runs over every element at once.  An entropy shorter
    than the pool is padded with zero words, as numpy pads it.
    """
    shape = np.broadcast_shapes(*(np.shape(e) for e in entropy))
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
    # the output cycles through the pool; each uint64 is two uint32 words, low word first
    consts = _hash_consts(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], consts) for i in range(2 * n_words)]
    return [
        low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))
        for low, high in zip(words[::2], words[1::2])
    ]


def _record_seeds(base_seed: int, chip_ids: list[str], words: np.ndarray) -> np.ndarray:
    """Noise seeds of every (chip, word) pair at once, as (chips, words) uint64.

    Each is the first uint64 numpy's seed sequence draws from the entropy
    ``[base_seed, crc32(chip_id), word]``.  The callers check the words.
    """
    crcs = np.array([zlib.crc32(c.encode()) for c in chip_ids], dtype=np.uint32)[:, None]
    entropy = [np.uint32(w) for w in _seed_words(base_seed)]
    entropy += [crcs, np.asarray(words).astype(np.uint32)[None, :]]
    return _seed_sequence_state(entropy, 1)[0]


def _record_noise(seeds: np.ndarray, sigma: float) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, sigma)`` of every uint64 seed, same shape.

    ``default_rng(seed)`` seeds PCG64 from ``SeedSequence(seed).generate_state(4,
    np.uint64)``, which ``_seed_sequence_state`` gives for all seeds at once
    (a seed below 2**32 is one entropy word; the zero high word mixes in as
    the pool's padding does).  The first pair of words, high word first, is
    the LCG's initial state, the second its stream.  PCG64's own seeding, two
    LCG steps, runs here in Python ints, and one reused generator draws each
    record's normal from the state it leaves.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [(seeds >> np.uint64(shift)).astype(np.uint32) for shift in (0, 32)]
    init_hi, init_lo, seq_hi, seq_lo = (
        w.ravel().tolist() for w in _seed_sequence_state(entropy, 4)
    )
    # PCG64's seeding: inc = initseq << 1 | 1, then from state 0 an LCG step,
    # + initstate, and a second step
    incs = [((hi << 65) | (lo << 1) | 1) & _MASK128 for hi, lo in zip(seq_hi, seq_lo)]
    states = [
        ((inc + ((hi << 64) | lo)) * _PCG64_MULT + inc) & _MASK128
        for inc, hi, lo in zip(incs, init_hi, init_lo)
    ]
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    bit_generator = np.random.PCG64(0)
    normal = np.random.Generator(bit_generator).normal
    noise = []
    for state, inc in zip(states, incs):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full
        noise.append(normal(0.0, sigma))
    return np.array(noise, dtype=np.float64).reshape(seeds.shape)


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
    dataset, noise included: each record's noise equals
    ``default_rng(seed).normal(0, sigma)`` of its own derived seed, drawn
    for the whole batch by ``_record_noise``.  Bad input raises for a
    negative noise seed, then for a challenge outside [0, 255]
    (``evaluate_array``), then for the first voltage ``convert_array``
    rejects.
    """
    if not chips:
        raise ValueError("need at least one chip")
    if not challenges:
        raise ValueError("need at least one challenge")
    _seed_words(conditions.noise_seed)  # a negative seed fails, noisy or not
    words = np.asarray(challenges, dtype=np.int64).reshape(-1)
    chip_ids = [c.chip_id for c in chips]
    seeds = _record_seeds(conditions.noise_seed, chip_ids, words)
    noise = None
    if conditions.noise_sigma > 0.0:
        noise = _record_noise(seeds, conditions.noise_sigma)
    volts = evaluate_array(model, chips, words, conditions.temperature, noise)
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
    """Bundle of dataset metrics; reliability is per chip and optional.

    ``uniqueness_code_bits`` is the uniqueness over the code bits alone;
    it and ``uniqueness`` and ``bit_aliasing`` are None for one chip.
    """

    uniqueness: float | None
    uniformity: dict[str, float]
    bit_aliasing: tuple[float, ...] | None
    reliability: dict[str, float] = field(default_factory=dict)
    uniqueness_code_bits: float | None = None

    def __post_init__(self) -> None:
        vals = list(self.uniformity.values()) + list(self.reliability.values())
        for v in (self.uniqueness, self.uniqueness_code_bits):
            if v is not None:
                vals.append(v)
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


def _rows(dataset: CrpDataset):
    """Each record's ``CSV_FIELDS`` values as Python scalars, so floats print as repr."""
    return zip(
        dataset.chip_id.tolist(),
        [format(c, "02x") for c in dataset.challenge.tolist()],
        dataset.region.tolist(),
        dataset.code.tolist(),
        dataset.bits.tolist(),
        word_strings(dataset.region, dataset.code),
        dataset.temperature.tolist(),
        dataset.noise_sigma.tolist(),
        dataset.noise_seed.tolist(),
    )


def _from_rows(path: str | Path, rows: list[dict], metadata: dict) -> CrpDataset:
    """A dataset from the CSV or JSONL rows of ``path``; ``CrpDataset`` checks every column.

    A file without rows, and a row without a field, or with a null one, or
    whose ``encoded`` field is not its (region, code), raise a ``ValueError``
    naming it, rows counted from 1.
    """
    if not rows:
        raise ValueError(f"{path} holds no records")

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
    words = word_strings(dataset.region, dataset.code)
    for i, (got, word) in enumerate(zip(column("encoded", str), words)):
        if got != word:
            raise ValueError(
                f"row {i + 1} has encoded {got!r}, but its region and code are {word!r}"
            )
    return dataset


def save_csv(dataset: CrpDataset, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(_rows(dataset))


def load_csv(path: str | Path) -> CrpDataset:
    with open(path, newline="") as fh:
        return _from_rows(path, list(csv.DictReader(fh)), {})


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
    return _from_rows(path, rows, metadata)

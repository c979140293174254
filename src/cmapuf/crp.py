"""Challenge-response datasets and the standard quality metrics.

A dataset is a set of equal-length columns, one row per read: chip,
challenge, the response (region, code, precision) and the conditions of
the read.  Noise is reproducible per record: the record's 64-bit seed is
derived from (dataset noise seed, chip id, challenge word), and its noise
is that seed's first two SplitMix64 outputs turned into one normal by
Box-Muller (``_record_noise``), so re-generating any single record gives
the same bits without replaying the whole dataset.  The rule is closed
form and uses no numpy RNG stream, so no numpy release can move it
(NumPy's NEP 19 does not promise ``Generator.normal`` across versions);
only ``log`` and ``cos`` may round a last ulp differently on another CPU
or libm, which moves a bit only for a voltage within an ulp of a boundary.

``generate`` is the one batched read, chips x challenge words straight
to columns; ``reliability`` re-reads a population through it, once per
condition.  It runs one kernel per stage: ``_record_seeds`` for the noise
seeds, ``_record_noise`` for their draws, ``cellarray.evaluate_array`` for
the voltages and ``adc.convert_array`` for the words.  ``_record_seeds``
runs numpy's seed-sequence mix elementwise over the whole batch
(``_seed_sequence_state``), so no record runs a seed sequence of its own.
The scalar ``record_seed``, ``cellarray.evaluate`` and ``adc.convert`` are
one element of those kernels, and ``cellarray.decode`` is the one
challenge check.

Metrics follow the usual fractional-Hamming-distance conventions, and
refuse a dataset with more than one read of a (chip, challenge):

    uniqueness   mean pairwise HD between chips on shared challenges
                 (ideal 0.5 on unbiased bit positions)
    uniformity   fraction of ones in each chip's responses (ideal 0.5)
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
from itertools import chain, islice, repeat, zip_longest
from operator import itemgetter
from pathlib import Path

import numpy as np

from .adc import AdcConfig, convert_array
from .analog import Conditions, TransferModel, check_conditions
from .cellarray import CHALLENGE_BITS, decode, evaluate_array
from .codec import check_range, write_csv
from .quantizer import QuantizerSpec
from .variation import ChipInstance
from .word import REGION_FIELD_BITS, WORD_BITS, WORD_STRINGS, check_words, word_bits, word_index
from .word import word_strings

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
    """Reads as equal-length 1-D columns (see ``COLUMNS``) and nothing else: how the
    records were read is the ``crps`` manifest's, not the dataset's.

    Every column, built, taken or loaded, is converted by ``_column``, which
    names the column's first missing or bad row, then checked by the record
    rules: ``check_words``, then ``check_conditions``, then ``decode``, each
    raising for its first bad row.  Rows may read a (chip, challenge) twice, as
    merged files do; the chip index (``_chips``, ``chip_ids``) refuses that.
    """

    chip_id: np.ndarray
    challenge: np.ndarray
    region: np.ndarray
    code: np.ndarray
    bits: np.ndarray
    temperature: np.ndarray
    noise_sigma: np.ndarray
    noise_seed: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in COLUMNS.items():
            object.__setattr__(self, name, _column(name, getattr(self, name), dtype))
        shapes = {name: getattr(self, name).shape for name in COLUMNS}
        if len(set(shapes.values())) != 1 or self.chip_id.ndim != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes {shapes}")
        check_words(self.region, self.code, self.bits)
        check_conditions(self.temperature, self.noise_sigma)
        decode(self.challenge)

    def __len__(self) -> int:
        return len(self.chip_id)

    @cached_property
    def _chips(self) -> tuple[list[str], np.ndarray]:
        """Distinct chip ids in first-appearance order, and each row's index into them.

        Every metric and attack reads its chips here and scores one read per (chip,
        challenge), so building the index raises for the first row that repeats one."""
        ids, first, inverse = np.unique(self.chip_id, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(ids))
        chip = rank[inverse.reshape(-1)]
        key = (chip << CHALLENGE_BITS) | self.challenge
        _, once = np.unique(key, return_index=True)
        if len(once) < len(key):
            repeat = np.ones(len(key), dtype=bool)
            repeat[once] = False
            i = int(np.argmax(repeat))
            raise ValueError(
                "a metric or an attack needs one read per (chip, challenge), but chip "
                f"{self.chip_id[i].item()!r} has more than one read of challenge "
                f"{self.challenge[i]}"
            )
        return ids[order].tolist(), chip

    @property
    def chip_ids(self) -> list[str]:
        """Distinct chip ids in first-appearance order."""
        return list(self._chips[0])

    def take(self, rows: np.ndarray) -> CrpDataset:
        """The dataset of the selected rows (a mask or indices), order kept."""
        return CrpDataset(**{name: getattr(self, name)[rows] for name in COLUMNS})


def _column(name: str, values, dtype, start: int = 0, parse=None) -> np.ndarray:
    """``values``, each through ``parse`` if given, as a ``dtype`` column: a list judged by its
    values' types, anything else by its array's dtype; a bool is never a number, and a negative
    seed is refused before the unsigned cast, which wraps a numpy integer silently (only a
    Python int raises).  On any fault, one replay over the values as given raises for the first
    row refused on its own, counted from ``start + 1``: a None as a missing field, any other
    value, a numpy scalar named by its Python value, as a bad one."""
    kind = np.dtype(dtype).kind
    takes = set({"U": "U", "f": "iuf"}.get(kind, "iu"))
    try:
        parsed = values if parse is None else list(map(parse, values))
        if isinstance(parsed, (list, tuple)):
            kinds = {np.dtype(t).kind for t in set(map(type, parsed))}
            low = min(parsed, default=0) if kind == "u" else 0
        else:
            parsed = np.asarray(parsed)
            kinds = {parsed.dtype.kind}
            low = parsed.min(initial=0) if kind == "u" else 0
            if kind + parsed.dtype.kind == "iu" and parsed.max(initial=0) > 2**63 - 1:
                raise TypeError  # the int64 cast would wrap it silently
        if not kinds <= takes or low < 0:
            raise TypeError
        return np.asarray(parsed, dtype=dtype)
    except (TypeError, ValueError, KeyError, OverflowError):
        rows = values.reshape(-1).tolist() if isinstance(values, np.ndarray) else values
        if len(rows) == 1:
            value = rows[0].item() if isinstance(rows[0], np.generic) else rows[0]
            fault = f"no {name!r} field" if value is None else f"a bad {name!r} field: {value!r}"
            raise ValueError(f"row {start + 1} has {fault}") from None
        for i, value in enumerate(rows):  # the first value refused on its own raises
            _column(name, [value], dtype, start + i, parse)
        raise


def record_seed(base_seed: int, chip_id: str, challenge: int) -> int:
    """Derived noise seed for one (chip, challenge) read: one element of ``_record_seeds``."""
    decode(challenge)
    check_range("base_seed", base_seed, 0, 2**64 - 1, integer=True)
    return int(_record_seeds(base_seed, [chip_id], np.array([challenge]))[0, 0])


# The hash constants of numpy's seed sequence, for ``_seed_sequence_state``.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


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


def _seed_sequence_state(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(1, np.uint64)[0]``, elementwise.

    ``entropy`` is at most ``_POOL_SIZE`` uint32 words, each an array (or
    scalar) broadcast to one shape; the result is uint64 of that shape.  The
    pool mix is a fixed sequence of uint32 operations with data-independent
    constants, so it runs over every element at once.  An entropy shorter
    than the pool is padded with zero words, as numpy pads it.
    """
    shape = np.broadcast_shapes(*(np.shape(e) for e in entropy))
    entropy = [np.broadcast_to(e, shape) for e in entropy]
    entropy += [np.zeros(shape, np.uint32)] * (_POOL_SIZE - len(entropy))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(e, consts) for e in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    # the first output uint64 is the hashes of pool words 0 and 1, low word first
    consts = _hash_consts(_INIT_B, _MULT_B)
    low, high = (_hashmix(pool[i], consts).astype(np.uint64) for i in range(2))
    return low | (high << np.uint64(32))


def _record_seeds(base_seed: int, chip_ids: list[str], words: np.ndarray) -> np.ndarray:
    """Noise seeds of every (chip, word) pair at once, as (chips, words) uint64.

    Each is the first uint64 numpy's seed sequence draws from the entropy
    ``[base_seed, crc32(chip_id), word]``, the base read as one little-endian uint32
    word below 2**32, else two.  The callers check the words and the base, below 2**64.
    """
    crcs = np.array([zlib.crc32(c.encode()) for c in chip_ids], dtype=np.uint32)[:, None]
    high, low = divmod(int(base_seed), 1 << 32)
    entropy = [np.uint32(w) for w in ([low, high] if high else [low])]
    entropy += [crcs, np.asarray(words).astype(np.uint32)[None, :]]
    return _seed_sequence_state(entropy)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state increment and the mix multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_A, _SPLITMIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of each uint64 state, wrapping mod 2**64."""
    z = (state ^ (state >> np.uint64(30))) * _SPLITMIX_A
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_B
    return z ^ (z >> np.uint64(31))


def _record_noise(seeds: np.ndarray, sigma: float) -> np.ndarray:
    """Each uint64 record seed's normal of standard deviation sigma, same shape.

    The first two SplitMix64 outputs of the seed, ``z1`` and ``z2``, give
    53-bit uniforms ``u1 = ((z1 >> 11) + 1) / 2**53`` in (0, 1], so the log
    is finite, and ``u2 = (z2 >> 11) / 2**53`` in [0, 1); Box-Muller then
    gives ``sigma * sqrt(-2 log u1) * cos(2 pi u2)``.  The steps run on the
    seeds as a 1-D array: a 0-d seed would take numpy's scalar arithmetic,
    which warns when a multiply wraps.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    state = seeds.reshape(-1) + _GAMMA
    z1, z2 = _splitmix64(state), _splitmix64(state + _GAMMA)
    u1 = ((z1 >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (z2 >> np.uint64(11)) * 2.0**-53
    noise = sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return noise.reshape(seeds.shape)


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
    dataset, noise included: each record's noise is ``_record_noise`` of its
    own derived seed, ``sigma * sqrt(-2 log u1) * cos(2 pi u2)`` with ``u1``
    and ``u2`` the seed's first two SplitMix64 outputs as 53-bit uniforms,
    drawn for the whole batch at once.  Bad input raises for a challenge
    outside [0, 255] (``evaluate_array``), then for the first voltage
    ``convert_array`` rejects; ``Conditions`` refuses a noise seed outside
    [0, 2**64).
    """
    if not chips:
        raise ValueError("need at least one chip")
    if len(challenges) == 0:
        raise ValueError("need at least one challenge")
    decode(challenges)  # before the seeds read the words
    words = np.asarray(challenges, dtype=np.int64).reshape(-1)
    chip_ids = [c.chip_id for c in chips]
    seeds = _record_seeds(conditions.noise_seed, chip_ids, words)
    noise = None
    if conditions.noise_sigma > 0.0:
        noise = _record_noise(seeds, conditions.noise_sigma)
    volts = evaluate_array(model, chips, words, conditions.temperature, noise)
    region, code, bits = convert_array(adc_config, spec, volts)
    n = seeds.size
    return CrpDataset(
        chip_id=np.repeat(chip_ids, len(words)),
        challenge=np.tile(words, len(chips)),
        region=region.ravel(),
        code=code.ravel(),
        bits=bits.ravel(),
        temperature=np.full(n, conditions.temperature),
        noise_sigma=np.full(n, conditions.noise_sigma),
        noise_seed=seeds.ravel(),
    )


def bits_matrix(dataset: CrpDataset) -> np.ndarray:
    """Encoded responses as an (n, 11) int8 matrix."""
    return word_bits(dataset.region, dataset.code)


def uniqueness(dataset: CrpDataset, code_bits: bool = False) -> float:
    """Mean pairwise fractional HD between chips over shared challenges.

    Over all 11 response bits, or with code_bits over the eight code bits
    alone, the region field left out.  Pair distances come from one (chips
    x chips) product of the 0/1 response matrix, so memory grows with the
    square of the chip count: the product, the distance matrix and its
    upper-triangle indices each hold one entry per chip pair or more.  The
    counts are exact in float64, so every pair's value is the exact fraction.
    """
    ids, chip = dataset._chips
    if len(ids) < 2:
        raise ValueError(f"uniqueness needs >= 2 chips, got {len(ids)}")
    read = np.zeros((len(ids), 1 << CHALLENGE_BITS), dtype=bool)
    read[chip, dataset.challenge] = True
    common = read.all(axis=0)
    if not common.any():
        raise ValueError("chips share no common challenges")
    table = np.zeros((len(ids), 1 << CHALLENGE_BITS, WORD_BITS), dtype=np.int8)
    table[chip, dataset.challenge] = bits_matrix(dataset)
    x = table[:, common]  # (chips, common challenges, 11)
    if code_bits:
        x = x[:, :, REGION_FIELD_BITS:]
    x = x.reshape(len(ids), -1).astype(np.float64)
    ones = x.sum(axis=1)
    distance = (ones[:, None] + ones[None, :] - 2.0 * (x @ x.T)) / x.shape[1]
    return float(distance[np.triu_indices(len(ids), k=1)].mean())


def uniformity(dataset: CrpDataset) -> dict[str, float]:
    """Per chip, in first-appearance order: the fraction of ones in its encoded responses.

    The counts are exact, so each is the float ``bits_matrix(chip_rows).mean()`` gives.
    """
    ids, chip = dataset._chips
    ones = np.bincount(chip, weights=bits_matrix(dataset).sum(axis=1), minlength=len(ids))
    reads = np.bincount(chip, minlength=len(ids))
    return dict(zip(ids, (ones / (reads * WORD_BITS)).tolist()))


def bit_aliasing(dataset: CrpDataset) -> np.ndarray:
    """Per-position mean bit value pooled over all records (length 11).

    With a single challenge in the dataset this is the classic
    across-chip aliasing figure; with many challenges it pools over
    challenges as well.
    """
    if len(dataset.chip_ids) < 2:
        raise ValueError("bit_aliasing needs >= 2 chips")
    return bits_matrix(dataset).mean(axis=0)


def reliability(
    chips: list[ChipInstance],
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    test_conditions: list[Conditions],
) -> list[float]:
    """Per chip, in order: 1 - mean encoded HD between reference and stressed reads.

    The reference is the ``Conditions()`` read: noise-free at ``analog.TEMP_REF``.
    All 256 challenges are compared under every test condition, with one
    ``generate`` call per condition for the whole population.
    """
    if not test_conditions:
        raise ValueError("need at least one test condition")
    words = list(range(1 << CHALLENGE_BITS))

    def read_bits(cond: Conditions) -> np.ndarray:
        dataset = generate(chips, model, spec, adc_config, words, cond)
        return bits_matrix(dataset).reshape(len(chips), -1)

    ref_bits = read_bits(Conditions())
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
        vals = [*self.uniformity.values(), *self.reliability.values(), *(self.bit_aliasing or ())]
        vals += [v for v in (self.uniqueness, self.uniqueness_code_bits) if v is not None]
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
# Each challenge word's two hex digits, as the savers write them.
_HEX = [format(c, "02x") for c in range(1 << CHALLENGE_BITS)]


class _HexWords(dict):
    """The challenge words by their saved hex; any other value as ``int(value, 16)``
    reads it, or refuses it."""

    def __missing__(self, value):
        return int(value, 16)


# How a loader parses a field: a CSV field is text, a JSONL field its own JSON value, the
# challenge hex and the encoded word its 11-bit string, read as ``region << 8 | code``, in both.
# ``_column`` then checks each parsed value's kind.
_CSV_PARSE = dict(challenge=_HexWords(zip(_HEX, range(len(_HEX)))).__getitem__,
                  encoded=dict(zip(WORD_STRINGS, range(len(WORD_STRINGS)))).__getitem__)
_JSONL_PARSE = dict(_CSV_PARSE)
_CSV_PARSE |= dict(region=int, code=int, bits=int, temperature=float, noise_sigma=float,
                   noise_seed=int)
# A ``save_jsonl`` record line is ``json.dumps(record, sort_keys=True)`` as a template over
# the record's fields in sorted order: the chip id comes escaped by ``json.dumps``, the
# challenge and encoded word are hex and binary digits, and numbers print as their repr.
_JSONL_RECORD = "{" + ", ".join(
    f'"{name}": ' + {"chip_id": "%s", "challenge": '"%s"', "encoded": '"%s"'}.get(name, "%r")
    for name in sorted(CSV_FIELDS)
) + "}\n"
# records a loader holds as raw fields at once; each chunk pays nine ``_column`` calls.  On
# 6,400-record files (2-vCPU x86_64, best of 40 interleaved loads, two runs) 256 loaded
# fastest in both formats: JSONL 25.0-25.4 ms against 25.4-28.5 at 64, 512 or 1,024, and
# CSV 18.9-19.9 ms against 20.3-23.0
_CHUNK = 256
_FIELD_GETTERS = [itemgetter(name) for name in CSV_FIELDS]
_scan_once = json.JSONDecoder().scan_once


def _columns(dataset: CrpDataset) -> dict[str, list]:
    """Each ``CSV_FIELDS`` column as Python scalars, so floats print as repr."""
    columns = {name: getattr(dataset, name).tolist() for name in COLUMNS}
    columns["challenge"] = list(map(_HEX.__getitem__, columns["challenge"]))
    columns["encoded"] = word_strings(dataset.region, dataset.code)
    return columns


def _load(path: str | Path, chunks, parsers: dict) -> CrpDataset:
    """A dataset from ``path``'s records, given as chunks of raw fields, one sequence per
    ``CSV_FIELDS`` name, None where a record lacks the field.

    Each chunk's fields go through ``_column`` with their parser in ``parsers``, if any, the
    ``encoded`` word as its index, before the next chunk is read, so the first fault in
    (chunk, field, row) order raises; ``CrpDataset`` then checks the joined columns.  No
    records, and an ``encoded`` word unlike the record's (region, code), raise, the latter
    naming the record from 1.
    """
    parts: dict[str, list] = {name: [] for name in CSV_FIELDS}
    start = 0
    for chunk in chunks:
        for name in CSV_FIELDS:
            dtype = COLUMNS.get(name, np.int64)
            parts[name].append(_column(name, chunk[name], dtype, start, parsers.get(name)))
        start += len(chunk["chip_id"])
    if not start:
        raise ValueError(f"{path} holds no records")
    encoded = np.concatenate(parts.pop("encoded"))
    dataset = CrpDataset(**{name: np.concatenate(parts.pop(name)) for name in COLUMNS})
    words = word_index(dataset.region, dataset.code)
    if (encoded != words).any():
        i = int(np.argmax(encoded != words))
        raise ValueError(f"row {i + 1} has encoded {WORD_STRINGS[encoded[i]]!r}, but its "
                         f"region and code are {WORD_STRINGS[words[i]]!r}")
    return dataset


def _chunks(items):
    """Lists of up to ``_CHUNK`` of an iterator's items, in order."""
    return iter(lambda: list(islice(items, _CHUNK)), [])


def save_csv(dataset: CrpDataset, path: str | Path) -> None:
    columns = _columns(dataset)
    write_csv(path, CSV_FIELDS, zip(*(columns[name] for name in CSV_FIELDS)))


def load_csv(path: str | Path) -> CrpDataset:
    """Read a ``save_csv`` file by header name, a chunk of records per ``zip_longest``: blank
    lines are skipped, a field the header lacks or a short record stops before is missing, one
    past the header ignored.  A header that names a field twice is refused, and a byte-order
    mark that starts the file is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in CSV_FIELDS:
            if header.count(name) > 1:
                raise ValueError(f"{path} has more than one {name!r} column")
        # fields past the header are cut, so slot len(header), for a field the header lacks,
        # reads all None, as does every slot that all of a chunk's records stop before
        index = {name: i for i, name in enumerate(header)}
        slots = {name: index.get(name, len(header)) for name in CSV_FIELDS}

        def chunks():
            for rows in _chunks(filter(None, reader)):
                fields = list(islice(zip_longest(*rows), len(header)))
                fields += [(None,) * len(rows)] * (len(header) + 1 - len(fields))
                yield {name: fields[i] for name, i in slots.items()}

        return _load(path, chunks(), _CSV_PARSE)


def save_jsonl(dataset: CrpDataset, path: str | Path) -> None:
    columns = _columns(dataset)
    escaped = {chip_id: json.dumps(chip_id) for chip_id in set(columns["chip_id"])}
    columns["chip_id"] = list(map(escaped.__getitem__, columns["chip_id"]))
    rows = zip(*(columns[name] for name in sorted(CSV_FIELDS)))
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in _chunks(rows):  # one format call per chunk
            fh.write(_JSONL_RECORD * len(chunk) % tuple(chain.from_iterable(chunk)))


def _jsonl_fields(lines: list[str]) -> list[list] | None:
    """A chunk's ``CSV_FIELDS`` columns when each of its lines, each ending in a newline, is
    one JSON object from its first character to that newline, holding every field and no more
    colons than keys; else None.  A line's object ends at least one character before its end,
    and every key has a colon of its own, so the chunk's totals match only when every line's
    do: a line that matches repeats no key."""
    try:  # a line the scanner finds no value in ends its map early, so ``ends`` comes up short
        docs, ends = zip(*map(_scan_once, lines, repeat(0)))
        fields = [list(map(field, docs)) for field in _FIELD_GETTERS]
    except (ValueError, KeyError, TypeError):
        return None
    text = "".join(lines)
    if (len(ends) == len(lines) and len(text) - sum(ends) == len(lines)
            and text.count(":") == sum(map(len, docs))):
        return fields
    return None


class _Record(dict):
    """A JSON object as ``json.loads`` builds it through ``object_pairs_hook``, with
    ``repeated``, the first key it names a second time, or None."""

    __slots__ = ("repeated",)

    def __init__(self, pairs: list) -> None:
        super().__init__(pairs)
        self.repeated = None
        if len(self) < len(pairs):  # only a repeat makes the dict shorter than its pairs
            keys = [key for key, _ in pairs]
            self.repeated = next(key for i, key in enumerate(keys) if key in keys[:i])


def load_jsonl(path: str | Path) -> CrpDataset:
    """Read a ``save_jsonl`` file: one JSON object per record.  A line whose only key is
    ``_meta``, which older files led with, is skipped unread; it is not a record.

    A record that names a key twice is refused, where ``json.loads`` keeps the last value.  A
    chunk's lines are decoded by json's C scanner in one pass, each from its first
    character, and transposed by one ``itemgetter`` map per field; a chunk where that fails
    for any line (space around a value, a line that is not an object, a missing field, a
    ``_meta`` line, more colons than keys) is read again line by line, each line decoded once
    by ``json.loads`` into a ``_Record``, which notes a repeated key.  A byte-order mark that
    starts the file is skipped."""

    def chunks(fh):
        n = 0
        for lines in _chunks(fh):
            if not lines[-1].endswith("\n"):  # the file's last line reads alike with one
                lines[-1] += "\n"
            fields = _jsonl_fields(lines)
            if fields is not None:
                n += len(lines)
                yield dict(zip(CSV_FIELDS, fields))
                continue
            records = []
            for line in lines:
                try:
                    doc = json.loads(line, object_pairs_hook=_Record)
                except ValueError:
                    doc = None
                if not isinstance(doc, dict):
                    raise ValueError(
                        f"row {n + len(records) + 1} is not a JSON object: {line.strip()!r}"
                    )
                if doc.keys() != {"_meta"}:
                    if doc.repeated is not None:
                        raise ValueError(
                            f"row {n + len(records) + 1} repeats the {doc.repeated!r} key"
                        )
                    records.append(doc)
            n += len(records)
            yield {name: [doc.get(name) for doc in records] for name in CSV_FIELDS}

    with open(path, encoding="utf-8-sig") as fh:
        return _load(path, chunks(fh), _JSONL_PARSE)

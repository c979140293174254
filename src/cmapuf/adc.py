"""Single-slope conversion of a cell voltage into the 11-bit response word.

The converter ramps a counter while a comparator watches the cell
voltage, so a b-bit conversion costs 2**b clock cycles.  Because the
quantizer assigns fewer bits to sparse regions, mid-range voltages
convert in a quarter of the cycles of rail-adjacent ones.

A response word is region number plus in-region code, packed as a fixed
11-bit string: 3 region bits followed by the code, zero-padded on the
left to 8 bits.  The per-cycle energy of the converter is power / clock,
and a handful of published reference points are kept here for the energy
comparison command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quantizer import QuantizerSpec, region_index_array, region_of

REGION_FIELD_BITS = 3
CODE_FIELD_BITS = 8
WORD_BITS = REGION_FIELD_BITS + CODE_FIELD_BITS


class Comparator(Enum):
    """Which of the two rail-referenced comparators handles a conversion."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class AdcConfig:
    vdd: float = 1.8
    clock_freq: float = 6.4e9
    power: float = 306.54e-6
    comparator_residual_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.vdd > 0.0:  # NaN fails too
            raise ValueError(f"vdd must be > 0, got {self.vdd}")
        if not self.clock_freq > 0.0:
            raise ValueError(f"clock_freq must be > 0, got {self.clock_freq}")
        if not self.power >= 0.0:
            raise ValueError(f"power must be >= 0, got {self.power}")


@dataclass(frozen=True)
class ResponseWord:
    """One converted readout: 1-based region number, code, and precision."""

    region: int
    code: int
    bits: int

    def __post_init__(self) -> None:
        if not (1 <= self.region < 1 << REGION_FIELD_BITS):
            raise ValueError(f"region must be in [1, 7], got {self.region}")
        if not (1 <= self.bits <= CODE_FIELD_BITS):
            raise ValueError(f"bits must be in [1, 8], got {self.bits}")
        if not (0 <= self.code < 1 << self.bits):
            raise ValueError(f"code must fit in {self.bits} bits, got {self.code}")

    @property
    def encoded(self) -> str:
        return encode_word(self)


def encode_word(word: ResponseWord) -> str:
    """Pack a response as 3 region bits plus the left-zero-padded code."""
    return format(word.region, f"0{REGION_FIELD_BITS}b") + format(
        word.code, f"0{CODE_FIELD_BITS}b"
    )


def decode_word(encoded: str, bits_per_region: tuple[int, ...]) -> ResponseWord:
    """Inverse of ``encode_word`` for a given region/precision table."""
    if len(encoded) != WORD_BITS or set(encoded) - {"0", "1"}:
        raise ValueError(f"encoded word must be {WORD_BITS} binary digits, got {encoded!r}")
    region = int(encoded[:REGION_FIELD_BITS], 2)
    code = int(encoded[REGION_FIELD_BITS:], 2)
    if not (1 <= region <= len(bits_per_region)):
        raise ValueError(f"region {region} outside the configured table")
    return ResponseWord(region=region, code=code, bits=bits_per_region[region - 1])


def quantize(config: AdcConfig, v: float, bits: int) -> int:
    """Full-scale b-bit code of a voltage: floor(v / vdd * 2**b), clamped."""
    if not (0.0 <= v <= config.vdd):
        raise ValueError(f"v must be within [0, {config.vdd}], got {v}")
    if not (1 <= bits <= CODE_FIELD_BITS):
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    code = int(math.floor(v / config.vdd * (1 << bits)))
    return min(code, (1 << bits) - 1)


def select_comparator(config: AdcConfig, v: float) -> Comparator:
    """Upper-half voltages use comparator A, lower-half comparator B.

    The split lets each comparator work near its own rail; the residual
    offset models the systematic error of that choice.
    """
    return Comparator.A if v > 0.5 * config.vdd + config.comparator_residual_offset else Comparator.B


def convert(config: AdcConfig, spec: QuantizerSpec, v: float) -> ResponseWord:
    """Full conversion: region lookup, comparator choice, in-region code.

    The comparator's residual offset shifts the voltage the ramp actually
    compares against (sign follows which rail the comparator references),
    while the region decision happens upstream of the comparator and sees
    the raw voltage.
    """
    region, bits = region_of(spec, v)
    comp = select_comparator(config, v)
    shift = config.comparator_residual_offset
    v_eff = v + shift if comp is Comparator.A else v - shift
    v_eff = min(max(v_eff, 0.0), config.vdd)
    return ResponseWord(region=region, code=quantize(config, v_eff, bits), bits=bits)


def convert_array(
    config: AdcConfig, spec: QuantizerSpec, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``convert`` over an array of voltages: (region, code, bits) arrays.

    Equal value for value to ``convert``, checks included: a voltage that
    ``convert`` rejects (outside [0, vdd], or landing in a region that
    does not fit the word) makes this raise the same error, for the first
    such voltage in C order.
    """
    v = np.asarray(v, dtype=float)
    bits_table = np.asarray(spec.bits_per_region, dtype=np.int64)
    idx = region_index_array(spec.boundaries, v)
    bad = ~((v >= 0.0) & (v <= spec.vdd))
    if spec.k >= 1 << REGION_FIELD_BITS or bits_table.max() > CODE_FIELD_BITS:
        bad |= (idx + 1 >= 1 << REGION_FIELD_BITS) | (bits_table[idx] > CODE_FIELD_BITS)
    if bad.any():
        first = float(v.reshape(-1)[np.argmax(bad.reshape(-1))])
        convert(config, spec, first)  # raises the scalar path's error
        raise AssertionError(f"convert accepted {first!r}, which convert_array rejects")
    levels = 1 << bits_table
    shift = config.comparator_residual_offset
    # comparator A shifts the ramp up by the offset, B down (see ``convert``)
    v_eff = v + np.where(v > 0.5 * config.vdd + shift, shift, -shift)
    v_eff = np.minimum(np.maximum(v_eff, 0.0), config.vdd)
    code = np.floor(v_eff / config.vdd * np.take(levels.astype(float), idx)).astype(np.int64)
    return idx + 1, np.minimum(code, np.take(levels - 1, idx)), np.take(bits_table, idx)


# Bit row of every 11-bit word, most significant bit first.
_WORD_BIT_ROWS = (
    (np.arange(1 << WORD_BITS)[:, None] >> np.arange(WORD_BITS - 1, -1, -1)) & 1
).astype(np.int8)


def word_bits(region: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Bit rows (..., 11) of response words: the array form of ``encode_word``."""
    word = (np.asarray(region) << CODE_FIELD_BITS) | np.asarray(code)
    return np.take(_WORD_BIT_ROWS, word, axis=0)


def response_bits(config: AdcConfig, spec: QuantizerSpec, v: np.ndarray) -> np.ndarray:
    """Conversion straight to the (..., 11) bit matrix; agrees with ``convert``."""
    region, code, _ = convert_array(config, spec, v)
    return word_bits(region, code)


def conversion_cycles(bits: int) -> int:
    """Clock cycles a single-slope conversion takes at the given precision."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return 1 << bits


def energy_per_cycle(power: float, clock_freq: float) -> float:
    if power < 0.0:
        raise ValueError(f"power must be >= 0, got {power}")
    if clock_freq <= 0.0:
        raise ValueError(f"clock_freq must be > 0, got {clock_freq}")
    return power / clock_freq


def conversion_energy(config: AdcConfig, bits: int) -> float:
    """Energy of one conversion: cycles at this precision times J/cycle."""
    return conversion_cycles(bits) * energy_per_cycle(config.power, config.clock_freq)


@dataclass(frozen=True)
class EnergyRow:
    """A published design point for the per-cycle energy comparison."""

    name: str
    power_w: float
    clock_hz: float
    quoted_energy_j: float

    @property
    def computed_energy_j(self) -> float:
        return energy_per_cycle(self.power_w, self.clock_hz)

    @property
    def consistent(self) -> bool:
        """Whether the quoted figure matches power / clock within 1 percent."""
        return abs(self.computed_energy_j - self.quoted_energy_j) <= 0.01 * self.quoted_energy_j


# Published reference points.  The TV-PUF row's quoted figure does not
# follow from its own power and clock (off by 10x); it is kept as quoted
# and flagged by ``consistent``.
COMPARISON_ROWS: tuple[EnergyRow, ...] = (
    EnergyRow("Super-threshold", 136.4e-6, 1.0e9, 0.136e-12),
    EnergyRow("Sub-threshold", 0.047e-6, 1.0e6, 0.047e-12),
    EnergyRow("ICID", 250.0e-6, 0.5e6, 500.0e-12),
    EnergyRow("TV-PUF", 0.181e-6, 1.0e9, 0.0018e-12),
    EnergyRow("This design", 306.54e-6, 6.4e9, 0.0478e-12),
)

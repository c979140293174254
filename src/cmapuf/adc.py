"""Single-slope conversion of a cell voltage into a response word's fields.

The converter ramps a counter while a comparator watches the cell
voltage, so a b-bit conversion costs 2**b clock cycles.  Because the
quantizer assigns fewer bits to sparse regions, mid-range voltages
convert in a quarter of the cycles of rail-adjacent ones.  The per-cycle
energy is power / clock, and a handful of published reference points are
kept here for the energy comparison command.

``convert_array`` is the one converter, giving each voltage's region, code
and precision for ``word`` to pack; ``convert`` is one element of it.
Its tables (levels, top codes, boundaries, precisions) are built from the
configuration and spec by ``_Converter``, which a caller converting many
small batches, as the ES fitness does, builds once and reads through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analog import VDD_DEFAULT
from .codec import check_range
from .quantizer import QuantizerSpec, check_volts, region_index_array
from .word import ResponseWord, word_bits


@dataclass(frozen=True)
class AdcConfig:
    vdd: float = VDD_DEFAULT
    clock_freq: float = 6.4e9
    power: float = 306.54e-6
    comparator_residual_offset: float = 0.0

    def __post_init__(self) -> None:
        check_range("vdd", self.vdd, 0, open_lo=True)
        check_range("comparator_residual_offset", self.comparator_residual_offset)
        energy_per_cycle(self.power, self.clock_freq)  # the clock and power rules


def convert(config: AdcConfig, spec: QuantizerSpec, v: float) -> ResponseWord:
    """One voltage's conversion: one element of ``convert_array``."""
    return ResponseWord(*(int(x[0]) for x in convert_array(config, spec, np.array([v]))))


def convert_array(
    config: AdcConfig, spec: QuantizerSpec, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full conversion of an array of voltages: (region, code, bits) arrays.

    The region sees the raw voltage.  One comparator (A) takes the upper
    half, the other (B) the rest, so each works near its rail; the offset moves
    that split and shifts the ramp's voltage, up for A and down for B.  The
    code is floor(v / vdd * 2**bits) of the shifted voltage clamped to
    [0, vdd], full scale taking the top code.  A voltage outside [0, vdd]
    raises a ``ValueError`` for the first such voltage in C order; the spec
    itself fits the word.
    """
    converter = _Converter(config, spec)
    idx, code = converter.read(v)
    return idx + 1, code, converter.bits[idx]


class _Converter:
    """``convert_array``'s tables for one (config, spec), built once; every read is checked."""

    __slots__ = ("spec", "vdd", "shift", "split", "boundaries", "levels", "top", "bits")

    def __init__(self, config: AdcConfig, spec: QuantizerSpec) -> None:
        self.spec = spec
        self.vdd = config.vdd
        self.shift = config.comparator_residual_offset
        self.split = 0.5 * config.vdd + self.shift  # comparator A above, B at and below
        self.boundaries = np.asarray(spec.boundaries, dtype=float)
        self.bits = np.asarray(spec.bits_per_region, dtype=np.int64)
        self.levels = (1 << self.bits).astype(float)
        self.top = (1 << self.bits) - 1

    def read(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """0-based region index and code of each voltage."""
        v = np.asarray(v, dtype=float)
        check_volts(self.spec, v)
        idx = region_index_array(self.boundaries, v)
        v = v + np.where(v > self.split, self.shift, -self.shift)
        v = np.minimum(np.maximum(v, 0.0), self.vdd)
        # the clamped voltage is >= 0, so truncation is the floor
        code = (v / self.vdd * self.levels[idx]).astype(np.int64)
        return idx, np.minimum(code, self.top[idx])


def response_bits(config: AdcConfig, spec: QuantizerSpec, v: np.ndarray) -> np.ndarray:
    """Conversion straight to the (..., 11) bit matrix."""
    region, code, _ = convert_array(config, spec, v)
    return word_bits(region, code)


def conversion_cycles(bits: int) -> int:
    """Clock cycles a single-slope conversion takes at the given precision."""
    check_range("bits", bits, 1, integer=True)
    return 1 << bits


def energy_per_cycle(power: float, clock_freq: float) -> float:
    check_range("clock_freq", clock_freq, 0, open_lo=True)
    check_range("power", power, 0)
    energy = power / clock_freq
    check_range("power / clock_freq", energy)  # a finite quotient can still overflow
    return energy


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
    EnergyRow("This design", AdcConfig.power, AdcConfig.clock_freq, 0.0478e-12),
)

"""The scalar read route, one record at a time, written apart from the package's kernels.

The package reads through array kernels: ``crp._record_seeds``,
``cellarray.evaluate_array``, ``quantizer.region_index_array`` and
``adc.convert_array``.  This module reads one record the way the chain
is described, cell -> tanh -> Lloyd-Max region -> single-slope ADC ->
11-bit word, with arithmetic of its own:

    record_seed  numpy's ``SeedSequence`` on (base seed, crc32 of the chip id, word)
    evaluate     the word's range check and ``divmod(word, 16)`` to (row, column),
                 then ``transfer`` of that cell's ``effective_mismatch``
    region_of    ``np.searchsorted`` over the boundaries
    convert      the comparator choice, then ``math.floor`` quantisation
    encode       the region and code formatted as binary strings
    read         a generator per record, ``default_rng(seed).normal``, for its noise

The tests hold every kernel to it value for value, errors included.
"""

import math
import zlib

import numpy as np

from cmapuf.adc import CODE_FIELD_BITS, REGION_FIELD_BITS, AdcConfig, ResponseWord
from cmapuf.analog import Conditions, TransferModel, effective_mismatch, transfer
from cmapuf.quantizer import QuantizerSpec
from cmapuf.variation import ChipInstance


def record_seed(base_seed: int, chip_id: str, word: int) -> int:
    """Derived noise seed for one (chip, challenge) read."""
    ss = np.random.SeedSequence([base_seed, zlib.crc32(chip_id.encode()), word])
    return int(ss.generate_state(1, np.uint64)[0])


def evaluate(
    model: TransferModel,
    chip: ChipInstance,
    word: int,
    temperature: float,
    noise: float | None = None,
) -> float:
    """Voltage of the cell the word selects: high nibble row, low nibble column."""
    if not 0 <= word <= 255:
        raise ValueError(f"challenge must be in [0, 255], got {word}")
    row, col = divmod(word, 16)
    offset = model.switching.offset(chip.config.corner)
    dvth = chip.mismatch[row, col]
    return transfer(model, effective_mismatch(model, dvth, offset, temperature, noise))


def region_of(spec: QuantizerSpec, v: float) -> tuple[int, int]:
    """1-based region and precision; a boundary belongs to the region above, vdd to the last."""
    if not (0.0 <= v <= spec.vdd):
        raise ValueError(f"v must be within [0, {spec.vdd}], got {v}")
    idx = min(int(np.searchsorted(spec.boundaries, v, side="right")) - 1, spec.k - 1)
    return idx + 1, spec.bits_per_region[idx]


def quantize(vdd: float, v: float, bits: int) -> int:
    """Full-scale b-bit code of a voltage: floor(v / vdd * 2**b), clamped."""
    if not (0.0 <= v <= vdd):
        raise ValueError(f"v must be within [0, {vdd}], got {v}")
    if not (1 <= bits <= CODE_FIELD_BITS):
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    return min(int(math.floor(v / vdd * (1 << bits))), (1 << bits) - 1)


def comparator(config: AdcConfig, v: float) -> str:
    """Upper-half voltages use comparator A, the rest (the midpoint included) B."""
    return "A" if v > 0.5 * config.vdd + config.comparator_residual_offset else "B"


def convert(config: AdcConfig, spec: QuantizerSpec, v: float) -> ResponseWord:
    """Region lookup, comparator choice, then the in-region code.

    The residual offset shifts the voltage the ramp compares against, up
    for comparator A and down for B; the region sees the raw voltage.
    """
    region, bits = region_of(spec, v)
    shift = config.comparator_residual_offset
    v_eff = v + shift if comparator(config, v) == "A" else v - shift
    v_eff = min(max(v_eff, 0.0), config.vdd)
    return ResponseWord(region=region, code=quantize(config.vdd, v_eff, bits), bits=bits)


def encode(word: ResponseWord) -> str:
    """3 region bits, then the code zero-padded on the left to 8 bits."""
    return format(word.region, f"0{REGION_FIELD_BITS}b") + format(
        word.code, f"0{CODE_FIELD_BITS}b"
    )


def read(
    chip: ChipInstance,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    word: int,
    conditions: Conditions,
) -> tuple[int, ResponseWord]:
    """One record: its derived noise seed and its response word."""
    seed = record_seed(conditions.noise_seed, chip.chip_id, word)
    noise = None
    if conditions.noise_sigma > 0.0:
        noise = float(np.random.default_rng(seed).normal(0.0, conditions.noise_sigma))
    v = evaluate(model, chip, word, conditions.temperature, noise)
    return seed, convert(adc_config, spec, v)


def read_bits(
    chip: ChipInstance,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    words,
    conditions: Conditions,
) -> np.ndarray:
    """(words, 11) response bits of one chip."""
    rows = [encode(read(chip, model, spec, adc_config, w, conditions)[1]) for w in words]
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.int8)

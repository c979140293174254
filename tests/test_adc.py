import math
import re

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf.adc import (
    COMPARISON_ROWS,
    AdcConfig,
    conversion_cycles,
    conversion_energy,
    convert,
    convert_array,
    energy_per_cycle,
    response_bits,
)
from cmapuf.codec import from_json, to_json
from cmapuf.quantizer import QuantizerSpec, default_regions
from cmapuf.word import ResponseWord, decode_word, encode_word

CFG = AdcConfig()
SPEC = default_regions()


def codes(config, bits, volts):
    """In-region codes of voltages through one region spanning [0, 1.8] at ``bits``."""
    spec = QuantizerSpec(boundaries=(0.0, 1.8), bits_per_region=(bits,), centroids=(0.9,))
    return convert_array(config, spec, np.asarray(volts, dtype=float))[1]


def test_quantize_against_direct_formula():
    grid = np.linspace(0.0, 1.8, 1500)
    for bits in (1, 4, 6, 7, 8):
        expected = [min(int(math.floor(v / 1.8 * (1 << bits))), (1 << bits) - 1) for v in grid]
        assert codes(CFG, bits, grid).tolist() == expected
        assert [oracle.quantize(1.8, float(v), bits) for v in grid] == expected


def test_quantize_monotone():
    for bits in (1, 6, 8):
        assert np.all(np.diff(codes(CFG, bits, np.linspace(0.0, 1.8, 4000))) >= 0)


def test_quantize_bounds():
    assert codes(CFG, 8, [0.0, 1.8]).tolist() == [0, 255]  # full scale clamps to the top code
    assert codes(CFG, 6, [0.9]).tolist() == [32]
    for v in (-0.1, 1.9):
        with pytest.raises(ValueError, match=re.escape(f"v must be within [0, 1.8], got {v}")):
            codes(CFG, 8, [0.5, v])
    with pytest.raises(ValueError, match=re.escape("bits_per_region must be in [1, 8], got 0")):
        codes(CFG, 0, [0.5])
    with pytest.raises(ValueError, match=re.escape("bits_per_region must be in [1, 8], got 9")):
        codes(CFG, 9, [0.5])


def test_worked_eleven_bit_example():
    # 0.9 V sits in region 3 (6 bits): floor(0.9 / 1.8 * 64) = 32,
    # so the word is '011' + '00100000' zero-padded to 8 code bits
    word = convert(CFG, SPEC, 0.9)
    assert (word.region, word.code, word.bits) == (3, 32, 6)
    assert word.encoded == "01100100000"
    assert len(word.encoded) == 11


def test_rail_voltages_encode_in_outer_regions():
    low = convert(CFG, SPEC, 0.01)
    high = convert(CFG, SPEC, 1.79)
    assert low.region == 1 and low.encoded.startswith("001")
    assert high.region == 5 and high.encoded.startswith("101")


def test_convert_deterministic():
    for v in (0.0, 0.3, 0.9, 1.2, 1.8):
        assert convert(CFG, SPEC, v) == convert(CFG, SPEC, v)


def test_encoding_round_trips_exhaustively():
    for region_idx, bits in enumerate(SPEC.bits_per_region):
        for code in range(1 << bits):
            word = ResponseWord(region=region_idx + 1, code=code, bits=bits)
            enc = encode_word(word)
            assert len(enc) == 11
            assert decode_word(enc, SPEC.bits_per_region) == word
    # a narrow integer region once shifted its field out of the word, encoding region 0
    assert encode_word(ResponseWord(np.uint8(7), np.uint8(255), np.uint8(8))) == "11111111111"


def test_decode_word_rejects_garbage():
    with pytest.raises(ValueError):
        decode_word("0110010000", SPEC.bits_per_region)  # 10 chars
    with pytest.raises(ValueError):
        decode_word("01100100002", SPEC.bits_per_region)
    with pytest.raises(ValueError):
        decode_word("11100000000", SPEC.bits_per_region)  # region 7 > k
    with pytest.raises(ValueError):
        decode_word("00000000000", SPEC.bits_per_region)  # region 0 is reserved


def test_response_word_validation():
    with pytest.raises(ValueError):
        ResponseWord(region=0, code=0, bits=8)
    with pytest.raises(ValueError):
        ResponseWord(region=8, code=0, bits=8)
    with pytest.raises(ValueError):
        ResponseWord(region=1, code=64, bits=6)
    with pytest.raises(ValueError):
        ResponseWord(region=1, code=0, bits=9)


def test_comparator_halves():
    # comparator A (upper half) shifts the ramp's voltage up by the
    # residual offset, B down; the offset also moves the split
    for offset, v, comparator in (
        (0.01, 1.0, "A"),
        (0.01, 0.8, "B"),
        (0.01, 0.5 * 1.8 + 0.01, "B"),  # tie goes low
        (0.15, 1.0, "B"),
    ):
        cfg = AdcConfig(comparator_residual_offset=offset)
        assert oracle.comparator(cfg, v) == comparator
        v_eff = v + offset if comparator == "A" else v - offset
        assert codes(cfg, 8, [v]).tolist() == [math.floor(v_eff / 1.8 * 256)]


def test_residual_offset_shifts_code_not_region():
    cfg = AdcConfig(comparator_residual_offset=0.02)
    clean = convert(CFG, SPEC, 1.0)
    skewed = convert(cfg, SPEC, 1.0)
    assert skewed.region == clean.region
    assert skewed.code > clean.code  # comparator A pushes the ramp crossing up
    low = convert(cfg, SPEC, 0.5)
    assert low.code < convert(CFG, SPEC, 0.5).code


def test_vectorized_bits_agree_with_scalar_convert():
    rng = np.random.default_rng(0)
    volts = np.concatenate(
        [np.linspace(0.0, 1.8, 2000), rng.uniform(0.0, 1.8, 500), np.array(SPEC.boundaries)]
    )
    for cfg in (CFG, AdcConfig(comparator_residual_offset=0.004)):
        matrix = response_bits(cfg, SPEC, volts)
        assert matrix.shape == (len(volts), 11)
        for i, v in enumerate(volts):
            expected = [int(ch) for ch in oracle.encode(oracle.convert(cfg, SPEC, float(v)))]
            assert matrix[i].tolist() == expected


def test_conversion_cycles_doubling():
    assert conversion_cycles(6) == 64
    assert conversion_cycles(7) == 128
    assert conversion_cycles(8) == 256
    for b in range(1, 9):
        assert conversion_cycles(b + 1) == 2 * conversion_cycles(b)
    for bits, rule in ((0, "be >= 1"), (7.5, "be an integer"), (True, "be an integer")):
        with pytest.raises(ValueError, match=f"^bits must {rule}, got {bits}$"):
            conversion_cycles(bits)


def test_energy_per_cycle_and_conversion_energy():
    assert energy_per_cycle(306.54e-6, 6.4e9) == pytest.approx(4.79e-14, rel=1e-3)
    # an 8-bit conversion costs 256 cycles
    assert conversion_energy(CFG, 8) == pytest.approx(256 * 306.54e-6 / 6.4e9)
    assert conversion_energy(CFG, 6) == pytest.approx(conversion_energy(CFG, 8) / 4)
    with pytest.raises(ValueError):
        energy_per_cycle(-1.0, 1.0)
    with pytest.raises(ValueError):
        energy_per_cycle(1.0, 0.0)


def test_comparison_rows_match_quoted_values():
    by_name = {row.name: row for row in COMPARISON_ROWS}
    for name in ("Super-threshold", "Sub-threshold", "ICID", "This design"):
        assert by_name[name].consistent, name
    tv = by_name["TV-PUF"]
    assert not tv.consistent
    assert tv.computed_energy_j == pytest.approx(1.81e-16, rel=1e-3)


def test_adc_config_validation():
    with pytest.raises(ValueError):
        AdcConfig(vdd=0.0)
    with pytest.raises(ValueError):
        AdcConfig(clock_freq=-1.0)
    assert from_json(AdcConfig, to_json(CFG)) == CFG


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_comparator_offset_is_refused(bad):
    # a NaN offset once reached numpy's int cast as a RuntimeWarning
    with pytest.raises(ValueError, match=f"^comparator_residual_offset must be finite, got {bad}$"):
        AdcConfig(comparator_residual_offset=bad)


@settings(max_examples=200, deadline=None)
@given(v=st.floats(0.0, 1.8))
def test_convert_word_always_well_formed(v):
    word = convert(CFG, SPEC, v)
    assert 1 <= word.region <= 5
    assert 0 <= word.code < (1 << word.bits)
    assert word.bits == SPEC.bits_per_region[word.region - 1]
    assert len(word.encoded) == 11

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmapuf.analog import Conditions, default_model, effective_mismatch, transfer
from cmapuf.cellarray import (
    CellAddress,
    Challenge,
    decode,
    evaluate,
    static_power,
)
from cmapuf.variation import ChipInstance, VariationConfig, synth_chip


def test_decode_nibbles():
    assert decode(Challenge(0x00)) == CellAddress(0, 0)
    assert decode(Challenge(0xFF)) == CellAddress(15, 15)
    assert decode(Challenge(0xA3)) == CellAddress(10, 3)
    assert decode(Challenge(0x3A)) == CellAddress(3, 10)


def test_decode_is_a_bijection():
    seen = {decode(Challenge(w)) for w in range(256)}
    assert len(seen) == 256
    for w in range(256):
        addr = decode(Challenge(w))
        assert (addr.row << 4) | addr.col == w


def test_challenge_range_checked():
    with pytest.raises(ValueError):
        Challenge(256)
    with pytest.raises(ValueError):
        Challenge(-1)
    with pytest.raises(ValueError):
        CellAddress(0, 16)


def test_exactly_one_cell_active():
    # whichever cell a challenge selects, the array draws one cell's bias
    model = default_model()
    one_cell = model.vdd * model.mirror.bias_current
    assert {static_power(model, decode(Challenge(w))) for w in range(256)} == {one_cell}


def test_static_power_accounting():
    model = default_model()
    # gated: nothing selected, nothing drawn
    assert static_power(model) == 0.0
    # one selected cell draws its mirror's bias current from the rail
    expected = model.vdd * model.mirror.bias_current
    assert static_power(model, CellAddress(0, 0)) == pytest.approx(expected)
    assert static_power(model, CellAddress(0, 0)) == pytest.approx(7.74e-6)


def test_evaluate_matches_direct_cell_readout():
    model = default_model()
    chip = synth_chip(VariationConfig(seed=12))
    cond = Conditions()
    offset = model.switching.offset(chip.config.corner)
    for word in (0x00, 0x5C, 0xFF):
        dvth = chip.mismatch[word >> 4, word & 0x0F]
        direct = transfer(model, effective_mismatch(model, dvth, offset, cond.temperature))
        assert evaluate(model, chip, Challenge(word), cond) == direct


def test_evaluate_ignores_unselected_cells():
    model = default_model()
    chip = synth_chip(VariationConfig(seed=12))
    cond = Conditions()
    word = 0x5C
    baseline = evaluate(model, chip, Challenge(word), cond)
    # rewrite every other cell's mismatch; the selected cell's output
    # must come out bit-identical
    scrambled = chip.mismatch.copy()
    scrambled += 0.05
    scrambled[word >> 4, word & 0x0F] = chip.mismatch[word >> 4, word & 0x0F]
    other = ChipInstance(chip_id="scrambled", config=chip.config, mismatch=scrambled)
    assert evaluate(model, other, Challenge(word), cond) == baseline


@given(word=st.integers(0, 255))
def test_decoded_address_always_in_range(word):
    addr = decode(Challenge(word))
    assert 0 <= addr.row < 16
    assert 0 <= addr.col < 16

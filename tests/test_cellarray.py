import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmapuf.analog import Conditions, default_model, effective_mismatch, transfer_array
from cmapuf.cellarray import (
    decode,
    evaluate,
    evaluate_array,
    static_power,
)
from cmapuf.variation import ChipInstance, VariationConfig, synth_chip


def test_decode_nibbles():
    rows, cols = decode([0x00, 0xFF, 0xA3, 0x3A])
    assert rows.tolist() == [0, 15, 10, 3]
    assert cols.tolist() == [0, 15, 3, 10]
    # a word of any shape gives rows and columns of that shape
    rows, cols = decode(np.array([[0x12], [0x34]]))
    assert rows.shape == cols.shape == (2, 1)
    assert (rows.ravel().tolist(), cols.ravel().tolist()) == ([1, 3], [2, 4])
    assert decode(0x5C) == (5, 12)


def test_decode_is_a_bijection():
    rows, cols = decode(np.arange(256))
    assert len(set(zip(rows.tolist(), cols.tolist()))) == 256
    assert ((rows << 4) | cols).tolist() == list(range(256))


def test_challenge_range_checked():
    chip = synth_chip(VariationConfig(seed=1))
    for bad in (256, -1, 300):
        # the first bad word in C order is named, whatever the shape
        message = re.escape(f"challenge must be in [0, 255], got {bad}")
        with pytest.raises(ValueError, match=message):
            decode(bad)
        with pytest.raises(ValueError, match=message):
            decode(np.array([[0, 5], [bad, -7]]))
        # every read goes through decode: a word outside the array selects
        # no cell, rather than wrapping round to cell 255 or indexing past row 15
        with pytest.raises(ValueError, match=message):
            evaluate_array(default_model(), [chip], [3, bad], 25.0)
        with pytest.raises(ValueError, match=message):
            evaluate(default_model(), chip, bad, 25.0)
        with pytest.raises(ValueError, match=message):
            static_power(default_model(), bad)


@pytest.mark.parametrize(
    "words, dtype",
    [(2.7, "float64"), (True, "bool"), (np.array([1.5]), "float64"), ([True, 255.9], "float64")],
)
def test_a_word_that_is_not_an_integer_is_refused(words, dtype):
    # rather than truncated to a cell: 2.7 once read cell (0, 2), [True, 255.9] cells 1 and 255
    chip = synth_chip(VariationConfig(seed=1))
    message = f"^challenge must be an integer, got dtype {dtype}$"
    with pytest.raises(ValueError, match=message):
        decode(words)
    with pytest.raises(ValueError, match=message):
        evaluate_array(default_model(), [chip], words, 25.0)
    if np.ndim(words) == 0:
        with pytest.raises(ValueError, match=message):
            static_power(default_model(), words)
    # no word selects no cell
    assert [a.tolist() for a in decode([])] == [[], []]


def test_exactly_one_cell_active():
    # whichever cell a challenge selects, the array draws one cell's bias
    model = default_model()
    one_cell = model.vdd * model.mirror.bias_current
    assert {static_power(model, w) for w in range(256)} == {one_cell}


def test_static_power_accounting():
    model = default_model()
    # gated: nothing selected, nothing drawn
    assert static_power(model) == 0.0
    # one selected cell draws its mirror's bias current from the rail
    expected = model.vdd * model.mirror.bias_current
    assert static_power(model, 0x00) == pytest.approx(expected)
    assert static_power(model, 0x00) == pytest.approx(7.74e-6)


def test_evaluate_matches_direct_cell_readout():
    model = default_model()
    chip = synth_chip(VariationConfig(seed=12))
    cond = Conditions()
    offset = model.switching.offset(chip.config.corner)
    for word in (0x00, 0x5C, 0xFF):
        dvth = chip.mismatch[word // 16, word % 16]
        delta = effective_mismatch(model, dvth, offset, cond.temperature)
        direct = float(transfer_array(model, delta))
        assert evaluate(model, chip, word, cond.temperature) == direct


def test_evaluate_ignores_unselected_cells():
    model = default_model()
    chip = synth_chip(VariationConfig(seed=12))
    word = 0x5C
    baseline = evaluate(model, chip, word, 25.0)
    # rewrite every other cell's mismatch; the selected cell's output
    # must come out bit-identical
    scrambled = chip.mismatch.copy()
    scrambled += 0.05
    scrambled[5, 12] = chip.mismatch[5, 12]
    other = ChipInstance(chip_id="scrambled", config=chip.config, mismatch=scrambled)
    assert evaluate(model, other, word, 25.0) == baseline


@given(word=st.integers(0, 255))
def test_decoded_address_always_in_range(word):
    row, col = decode(word)
    assert 0 <= row < 16
    assert 0 <= col < 16

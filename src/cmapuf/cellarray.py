"""The 16x16 array read: challenge words to the output voltages of the cells they select.

An 8-bit challenge selects exactly one cell: the high nibble drives the
row decoder, the low nibble the column decoder.  ``decode`` is the one
statement of that rule and of the word's range; every read goes through
it.  Unselected cells are power gated, so the array's static draw is one
cell's bias current.  ``evaluate_array`` reads chips x words at once, and
``evaluate`` is one element of it.
"""

from __future__ import annotations

import numpy as np

from .analog import TransferModel, effective_mismatch, transfer_array
from .variation import ChipInstance

CHALLENGE_BITS = 8


def decode(words) -> tuple[np.ndarray, np.ndarray]:
    """Challenge words to the (rows, cols) of their cells: high nibble row, low nibble column.

    Raises for the first word outside [0, 255] in C order.
    """
    words = np.asarray(words, dtype=np.int64)
    bad = (words < 0) | (words >= 1 << CHALLENGE_BITS)
    if bad.any():
        word = words.reshape(-1)[np.argmax(bad)]
        raise ValueError(f"challenge must be in [0, 255], got {word}")
    return words >> 4, words & 0x0F


def static_power(model: TransferModel, word: int | None = None) -> float:
    """Static array draw in watts while ``word`` selects its cell, or while idle.

    Power gating cuts bias to every unselected cell: an idle array burns
    nothing, and a selected cell draws its mirror's bias current from the
    supply (7.74 uW at the 1.8 V / 4.3 uA defaults).  A word outside
    [0, 255] selects no cell and raises.
    """
    if word is None:
        return 0.0
    decode(word)
    return model.vdd * model.mirror.bias_current


def evaluate(
    model: TransferModel,
    chip: ChipInstance,
    word: int,
    temperature: float,
    noise: float | None = None,
) -> float:
    """Output voltage of the cell ``word`` selects: one element of ``evaluate_array``."""
    return float(evaluate_array(model, [chip], [word], temperature, noise)[0, 0])


def evaluate_array(
    model: TransferModel,
    chips: list[ChipInstance],
    words,
    temperature: float,
    noise: np.ndarray | float | None = None,
) -> np.ndarray:
    """Output voltages (chips, words) of the cells the challenge words select.

    ``decode`` selects the cells, so a word outside [0, 255] raises.  The
    cells run the one imbalance stage, ``effective_mismatch``, with the
    pre-drawn ``noise`` (chips, words) or None, and the one tanh stage,
    ``transfer_array``.
    """
    rows, cols = decode(words)
    dvth = np.stack([chip.mismatch for chip in chips])[:, rows, cols]
    offsets = np.array([model.switching.offset(chip.config.corner) for chip in chips])
    delta = effective_mismatch(model, dvth, offsets[:, None], temperature, noise)
    return transfer_array(model, delta)

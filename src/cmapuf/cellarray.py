"""Challenge decoding and single-cell readout of the 16x16 array.

An 8-bit challenge selects exactly one cell: the high nibble drives the
row decoder, the low nibble the column decoder.  Unselected cells are
power gated, so the array's static draw is one cell's bias current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analog import Conditions, TransferModel, effective_mismatch, transfer, transfer_array
from .variation import N_COLS, N_ROWS, ChipInstance

CHALLENGE_BITS = 8


@dataclass(frozen=True)
class Challenge:
    """An 8-bit cell-select word."""

    word: int

    def __post_init__(self) -> None:
        if not (0 <= self.word < 1 << CHALLENGE_BITS):
            raise ValueError(f"challenge must be in [0, 255], got {self.word}")


@dataclass(frozen=True)
class CellAddress:
    row: int
    col: int

    def __post_init__(self) -> None:
        if not (0 <= self.row < N_ROWS and 0 <= self.col < N_COLS):
            raise ValueError(f"address ({self.row}, {self.col}) outside the array")


def decode(challenge: Challenge) -> CellAddress:
    """Challenge word to cell address: high nibble row, low nibble column."""
    return CellAddress(row=challenge.word >> 4, col=challenge.word & 0x0F)


def static_power(model: TransferModel, selected: CellAddress | None = None) -> float:
    """Static array draw in watts.

    Power gating cuts bias to every unselected cell: an idle array burns
    nothing, and a selected cell draws its mirror's bias current from the
    supply (7.74 uW at the 1.8 V / 4.3 uA defaults).
    """
    return 0.0 if selected is None else model.vdd * model.mirror.bias_current


def evaluate(
    model: TransferModel,
    chip: ChipInstance,
    challenge: Challenge,
    conditions: Conditions,
    rng: np.random.Generator | None = None,
) -> float:
    """Analog output voltage of the cell the challenge selects.

    When noise_sigma > 0 a generator must be supplied (or one is built
    from conditions.noise_seed, which makes every call identical; batch
    callers should pass their own).
    """
    addr = decode(challenge)
    noise = None
    if conditions.noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng(conditions.noise_seed)
        noise = float(rng.normal(0.0, conditions.noise_sigma))
    offset = model.switching.offset(chip.config.corner)
    delta = effective_mismatch(
        model, chip.mismatch[addr.row, addr.col], offset, conditions.temperature, noise
    )
    return transfer(model, delta)


def evaluate_array(
    model: TransferModel,
    chips: list[ChipInstance],
    words: np.ndarray,
    conditions: Conditions,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Output voltages (chips, words) of the cells the challenge words select.

    Equal value for value to ``evaluate`` given the same noise samples:
    both run the one imbalance stage, ``effective_mismatch``, and the one
    tanh stage, ``transfer_array``.  Words are not range checked here.
    """
    words = np.asarray(words, dtype=np.int64)
    dvth = np.stack([chip.mismatch for chip in chips])[:, words >> 4, words & 0x0F]
    offsets = np.array([model.switching.offset(chip.config.corner) for chip in chips])
    delta = effective_mismatch(model, dvth, offsets[:, None], conditions.temperature, noise)
    return transfer_array(model, delta)

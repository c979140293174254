"""Challenge decoding and single-cell readout of the 16x16 array.

An 8-bit challenge selects exactly one cell: the high nibble drives the
row decoder, the low nibble the column decoder.  Unselected cells are
power gated, so the array's static draw is one cell's bias current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analog import Conditions, TransferModel, cell_output, transfer
from .variation import N_COLS, N_ROWS, ChipInstance

CHALLENGE_BITS = 8


@dataclass(frozen=True)
class PowerState:
    """Bias accounting for the array at one instant.

    The decoders can select at most one cell, so any state claiming more
    is rejected outright, and an idle array draws nothing by definition.
    """

    active_cells: int
    static_power_w: float

    def __post_init__(self) -> None:
        if self.active_cells not in (0, 1):
            raise ValueError(f"active_cells must be 0 or 1, got {self.active_cells}")
        if self.active_cells == 0 and self.static_power_w != 0.0:
            raise ValueError("an idle array cannot draw static power")


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


def encode_address(addr: CellAddress) -> Challenge:
    """Inverse of ``decode``."""
    return Challenge(word=(addr.row << 4) | addr.col)


def power_state(model: TransferModel, selected: CellAddress | None) -> PowerState:
    """Bias state while ``selected`` (or no cell) is driven."""
    if selected is None:
        return PowerState(active_cells=0, static_power_w=0.0)
    return PowerState(
        active_cells=1, static_power_w=model.vdd * model.mirror.bias_current
    )


def static_power(model: TransferModel, selected: CellAddress | None = None) -> float:
    """Static array draw in watts.

    Power gating cuts bias to every unselected cell: an idle array burns
    nothing, and a selected cell draws its mirror's bias current from the
    supply (7.74 uW at the 1.8 V / 4.3 uA defaults).
    """
    return power_state(model, selected).static_power_w


def active_cells(challenge: Challenge) -> int:
    """Number of simultaneously biased cells for one applied challenge."""
    return 1


def evaluate(
    model: TransferModel,
    chip: ChipInstance,
    challenge: Challenge,
    conditions: Conditions,
    rng: np.random.Generator | None = None,
) -> float:
    """Analog output voltage of the cell the challenge selects."""
    addr = decode(challenge)
    return cell_output(model, chip, addr.row, addr.col, conditions, rng=rng)


def evaluate_array(
    model: TransferModel,
    chips: list[ChipInstance],
    words: np.ndarray,
    conditions: Conditions,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Output voltages (chips, words) of the cells the challenge words select.

    Equal value for value to ``evaluate`` given the same noise samples:
    the imbalance sums the same terms in the same order, and the voltage
    comes from the scalar ``transfer`` (libm tanh; ``np.tanh`` differs in
    the last bits).  Words are not range checked here.
    """
    words = np.asarray(words, dtype=np.int64)
    dvth = np.stack([chip.mismatch for chip in chips])[:, words >> 4, words & 0x0F]
    w = model.weights
    delta = w[0] * dvth[..., 0] + w[1] * dvth[..., 1] + w[2] * dvth[..., 2] + w[3] * dvth[..., 3]
    delta += np.array([model.switching.offset(chip.config.corner) for chip in chips])[:, None]
    delta += model.temp_coeff * (conditions.temperature - model.temp_ref)
    delta += model.mirror.asymmetry_offset
    if noise is not None:
        delta += noise
    volts = np.fromiter(
        (transfer(model, d) for d in delta.ravel().tolist()), dtype=float, count=delta.size
    )
    return volts.reshape(delta.shape)

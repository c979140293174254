"""Process variation model: per-transistor threshold mismatch for a chip.

Every bit cell contains four transistors whose threshold-voltage deviations
are the only randomness a chip carries.  Deviations are drawn i.i.d. from
N(0, sigma_vth**2) with a seeded generator, so a (seed, config) pair pins
down a chip exactly and two chips with different seeds are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .codec import check_range

N_ROWS = 16
N_COLS = 16

# index order of the per-cell deviations, fixed so that sampling is
# reproducible across versions
TRANSISTORS = ("pm1", "pm2", "nm1", "nm2")


class ProcessCorner(Enum):
    """Global process corner the die was fabricated at."""

    TT = "TT"
    SS = "SS"
    FF = "FF"
    SF = "SF"
    FS = "FS"


@dataclass(frozen=True)
class VariationConfig:
    """Statistical parameters of the mismatch population.

    sigma_vth is the standard deviation of each transistor's threshold
    deviation in volts.  Zero is allowed (an idealised mismatch-free die);
    negative values are not.
    """

    sigma_vth: float = 0.030
    corner: ProcessCorner = ProcessCorner.TT
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("sigma_vth", self.sigma_vth, 0)
        check_range("seed", self.seed, 0, integer=True)
        if not isinstance(self.corner, ProcessCorner):
            raise TypeError("corner must be a ProcessCorner")


@dataclass(frozen=True, eq=False)
class ChipInstance:
    """One synthesized die: a 16x16 grid of mismatch vectors.

    ``mismatch`` has shape (16, 16, 4) with the last axis ordered as
    ``TRANSISTORS``.  The array is marked read-only; a chip never changes
    after synthesis.
    """

    chip_id: str
    config: VariationConfig
    mismatch: np.ndarray

    def __post_init__(self) -> None:
        if self.mismatch.shape != (N_ROWS, N_COLS, len(TRANSISTORS)):
            raise ValueError(
                f"mismatch must have shape {(N_ROWS, N_COLS, len(TRANSISTORS))}, "
                f"got {self.mismatch.shape}"
            )
        self.mismatch.setflags(write=False)


def sample_mismatch(config: VariationConfig) -> np.ndarray:
    """Draw the (16, 16, 4) deviation array for one chip.

    Cells are filled row-major and, within a cell, in ``TRANSISTORS``
    order.  The flat draw order is part of the contract: it is what makes
    a seed portable.
    """
    rng = np.random.default_rng(config.seed)
    flat = rng.normal(0.0, config.sigma_vth, size=N_ROWS * N_COLS * len(TRANSISTORS))
    return flat.reshape(N_ROWS, N_COLS, len(TRANSISTORS))


def synth_chip(config: VariationConfig, chip_id: str | None = None) -> ChipInstance:
    """Synthesize a single chip from a variation config."""
    if chip_id is None:
        chip_id = f"chip{config.seed:03d}"
    return ChipInstance(chip_id=chip_id, config=config, mismatch=sample_mismatch(config))


def synth_population(config: VariationConfig, chips: int) -> list[ChipInstance]:
    """Synthesize ``chips`` independent chips.

    Chip ``i`` uses seed ``config.seed + i``, so populations with different
    base seeds but overlapping ranges share chips on purpose (useful for
    enrolment / verification splits) while a disjoint range is guaranteed
    to be independent.
    """
    check_range("chips", chips, 1, integer=True)
    return [
        synth_chip(replace(config, seed=config.seed + i), chip_id=f"chip{i:03d}")
        for i in range(chips)
    ]

"""Behavioral model of one bit cell's analog output voltage.

A cell is a current-mirror pair whose two branches fight over a shared
output node.  Transistor mismatch tilts the fight, so the node settles
near one rail or the other; only nearly balanced cells land mid-range.
The model collapses all of that into two steps:

1. an effective input-referred imbalance (volts) that is linear in the
   four threshold deviations plus corner, temperature and topology terms
   (``effective_mismatch``),
2. a saturating tanh stage that maps the imbalance to an output voltage
   in [0, vdd] (``transfer_array``).

Every read, batched or not, runs these two array stages.

The tanh stage is what produces the bimodal, rail-heavy output histogram
that the multi-bit quantizer downstream is shaped around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .variation import ProcessCorner

VDD_DEFAULT = 1.8

# Contribution of each transistor's threshold deviation to the branch
# imbalance.  The mirror devices dominate; the switch devices enter with
# opposite sign because they sit on the complementary branch.
DEFAULT_WEIGHTS = (1.0, 0.3, -0.3, -1.0)

# Input-referred drift of the imbalance with temperature, volts per degC.
DEFAULT_TEMP_COEFF = 1.0e-4
TEMP_REF = 25.0


class MirrorKind(Enum):
    WIDE_SWING_CASCODE = "wide_swing_cascode"
    REDUCED_HEADROOM = "reduced_headroom"
    SIMPLE_CASCODE = "simple_cascode"


class SwitchingKind(Enum):
    POWER_GATED = "power_gated"
    NAIVE = "naive"


@dataclass(frozen=True)
class MirrorConfig:
    """Current-mirror topology parameters.

    gain is the dimensionless slope of the tanh stage; larger gain means a
    sharper transition and more rail-saturated cells.  asymmetry_offset is
    a systematic imbalance (volts) the topology itself contributes, zero
    for a well-balanced mirror.
    """

    kind: MirrorKind
    gain: float
    asymmetry_offset: float = 0.0
    bias_current: float = 4.3e-6

    def __post_init__(self) -> None:
        if not self.gain > 0.0:  # NaN fails too
            raise ValueError(f"gain must be > 0, got {self.gain}")
        if not self.bias_current > 0.0:
            raise ValueError(f"bias_current must be > 0, got {self.bias_current}")


def wide_swing_mirror() -> MirrorConfig:
    """Reference topology: highest gain, no systematic asymmetry."""
    return MirrorConfig(kind=MirrorKind.WIDE_SWING_CASCODE, gain=300.0, asymmetry_offset=0.0)


def reduced_headroom_mirror() -> MirrorConfig:
    return MirrorConfig(kind=MirrorKind.REDUCED_HEADROOM, gain=180.0, asymmetry_offset=0.05)


def simple_cascode_mirror() -> MirrorConfig:
    return MirrorConfig(kind=MirrorKind.SIMPLE_CASCODE, gain=120.0, asymmetry_offset=-0.08)


@dataclass(frozen=True)
class SwitchingConfig:
    """Row/column switching scheme and its corner-dependent bias leakage.

    corner_offsets maps each process corner to a systematic shift (volts)
    the switching network injects into the cell imbalance.  A power-gated
    scheme keeps every offset at or below 1 mV; that bound is enforced
    here because it is what the scheme's name promises.
    """

    kind: SwitchingKind
    corner_offsets: dict[ProcessCorner, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for c in ProcessCorner:
            if c not in self.corner_offsets:
                raise ValueError(f"corner_offsets missing {c.value}")
        if self.kind is SwitchingKind.POWER_GATED:
            worst = max(abs(v) for v in self.corner_offsets.values())
            if worst > 1.0e-3:
                raise ValueError(
                    f"power-gated switching must keep |offset| <= 1 mV, got {worst:.4g} V"
                )

    def offset(self, corner: ProcessCorner) -> float:
        return self.corner_offsets[corner]


def power_gated_switching() -> SwitchingConfig:
    """Switching network that is cut off when a cell is idle.

    Only the skewed corners (SF, FS) leave a residual imbalance and it is
    held under a millivolt, small against typical mismatch.
    """
    return SwitchingConfig(
        kind=SwitchingKind.POWER_GATED,
        corner_offsets={
            ProcessCorner.TT: 0.0,
            ProcessCorner.SS: 0.0,
            ProcessCorner.FF: 0.0,
            ProcessCorner.SF: 5.0e-4,
            ProcessCorner.FS: -5.0e-4,
        },
    )


def naive_switching() -> SwitchingConfig:
    """Always-on switching: skewed corners push tens of millivolts."""
    return SwitchingConfig(
        kind=SwitchingKind.NAIVE,
        corner_offsets={
            ProcessCorner.TT: 0.0,
            ProcessCorner.SS: 0.0,
            ProcessCorner.FF: 0.0,
            ProcessCorner.SF: 0.04,
            ProcessCorner.FS: -0.04,
        },
    )


@dataclass(frozen=True)
class Conditions:
    """Environment a cell is read under.

    noise_sigma is the standard deviation (volts) of zero-mean Gaussian
    read noise added to the effective imbalance; noise_seed feeds the
    generator so repeated reads are reproducible.
    """

    temperature: float = 25.0
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not (-20.0 <= self.temperature <= 100.0):
            raise ValueError(
                f"temperature must be within [-20, 100] degC, got {self.temperature}"
            )
        if not self.noise_sigma >= 0.0:  # NaN fails too
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class TransferModel:
    """Mismatch-to-voltage map for one cell.

    weights are the per-transistor contributions (pm1, pm2, nm1, nm2) to
    the effective imbalance.  The pairs (pm1, nm2) and (pm2, nm1) must be
    equal and opposite: the two branches are electrically symmetric, so a
    deviation on one branch and the mirror-image deviation on the other
    must cancel.
    """

    mirror: MirrorConfig
    switching: SwitchingConfig
    vdd: float = VDD_DEFAULT
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    temp_coeff: float = DEFAULT_TEMP_COEFF
    temp_ref: float = TEMP_REF

    def __post_init__(self) -> None:
        if not self.vdd > 0.0:  # NaN fails too
            raise ValueError(f"vdd must be > 0, got {self.vdd}")
        if not math.isfinite(self.temp_coeff):
            raise ValueError(f"temp_coeff must be finite, got {self.temp_coeff}")
        if len(self.weights) != 4:
            raise ValueError("weights must have four entries (pm1, pm2, nm1, nm2)")
        w_pm1, w_pm2, w_nm1, w_nm2 = self.weights
        if not (math.isclose(w_pm1, -w_nm2) and math.isclose(w_pm2, -w_nm1)):
            raise ValueError(
                "branch symmetry requires w_pm1 == -w_nm2 and w_pm2 == -w_nm1, "
                f"got {self.weights}"
            )


def default_model() -> TransferModel:
    """Wide-swing mirror with power-gated switching, the reference design."""
    return TransferModel(mirror=wide_swing_mirror(), switching=power_gated_switching())


def effective_mismatch(
    model: TransferModel,
    dvth: np.ndarray,
    offset: np.ndarray | float,
    temperature: float,
    noise: np.ndarray | float | None = None,
) -> np.ndarray:
    """The one imbalance stage: (..., 4) deviations to (...) imbalances in volts.

    delta = (w_pm1 * pm1 + w_nm1 * nm1) + (w_pm2 * pm2 + w_nm2 * nm2)
          + offset, the switching network's corner offset
          + temp_coeff * (temperature - temp_ref)
          + mirror asymmetry offset
          + noise

    ``dvth`` is ordered as ``TRANSISTORS``.  The deviations sum pairwise in
    the order above, elementwise, so every caller's imbalance is the same
    float whatever the batch shape.  ``noise`` is pre-drawn: drawing is the
    caller's job so that batched reads can share one generator.
    """
    w_pm1, w_pm2, w_nm1, w_nm2 = model.weights
    delta = (w_pm1 * dvth[..., 0] + w_nm1 * dvth[..., 2]) + (
        w_pm2 * dvth[..., 1] + w_nm2 * dvth[..., 3]
    )
    delta += offset
    delta += model.temp_coeff * (temperature - model.temp_ref)
    delta += model.mirror.asymmetry_offset
    if noise is not None:
        delta += noise
    return delta


def transfer(model: TransferModel, delta: float) -> float:
    """Saturating stage: imbalance (volts) to output voltage in [0, vdd].

    v = (vdd / 2) * (1 + tanh(gain * delta / vdd))

    Strictly increasing in delta and odd-symmetric about (0, vdd / 2).
    Mathematically the output never reaches a rail for finite delta; in
    float64 the tanh saturates once gain * |delta| / vdd exceeds about 19,
    so far-rail outputs land exactly on 0 or vdd.  One element of ``transfer_array``.
    """
    return float(transfer_array(model, delta))


def transfer_array(model: TransferModel, delta: np.ndarray | float) -> np.ndarray:
    """``transfer`` elementwise: the one tanh stage (``np.tanh``) every read uses."""
    return 0.5 * model.vdd * (1.0 + np.tanh(model.mirror.gain * np.asarray(delta) / model.vdd))


def transfer_curve(
    model: TransferModel, lo: float, hi: float, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled transfer characteristic over [lo, hi] volts of imbalance."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    deltas = np.linspace(lo, hi, n_points)
    return deltas, transfer_array(model, deltas)

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
that the multi-bit quantizer downstream is shaped around.  The presets,
by their CLI names, are the tables ``MIRRORS`` and ``SWITCHING``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import check_range
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
        if not isinstance(self.kind, MirrorKind):
            raise TypeError(f"kind must be a MirrorKind, got {self.kind!r}")
        check_range("gain", self.gain, 0, open_lo=True)
        check_range("asymmetry_offset", self.asymmetry_offset)
        check_range("bias_current", self.bias_current, 0, open_lo=True)


# The wide-swing cascode is the reference topology: highest gain, no asymmetry.
MIRRORS = {
    "wide": MirrorConfig(kind=MirrorKind.WIDE_SWING_CASCODE, gain=300.0, asymmetry_offset=0.0),
    "reduced": MirrorConfig(kind=MirrorKind.REDUCED_HEADROOM, gain=180.0, asymmetry_offset=0.05),
    "simple": MirrorConfig(kind=MirrorKind.SIMPLE_CASCODE, gain=120.0, asymmetry_offset=-0.08),
}


@dataclass(frozen=True)
class SwitchingConfig:
    """Row/column switching scheme and its corner-dependent bias leakage.

    corner_offsets maps each process corner to a systematic shift (volts)
    the switching network injects into the cell imbalance.  A power-gated
    scheme keeps every offset at or below 1 mV; that bound is enforced
    here because it is what the scheme's name promises.  ``SWITCHING``'s
    instances are shared, so nothing mutates corner_offsets; it stays a
    plain dict, since a read-only mapping proxy cannot be pickled.
    """

    kind: SwitchingKind
    corner_offsets: dict[ProcessCorner, float]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SwitchingKind):
            raise TypeError(f"kind must be a SwitchingKind, got {self.kind!r}")
        for key in self.corner_offsets:
            if not isinstance(key, ProcessCorner):
                raise TypeError(f"corner_offsets key must be a ProcessCorner, got {key!r}")
        for c in ProcessCorner:
            if c not in self.corner_offsets:
                raise ValueError(f"corner_offsets missing {c.value}")
            check_range(f"corner_offsets[{c.value}]", self.corner_offsets[c])
        if self.kind is SwitchingKind.POWER_GATED:
            worst = max(abs(v) for v in self.corner_offsets.values())
            if worst > 1.0e-3:
                raise ValueError(
                    f"power-gated switching must keep |offset| <= 1 mV, got {worst:.4g} V"
                )

    def offset(self, corner: ProcessCorner) -> float:
        return self.corner_offsets[corner]


SWITCHING = {
    # cut off when a cell is idle: only the skewed corners leave an offset, under a millivolt
    "gated": SwitchingConfig(SwitchingKind.POWER_GATED, {
        ProcessCorner.TT: 0.0,
        ProcessCorner.SS: 0.0,
        ProcessCorner.FF: 0.0,
        ProcessCorner.SF: 5.0e-4,
        ProcessCorner.FS: -5.0e-4,
    }),
    # always on: the skewed corners push tens of millivolts
    "naive": SwitchingConfig(SwitchingKind.NAIVE, {
        ProcessCorner.TT: 0.0,
        ProcessCorner.SS: 0.0,
        ProcessCorner.FF: 0.0,
        ProcessCorner.SF: 0.04,
        ProcessCorner.FS: -0.04,
    }),
}


@dataclass(frozen=True)
class Conditions:
    """Environment a cell is read under.

    noise_sigma is the standard deviation (volts) of zero-mean Gaussian
    read noise added to the effective imbalance; noise_seed, in [0, 2**64),
    is the base each read's own noise seed derives from (``crp.record_seed``),
    so repeated reads are reproducible.
    """

    temperature: float = TEMP_REF
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        check_conditions(self.temperature, self.noise_sigma)
        check_range("noise_seed", self.noise_seed, 0, 2**64 - 1, integer=True)


def check_conditions(temperature, noise_sigma) -> None:
    """The read-condition rule, on one read or on columns: temperature, then noise sigma."""
    check_range("temperature", temperature, -20, 100, rule="be within [-20, 100] degC")
    check_range("noise_sigma", noise_sigma, 0)


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
        check_range("vdd", self.vdd, 0, open_lo=True)
        check_range("temp_coeff", self.temp_coeff)
        check_range("temp_ref", self.temp_ref)
        if len(self.weights) != 4:
            raise ValueError("weights must have four entries (pm1, pm2, nm1, nm2)")
        check_range("weights", self.weights)
        w_pm1, w_pm2, w_nm1, w_nm2 = self.weights
        if not (math.isclose(w_pm1, -w_nm2) and math.isclose(w_pm2, -w_nm1)):
            raise ValueError(
                "branch symmetry requires w_pm1 == -w_nm2 and w_pm2 == -w_nm1, "
                f"got {self.weights}"
            )


def default_model() -> TransferModel:
    """Wide-swing mirror with power-gated switching, the reference design."""
    return TransferModel(mirror=MIRRORS["wide"], switching=SWITCHING["gated"])


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
    float whatever the batch shape.  ``noise`` is pre-drawn by the caller:
    ``crp.generate`` draws each read's from its own record seed, and ``mc``
    from its Generator.
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


def transfer_array(model: TransferModel, delta: np.ndarray | float) -> np.ndarray:
    """The one saturating stage every read uses: imbalance (volts) to output voltage in [0, vdd].

    v = (vdd / 2) * (1 + tanh(gain * delta / vdd)), elementwise with ``np.tanh``

    Strictly increasing in delta and odd-symmetric about (0, vdd / 2).
    Mathematically the output never reaches a rail for finite delta; in
    float64 the tanh saturates once gain * |delta| / vdd exceeds about 19,
    so far-rail outputs land exactly on 0 or vdd.
    """
    return 0.5 * model.vdd * (1.0 + np.tanh(model.mirror.gain * np.asarray(delta) / model.vdd))


def transfer_curve(
    model: TransferModel, lo: float, hi: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled transfer characteristic over [lo, hi] volts of imbalance."""
    check_range("points", points, 2, integer=True)
    check_range("lo", lo)
    check_range("hi", hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    deltas = np.linspace(lo, hi, points)
    return deltas, transfer_array(model, deltas)

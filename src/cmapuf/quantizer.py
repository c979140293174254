"""Non-uniform scalar quantizer fitted to the cell output distribution.

The tanh stage pushes most cell voltages toward the rails, so a uniform
partition of [0, vdd] wastes codes on nearly empty mid-range intervals.
A Lloyd-Max fit places region boundaries where the distribution actually
lives: dense regions get narrow intervals, and the downstream converter
then spends more resolution where samples crowd together.

The fitter is the classic alternation.  Given boundaries, each region's
representative moves to the mean of the samples inside it (the point that
minimises that region's squared error); given representatives, each
boundary moves to the midpoint between neighbours (the nearest-neighbour
rule for a scalar).  Each half-step can only lower the mean squared
error, so the iteration converges to a local optimum.  A fit refuses
samples with fewer distinct values than regions.

A spec's regions and precisions must fit the 11-bit response word: the
field widths are defined here, and ``adc`` packs the word from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import read_json, write_json

DEFAULT_TOL = 1.0e-6
DEFAULT_MAX_ITER = 1000

# Fitted five-region partition of [0, 1.8] for the reference design, with
# converter precision assigned by region occupancy (dense outer regions
# get 8 bits, the sparse middle 6).
DEFAULT_BOUNDARIES = (0.0, 0.1451, 0.6596, 1.3308, 1.6978, 1.8)
DEFAULT_BITS = (8, 7, 6, 7, 8)

# The response word's fields: a 1-based region number, then the in-region code.
REGION_FIELD_BITS = 3
CODE_FIELD_BITS = 8
MAX_REGIONS = (1 << REGION_FIELD_BITS) - 1


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sample set a quantizer is fitted against, all within [0, vdd]."""

    samples: np.ndarray
    vdd: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.vdd > 0.0:  # NaN fails too
            raise ValueError(f"vdd must be > 0, got {self.vdd}")
        outside = ~((samples >= 0.0) & (samples <= self.vdd))  # NaN is outside too
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"samples must lie within [0, {self.vdd}], got {float(samples[i])} at index {i}"
            )


@dataclass(frozen=True)
class QuantizerSpec:
    """A fitted partition of [0, vdd] into k contiguous regions.

    boundaries has k + 1 entries, strictly increasing, pinned to 0 and
    vdd at the ends.  Region i (1-based, matching the encoded region
    number) spans [boundaries[i-1], boundaries[i]).  bits_per_region sets
    the converter precision used inside each region and centroids are the
    fitted representatives.  A spec holds at most ``MAX_REGIONS`` regions
    and at most ``CODE_FIELD_BITS`` bits per region, what the response word
    holds.
    """

    boundaries: tuple[float, ...]
    bits_per_region: tuple[int, ...]
    centroids: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.bits_per_region)
        if k < 1:
            raise ValueError("need at least one region")
        _refuse_wider_than_the_word(k, self.bits_per_region)
        if len(self.boundaries) != k + 1:
            raise ValueError(
                f"{k} regions need {k + 1} boundaries, got {len(self.boundaries)}"
            )
        if len(self.centroids) != k:
            raise ValueError(f"{k} regions need {k} centroids, got {len(self.centroids)}")
        if self.boundaries[0] != 0.0:
            raise ValueError(f"first boundary must be 0, got {self.boundaries[0]}")
        b = np.asarray(self.boundaries)
        if not np.all(np.diff(b) > 0.0):
            raise ValueError(f"boundaries must be strictly increasing, got {self.boundaries}")
        for i, (c, bit) in enumerate(zip(self.centroids, self.bits_per_region)):
            if not (self.boundaries[i] <= c <= self.boundaries[i + 1]):
                raise ValueError(
                    f"centroid {c} of region {i + 1} outside "
                    f"[{self.boundaries[i]}, {self.boundaries[i + 1]}]"
                )
            if bit < 1:
                raise ValueError(f"bits_per_region must be >= 1, got {bit}")

    @property
    def k(self) -> int:
        return len(self.bits_per_region)

    @property
    def vdd(self) -> float:
        return self.boundaries[-1]


def _refuse_wider_than_the_word(k: int, bits_per_region: tuple[int, ...]) -> None:
    """Raise for more regions, or a wider precision, than the response word holds."""
    if k > MAX_REGIONS:
        raise ValueError(f"the response word holds at most {MAX_REGIONS} regions, got k={k}")
    for bit in bits_per_region:
        if bit > CODE_FIELD_BITS:
            raise ValueError(
                f"bits_per_region must be <= {CODE_FIELD_BITS}, the response word's code "
                f"width, got {bit}"
            )


def default_regions() -> QuantizerSpec:
    """The shipped five-region partition for the reference design."""
    mids = tuple(
        0.5 * (lo + hi) for lo, hi in zip(DEFAULT_BOUNDARIES[:-1], DEFAULT_BOUNDARIES[1:])
    )
    return QuantizerSpec(
        boundaries=DEFAULT_BOUNDARIES, bits_per_region=DEFAULT_BITS, centroids=mids
    )


def region_of(spec: QuantizerSpec, v: float) -> tuple[int, int]:
    """Map a voltage to its (region number, precision) pair.

    Region numbers are 1-based.  v == vdd folds into the last region, so
    the mapping is total on [0, vdd]; anything outside raises.  Past the
    range check this is one element of ``region_index_array``.
    """
    if not (0.0 <= v <= spec.vdd):
        raise ValueError(f"v must be within [0, {spec.vdd}], got {v}")
    idx = int(region_index_array(spec.boundaries, np.array([v]))[0])
    return idx + 1, spec.bits_per_region[idx]


def region_index_array(boundaries: tuple[float, ...] | np.ndarray, v: np.ndarray) -> np.ndarray:
    """The region lookup: 0-based region index over sorted boundaries (no range checking).

    Counts the interior boundaries at or below each voltage, so vdd falls in
    the last region and voltages beyond the rails clamp to the outer ones.  A
    comparison per boundary beats a binary search on both ES's small batches
    and the Lloyd-Max samples.
    """
    v = np.asarray(v, dtype=float)
    idx = np.zeros(v.shape, dtype=np.int64)
    for b in boundaries[1:-1]:
        idx += v >= b
    return idx


def quantization_mse(
    boundaries: np.ndarray, centroids: np.ndarray, samples: np.ndarray
) -> float:
    """Mean squared error of representing each sample by its region centroid."""
    err = samples - centroids[region_index_array(boundaries, samples)]
    return float(np.mean(err * err))


def _lloyd_max_steps(
    dist: EmpiricalDistribution, k: int, tol: float, max_iter: int, trace: bool
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The fit: final boundaries and centroids, and the MSE of each iteration if ``trace``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not tol >= 0.0:  # a NaN tol would never stop the fit early
        raise ValueError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:  # no iteration would leave the uniform start unfitted
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    samples = np.sort(dist.samples)
    distinct = 1 + int(np.count_nonzero(np.diff(samples)))
    if distinct < k:  # some region would hold no sample
        raise ValueError(f"samples hold {distinct} distinct value(s), too few for k={k} regions")
    boundaries = np.linspace(0.0, dist.vdd, k + 1)
    centroids = 0.5 * (boundaries[:-1] + boundaries[1:])
    mse_trace: list[float] = []
    for _ in range(max_iter):
        # centroid step: region means, with empty regions re-seeded at the
        # midpoint of the currently most populous region so they can claim
        # a share of its mass next round
        idx = region_index_array(boundaries, samples)
        counts = np.bincount(idx, minlength=k)
        sums = np.bincount(idx, weights=samples, minlength=k)
        busiest = int(np.argmax(counts))
        fallback = 0.5 * (boundaries[busiest] + boundaries[busiest + 1])
        centroids = np.where(counts > 0, sums / np.maximum(counts, 1), fallback)
        centroids = np.sort(centroids)
        # boundary step: nearest-neighbour midpoints, ends stay pinned
        new_boundaries = boundaries.copy()
        new_boundaries[1:-1] = 0.5 * (centroids[:-1] + centroids[1:])
        moved = float(np.max(np.abs(new_boundaries - boundaries)))
        boundaries = new_boundaries
        if trace:
            mse_trace.append(quantization_mse(boundaries, centroids, samples))
        if moved < tol:
            break
    return boundaries, centroids, mse_trace


def lloyd_max(
    dist: EmpiricalDistribution,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    bits_per_region: tuple[int, ...] | None = None,
) -> QuantizerSpec:
    """Fit a k-region quantizer to an empirical distribution.

    Runs the centroid/boundary alternation from a uniform initial
    partition until the largest boundary movement in one iteration falls
    below tol (or max_iter is hit).  bits_per_region defaults to 8 bits
    everywhere; pass an explicit tuple to assign mixed precision.  A k or a
    precision the response word cannot hold is refused before the fit.
    """
    if bits_per_region is None:
        bits_per_region = (CODE_FIELD_BITS,) * k
    if len(bits_per_region) != k:
        raise ValueError(f"bits_per_region must have {k} entries")
    _refuse_wider_than_the_word(k, bits_per_region)
    boundaries, centroids, _ = _lloyd_max_steps(dist, k, tol, max_iter, trace=False)
    # fitted interior boundaries can coincide only if two centroids collide,
    # which the empty-region rule prevents for sample sets with >= k distinct
    # values; the spec constructor still checks monotonicity
    return QuantizerSpec(
        boundaries=tuple(float(b) for b in boundaries),
        bits_per_region=tuple(bits_per_region),
        centroids=tuple(float(c) for c in centroids),
    )


def lloyd_max_mse_trace(
    dist: EmpiricalDistribution,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[float]:
    """Per-iteration quantization MSE of the fit, for convergence checks."""
    _, _, trace = _lloyd_max_steps(dist, k, tol, max_iter, trace=True)
    return trace


def save_spec(spec: QuantizerSpec, path: str | Path) -> None:
    write_json(path, spec)


def load_spec(path: str | Path) -> QuantizerSpec:
    return read_json(path, QuantizerSpec)

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
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .codec import check_range
from .word import CODE_FIELD_BITS, check_word_field

DEFAULT_TOL = 1.0e-6
DEFAULT_MAX_ITER = 1000

# Fitted five-region partition of [0, 1.8] for the reference design, with
# converter precision assigned by region occupancy (dense outer regions
# get 8 bits, the sparse middle 6).
DEFAULT_BOUNDARIES = (0.0, 0.1451, 0.6596, 1.3308, 1.6978, 1.8)
DEFAULT_BITS = (8, 7, 6, 7, 8)

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
        check_range("vdd", self.vdd, 0, open_lo=True)
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
    fitted representatives.
    """

    boundaries: tuple[float, ...]
    bits_per_region: tuple[int, ...]
    centroids: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.bits_per_region)
        check_word_field("region", k, "k")
        check_word_field("bits", self.bits_per_region, "bits_per_region")
        if len(self.boundaries) != k + 1:
            raise ValueError(f"{k} regions need {k + 1} boundaries, got {len(self.boundaries)}")
        if len(self.centroids) != k:
            raise ValueError(f"{k} regions need {k} centroids, got {len(self.centroids)}")
        if self.boundaries[0] != 0.0:
            raise ValueError(f"first boundary must be 0, got {self.boundaries[0]}")
        b = np.asarray(self.boundaries)
        check_range("boundaries", b)  # an infinite last boundary would pass as increasing
        if not np.all(np.diff(b) > 0.0):
            raise ValueError(f"boundaries must be strictly increasing, got {self.boundaries}")
        region = lambda i: f"be within region {i + 1}'s [{b[i]}, {b[i + 1]}]"
        check_range("centroids", self.centroids, b[:-1], b[1:], rule=region)

    @property
    def k(self) -> int:
        return len(self.bits_per_region)

    @property
    def vdd(self) -> float:
        return self.boundaries[-1]


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
    the mapping is total on [0, vdd]; anything outside raises.  Past
    ``check_volts`` this is one element of ``region_index_array``.
    """
    check_volts(spec, v)
    idx = int(region_index_array(spec.boundaries, np.array([v]))[0])
    return idx + 1, spec.bits_per_region[idx]


def check_volts(spec: QuantizerSpec, v: np.ndarray | float) -> None:
    """The voltage rule of the region lookup and the converter: within [0, vdd]."""
    check_range("v", v, 0, spec.vdd)


def region_index_array(boundaries: tuple[float, ...] | np.ndarray, v: np.ndarray) -> np.ndarray:
    """The region lookup: 0-based region index over sorted boundaries (no range checking).

    Counts the interior boundaries at or below each voltage, one binary search
    per voltage, so vdd falls in the last region and voltages beyond the rails
    clamp to the outer ones.  A NaN would land in the last region: every caller
    refuses it first.  The Lloyd-Max fit reads its regions as runs of its
    sorted samples, cut by the same rule, and a test holds the fit to this
    lookup's route.
    """
    return np.searchsorted(np.asarray(boundaries)[1:-1], np.asarray(v, dtype=float), "right")


def quantization_mse(
    boundaries: np.ndarray, centroids: np.ndarray, samples: np.ndarray
) -> float:
    """Mean squared error of representing each sample by its region centroid."""
    err = samples - centroids[region_index_array(boundaries, samples)]
    return float(np.mean(err * err))


def _lloyd_max_steps(
    dist: EmpiricalDistribution, k: int, tol: float, max_iter: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The fit as it goes: each iteration's boundaries and centroids, the last the fitted ones."""
    check_word_field("region", k, "k")
    check_range("tol", tol, 0)  # a NaN tol would never stop the fit, an infinite one at once
    # no iteration would leave the uniform start unfitted
    check_range("max_iter", max_iter, 1, integer=True)
    samples = np.sort(dist.samples)
    distinct = 1 + int(np.count_nonzero(np.diff(samples)))
    if distinct < k:  # some region would hold no sample
        raise ValueError(f"samples hold {distinct} distinct value(s), too few for k={k} regions")
    boundaries = np.linspace(0.0, dist.vdd, k + 1)
    for _ in range(max_iter):
        # centroid step: region means, with empty regions re-seeded at the
        # midpoint of the currently most populous region so they can claim
        # a share of its mass next round.  Each region is one run of the
        # sorted samples, cut by region_index_array's rule: a run starts at
        # the first sample at or above its interior boundary.
        edges = np.searchsorted(samples, boundaries[1:-1], "left")
        edges = np.concatenate(([0], edges, [samples.size]))
        counts = np.diff(edges)
        sums = np.bincount(np.repeat(np.arange(k), counts), weights=samples, minlength=k)
        busiest = int(np.argmax(counts))
        fallback = 0.5 * (boundaries[busiest] + boundaries[busiest + 1])
        centroids = np.where(counts > 0, sums / np.maximum(counts, 1), fallback)
        centroids = np.sort(centroids)
        # boundary step: nearest-neighbour midpoints, ends stay pinned
        new_boundaries = boundaries.copy()
        new_boundaries[1:-1] = 0.5 * (centroids[:-1] + centroids[1:])
        moved = float(np.max(np.abs(new_boundaries - boundaries)))
        boundaries = new_boundaries
        yield boundaries, centroids
        if moved < tol:
            return


def lloyd_max(
    dist: EmpiricalDistribution,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    bits_per_region: Sequence[int] | None = None,
) -> QuantizerSpec:
    """Fit a k-region quantizer to an empirical distribution.

    Runs the centroid/boundary alternation from a uniform initial
    partition until the largest boundary movement in one iteration falls
    below tol (or max_iter is hit).  bits_per_region defaults to the paper's
    ``DEFAULT_BITS`` at k=5, else 8 bits everywhere.  A k, then a precision, that the
    response word cannot hold, then a table not of k entries is refused before the fit.
    """
    check_word_field("region", k, "k")
    if bits_per_region is None:
        bits_per_region = DEFAULT_BITS if k == len(DEFAULT_BITS) else (CODE_FIELD_BITS,) * k
    check_word_field("bits", bits_per_region, "bits_per_region")
    if len(bits_per_region) != k:
        raise ValueError(f"bits_per_region must have {k} entries, got {len(bits_per_region)}")
    *_, (boundaries, centroids) = _lloyd_max_steps(dist, k, tol, max_iter)
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
    """Per-iteration quantization MSE of the fit on its sorted samples, for convergence checks."""
    samples = np.sort(dist.samples)
    return [quantization_mse(b, c, samples) for b, c in _lloyd_max_steps(dist, k, tol, max_iter)]

import json
import re

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf.quantizer import (
    DEFAULT_BITS,
    DEFAULT_BOUNDARIES,
    EmpiricalDistribution,
    QuantizerSpec,
    default_regions,
    lloyd_max,
    lloyd_max_mse_trace,
    load_spec,
    quantization_mse,
    region_index_array,
    region_of,
    save_spec,
)

VDD = 1.8


def grid_search_two_regions(samples: np.ndarray, step: float = 1e-3) -> float:
    """Independent oracle: exhaustive scan of the single k=2 boundary.

    For a two-region quantizer, MSE as a function of the one interior
    boundary can be scanned directly: for every candidate boundary the
    optimal representatives are the two side means.
    """
    best_b, best_mse = None, np.inf
    for b in np.arange(step, VDD, step):
        left, right = samples[samples < b], samples[samples >= b]
        if left.size == 0 or right.size == 0:
            continue
        mse = (
            np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
        ) / samples.size
        if mse < best_mse:
            best_b, best_mse = b, mse
    return best_b


def clipped_mixture(rng, centers, sigmas, weights, n=4000):
    parts = []
    counts = (np.asarray(weights) * n).astype(int)
    for c, s, m in zip(centers, sigmas, counts):
        parts.append(rng.normal(c, s, m))
    return np.clip(np.concatenate(parts), 0.0, VDD)


@pytest.mark.parametrize(
    "centers,sigmas,weights",
    [
        # the clusters must overlap: with a support gap between them every
        # boundary inside the gap has identical MSE and the comparison is
        # ill-posed
        ((0.5, 1.3), (0.25, 0.25), (0.5, 0.5)),
        ((0.4, 1.1), (0.20, 0.30), (0.6, 0.4)),
        ((0.7, 1.4), (0.30, 0.15), (0.5, 0.5)),
    ],
)
def test_k2_matches_grid_search_oracle(centers, sigmas, weights):
    rng = np.random.default_rng(hash(centers) % 2**32)
    samples = clipped_mixture(rng, centers, sigmas, weights)
    dist = EmpiricalDistribution(samples=samples, vdd=VDD)
    fitted = lloyd_max(dist, 2)
    oracle_b = grid_search_two_regions(samples)
    assert abs(fitted.boundaries[1] - oracle_b) < 0.01


def test_k2_mse_ties_oracle_even_with_support_gap():
    # clusters far enough apart that the gap between them holds no
    # samples: every boundary inside the gap gives the same MSE, so the
    # boundary location is arbitrary there -- but the achieved MSE is
    # not, and the fit must tie the exhaustive scan (or beat its 1 mV
    # grid resolution)
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        samples = clipped_mixture(rng, (0.2, 1.6), (0.05, 0.05), (0.5, 0.5), n=200)
        fitted = lloyd_max(EmpiricalDistribution(samples, VDD), 2)
        fitted_mse = quantization_mse(
            np.array(fitted.boundaries), np.array(fitted.centroids), samples
        )
        b = grid_search_two_regions(samples)
        left, right = samples[samples < b], samples[samples >= b]
        oracle_mse = (
            np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
        ) / samples.size
        assert fitted_mse <= oracle_mse + 1e-6


def test_uniform_distribution_splits_at_midpoint():
    # evenly spread samples make the k=2 fixed point analytic: halves
    # average to vdd/4 and 3*vdd/4, whose midpoint is vdd/2
    samples = np.linspace(0.0, VDD, 10_001)
    spec = lloyd_max(EmpiricalDistribution(samples, VDD), 2)
    assert abs(spec.boundaries[1] - 0.9) < 1e-3
    assert abs(spec.centroids[0] - 0.45) < 1e-3
    assert abs(spec.centroids[1] - 1.35) < 1e-3


def test_single_region_centroid_is_the_mean():
    rng = np.random.default_rng(6)
    samples = np.clip(rng.normal(1.0, 0.3, 500), 0.0, VDD)
    spec = lloyd_max(EmpiricalDistribution(samples, VDD), 1)
    assert spec.boundaries == (0.0, VDD)
    assert spec.centroids[0] == pytest.approx(samples.mean())


def test_mse_non_increasing_on_random_distributions():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.1, 1.7, size=3)
        samples = clipped_mixture(rng, centers, (0.08, 0.12, 0.1), (0.4, 0.3, 0.3))
        trace = lloyd_max_mse_trace(EmpiricalDistribution(samples, VDD), 5)
        assert len(trace) >= 1
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-15), f"seed {seed}: MSE increased by {diffs.max()}"


def test_converged_boundaries_are_centroid_midpoints():
    rng = np.random.default_rng(3)
    samples = clipped_mixture(rng, (0.25, 1.55), (0.1, 0.12), (0.55, 0.45))
    spec = lloyd_max(EmpiricalDistribution(samples, VDD), 4)
    b, c = np.array(spec.boundaries), np.array(spec.centroids)
    np.testing.assert_allclose(b[1:-1], 0.5 * (c[:-1] + c[1:]), atol=1e-6)
    # and centroids are the region means of the final partition
    idx = region_index_array(spec.boundaries, samples)
    means = np.array([samples[idx == i].mean() for i in range(spec.k)])
    np.testing.assert_allclose(c, means, atol=1e-5)


def test_fit_beats_uniform_partition():
    rng = np.random.default_rng(8)
    samples = clipped_mixture(rng, (0.15, 1.6), (0.07, 0.07), (0.5, 0.5))
    spec = lloyd_max(EmpiricalDistribution(samples, VDD), 5)
    uniform_b = np.linspace(0.0, VDD, 6)
    uniform_c = 0.5 * (uniform_b[:-1] + uniform_b[1:])
    fitted = quantization_mse(np.array(spec.boundaries), np.array(spec.centroids), samples)
    uniform = quantization_mse(uniform_b, uniform_c, samples)
    assert fitted < uniform


def test_empty_region_reseeded_not_stuck():
    # all mass in two tight clusters: three of five uniform initial regions
    # start empty, the re-seeding rule must still spread boundaries out
    rng = np.random.default_rng(1)
    samples = np.clip(
        np.concatenate([rng.normal(0.05, 0.01, 3000), rng.normal(1.75, 0.01, 3000)]),
        0.0,
        VDD,
    )
    spec = lloyd_max(EmpiricalDistribution(samples, VDD), 5)
    assert np.all(np.diff(spec.boundaries) > 0.0)
    assert spec.boundaries[0] == 0.0 and spec.boundaries[-1] == VDD


def test_boundaries_pinned_and_increasing():
    rng = np.random.default_rng(4)
    samples = np.clip(rng.normal(0.9, 0.4, 5000), 0.0, VDD)
    for k in (1, 2, 3, 5, 7):
        spec = lloyd_max(EmpiricalDistribution(samples, VDD), k)
        assert spec.boundaries[0] == 0.0
        assert spec.boundaries[-1] == VDD
        assert np.all(np.diff(spec.boundaries) > 0.0)
        assert spec.k == k


def test_default_regions_table():
    spec = default_regions()
    assert spec.boundaries == DEFAULT_BOUNDARIES
    assert spec.bits_per_region == DEFAULT_BITS
    assert spec.boundaries == (0.0, 0.1451, 0.6596, 1.3308, 1.6978, 1.8)
    assert spec.bits_per_region == (8, 7, 6, 7, 8)
    assert spec.vdd == 1.8 and spec.k == 5


def test_region_of_agrees_with_interval_scan():
    spec = default_regions()
    for v in np.linspace(0.0, VDD, 10_000):
        region, bits = region_of(spec, float(v))
        expected = None
        for i in range(spec.k):
            lo, hi = spec.boundaries[i], spec.boundaries[i + 1]
            if (lo <= v < hi) or (i == spec.k - 1 and v == hi):
                expected = i + 1
                break
        assert region == expected
        assert bits == spec.bits_per_region[region - 1]


def test_region_of_edges():
    spec = default_regions()
    assert region_of(spec, 0.0) == (1, 8)
    assert region_of(spec, 1.8) == (5, 8)
    assert region_of(spec, 0.1451) == (2, 7)  # boundary belongs to the upper region
    with pytest.raises(ValueError):
        region_of(spec, -0.01)
    with pytest.raises(ValueError):
        region_of(spec, 1.81)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(boundaries=(0.0, 1.8), bits_per_region=(8, 8), centroids=(0.5, 1.0))
    with pytest.raises(ValueError):
        QuantizerSpec(boundaries=(0.1, 1.8), bits_per_region=(8,), centroids=(0.5,))
    with pytest.raises(ValueError):
        QuantizerSpec(boundaries=(0.0, 1.0, 0.9, 1.8), bits_per_region=(8, 8, 8), centroids=(0.5, 0.95, 1.2))
    with pytest.raises(ValueError):
        QuantizerSpec(boundaries=(0.0, 1.0, 1.8), bits_per_region=(8, 8), centroids=(1.2, 1.5))
    with pytest.raises(ValueError):
        QuantizerSpec(boundaries=(0.0, 1.8), bits_per_region=(0,), centroids=(0.9,))


def test_a_spec_wider_than_the_word_is_refused(tmp_path):
    # 3 region bits hold regions 1-7, and the code field 8 bits
    b8 = tuple(i * VDD / 8 for i in range(9))
    mids8 = tuple((lo + hi) / 2 for lo, hi in zip(b8[:-1], b8[1:]))
    with pytest.raises(ValueError, match=r"^the response word holds at most 7 regions, got k=8$"):
        QuantizerSpec(boundaries=b8, bits_per_region=(8,) * 8, centroids=mids8)
    wide = "bits_per_region must be <= 8, the response word's code width, got 9"
    with pytest.raises(ValueError, match=f"^{re.escape(wide)}$"):
        QuantizerSpec(boundaries=(0.0, 0.9, VDD), bits_per_region=(8, 9), centroids=(0.45, 1.35))
    b7 = b8[:7] + (VDD,)
    widest = QuantizerSpec(boundaries=b7, bits_per_region=(8,) * 7, centroids=mids8[:6] + (1.7,))
    assert widest.k == 7
    # the fit refuses before it runs: one distinct sample would fail it otherwise
    flat = EmpiricalDistribution(np.array([0.9]), VDD)
    with pytest.raises(ValueError, match="at most 7 regions, got k=8"):
        lloyd_max(flat, 8)
    with pytest.raises(ValueError, match=re.escape(wide)):
        lloyd_max(flat, 2, bits_per_region=(9, 8))
    path = tmp_path / "k8.json"
    path.write_text(json.dumps({"boundaries": b8, "bits_per_region": [8] * 8, "centroids": mids8}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the response word holds"):
        load_spec(path)


def test_lloyd_max_argument_validation():
    dist = EmpiricalDistribution(np.linspace(0.1, 1.7, 50), VDD)
    with pytest.raises(ValueError):
        lloyd_max(dist, 0)
    with pytest.raises(ValueError, match="1 distinct value"):
        lloyd_max(EmpiricalDistribution(np.array([0.9]), VDD), 2)
    # five samples but two values: the first of three regions would hold none
    few = EmpiricalDistribution(np.array([0.2] * 3 + [1.5] * 2), VDD)
    for fit in (lloyd_max, lloyd_max_mse_trace):
        with pytest.raises(ValueError, match=r"2 distinct value\(s\), too few for k=3"):
            fit(few, 3)
    with pytest.raises(ValueError):
        lloyd_max(dist, 3, bits_per_region=(8, 8))
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.array([0.5, 2.0]), VDD)


def test_lloyd_max_needs_an_iteration():
    # with no iteration the uniform start would come back as a fit
    dist = EmpiricalDistribution(np.linspace(0.1, 1.7, 50), VDD)
    for max_iter in (0, -3):
        for fit in (lloyd_max, lloyd_max_mse_trace):
            with pytest.raises(ValueError, match=f"^max_iter must be >= 1, got {max_iter}$"):
                fit(dist, 5, max_iter=max_iter)
    assert len(lloyd_max_mse_trace(dist, 5, max_iter=1)) == 1


def test_spec_json_round_trip(tmp_path):
    spec = default_regions()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


@settings(max_examples=200, deadline=None)
@given(v=st.floats(0.0, VDD))
def test_region_of_total_and_consistent(v):
    spec = default_regions()
    region, bits = region_of(spec, v)
    assert 1 <= region <= spec.k
    assert bits == spec.bits_per_region[region - 1]
    assert region_index_array(spec.boundaries, np.array([v]))[0] == region - 1
    assert (region, bits) == oracle.region_of(spec, v)


@settings(max_examples=100, deadline=None)
@given(
    # up to 7 regions, the most a spec holds
    cuts=st.lists(st.floats(0.01, VDD - 0.01), max_size=6, unique=True),
    volts=st.lists(st.one_of(st.floats(-0.5, VDD + 0.5), st.just(VDD)), max_size=20),
)
def test_region_index_array_equals_the_binary_search(cuts, volts):
    # the lookup counts boundaries; the oracle bisects them; boundaries
    # themselves are drawn as voltages too
    boundaries = (0.0, *sorted(cuts), VDD)
    k = len(boundaries) - 1
    mids = tuple(0.5 * (lo + hi) for lo, hi in zip(boundaries[:-1], boundaries[1:]))
    spec = QuantizerSpec(boundaries=boundaries, bits_per_region=(8,) * k, centroids=mids)
    volts = np.array(volts + list(boundaries))
    inside = (volts >= 0.0) & (volts <= VDD)
    idx = region_index_array(boundaries, volts)
    expected = [oracle.region_of(spec, float(v))[0] - 1 for v in volts[inside]]
    assert idx[inside].tolist() == expected
    assert [region_of(spec, float(v))[0] - 1 for v in volts[inside]] == expected
    # beyond the rails the lookup clamps to the outer regions
    assert idx[volts < 0.0].tolist() == [0] * int(np.sum(volts < 0.0))
    assert idx[volts > VDD].tolist() == [k - 1] * int(np.sum(volts > VDD))
    for v in volts[~inside].tolist():
        message = f"^{re.escape(f'v must be within [0, {VDD}], got {v}')}$"
        for lookup in (region_of, oracle.region_of):
            with pytest.raises(ValueError, match=message):
                lookup(spec, v)

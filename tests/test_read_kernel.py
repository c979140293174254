"""The batched read kernel against the scalar route it replaces.

``generate`` is the one batched read, returning the dataset's columns,
and ``reliability`` re-reads a population through it; every record must
equal what ``record_seed`` -> ``evaluate`` -> ``convert`` ->
``encode_word`` gives for the same read, errors included.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmapuf.adc import AdcConfig, ResponseWord, convert, convert_array, encode_word, response_bits
from cmapuf.analog import (
    Conditions,
    MirrorConfig,
    MirrorKind,
    TransferModel,
    default_model,
    naive_switching,
    power_gated_switching,
)
from cmapuf.cellarray import Challenge, evaluate
from cmapuf.crp import bits_matrix, generate, record_seed, reliability
from cmapuf.quantizer import QuantizerSpec, default_regions
from cmapuf.variation import ProcessCorner, VariationConfig, synth_chip

VDD = 1.8


def oracle(chip, model, spec, adc_config, word, conditions):
    """One record the scalar way: (derived seed, response word)."""
    seed = record_seed(conditions.noise_seed, chip.chip_id, word)
    cond = Conditions(conditions.temperature, conditions.noise_sigma, seed)
    rng = np.random.default_rng(seed) if conditions.noise_sigma > 0.0 else None
    v = evaluate(model, chip, Challenge(word), cond, rng=rng)
    return seed, convert(adc_config, spec, v)


def oracle_bits(chip, model, spec, adc_config, words, conditions):
    rows = [encode_word(oracle(chip, model, spec, adc_config, w, conditions)[1]) for w in words]
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.int8)


@st.composite
def specs(draw):
    """Quantizers with 1 to 7 regions and mixed precision."""
    k = draw(st.integers(1, 7))
    cuts = draw(st.lists(st.floats(0.01, VDD - 0.01), min_size=k - 1, max_size=k - 1,
                         unique=True))
    boundaries = (0.0, *sorted(cuts), VDD)
    bits = tuple(draw(st.lists(st.integers(1, 8), min_size=k, max_size=k)))
    centroids = tuple(0.5 * (lo + hi) for lo, hi in zip(boundaries[:-1], boundaries[1:]))
    return QuantizerSpec(boundaries=boundaries, bits_per_region=bits, centroids=centroids)


@st.composite
def models(draw):
    switching = draw(st.sampled_from([naive_switching(), power_gated_switching()]))
    mirror = MirrorConfig(
        kind=MirrorKind.WIDE_SWING_CASCODE,
        gain=draw(st.floats(20.0, 400.0)),
        asymmetry_offset=draw(st.floats(-0.1, 0.1)),
    )
    return TransferModel(mirror=mirror, switching=switching,
                         temp_coeff=draw(st.floats(-1e-3, 1e-3)))


conditions = st.builds(
    Conditions,
    temperature=st.floats(-20.0, 100.0),
    noise_sigma=st.one_of(st.just(0.0), st.floats(1e-4, 0.01)),
    noise_seed=st.one_of(st.integers(0, 10), st.integers(2**32, 2**70)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corner=st.sampled_from(list(ProcessCorner)),
    chip_seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3, unique=True),
    sigma_vth=st.floats(0.0, 0.1),
    model=models(),
    spec=specs(),
    offset=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
    words=st.lists(st.integers(0, 255), min_size=1, max_size=24),
    cond=conditions,
)
def test_generate_equals_the_scalar_route(
    corner, chip_seeds, sigma_vth, model, spec, offset, words, cond
):
    chips = [
        synth_chip(VariationConfig(sigma_vth=sigma_vth, corner=corner, seed=s)) for s in chip_seeds
    ]
    adc_config = AdcConfig(comparator_residual_offset=offset)
    ds = generate(chips, model, spec, adc_config, words, cond)
    expected = [(c, w) for c in chips for w in words]
    assert len(ds) == len(expected)
    rows = []
    for i, (chip, word) in enumerate(expected):
        seed, response = oracle(chip, model, spec, adc_config, word, cond)
        assert (ds.chip_id[i], ds.challenge[i]) == (chip.chip_id, word)
        assert (ds.temperature[i], ds.noise_sigma[i]) == (cond.temperature, cond.noise_sigma)
        assert ds.noise_seed[i] == seed
        assert ResponseWord(ds.region[i], ds.code[i], ds.bits[i]) == response
        rows.append([int(ch) for ch in encode_word(response)])
    assert bits_matrix(ds).tolist() == rows


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corner=st.sampled_from(list(ProcessCorner)),
    chip_seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3, unique=True),
    spec=specs(),
    offset=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
    tests=st.lists(conditions, min_size=1, max_size=2),
)
def test_reliability_equals_the_scalar_route(corner, chip_seeds, spec, offset, tests):
    chips = [synth_chip(VariationConfig(corner=corner, seed=s)) for s in chip_seeds]
    model = TransferModel(mirror=default_model().mirror, switching=naive_switching())
    adc_config = AdcConfig(comparator_residual_offset=offset)
    words = range(256)
    ref = Conditions(temperature=25.0, noise_sigma=0.0)
    expected = []
    for chip in chips:
        ref_bits = oracle_bits(chip, model, spec, adc_config, words, ref)
        total = 0.0
        for cond in tests:
            got = oracle_bits(chip, model, spec, adc_config, words, cond)
            total += float((got != ref_bits).mean())
        expected.append(1.0 - total / len(tests))
    assert reliability(chips, model, spec, adc_config, tests) == expected


@pytest.mark.parametrize(
    "base", [0, 1, 2, 7, 2**32 - 1, 2**32, 2**40 + 5, 12345678901234567890, 2**64, 2**100 + 3]
)
def test_record_seeds_match_record_seed(base):
    chips = [synth_chip(VariationConfig(seed=s)) for s in (0, 9)]
    ds = generate(chips, default_model(), default_regions(), AdcConfig(), list(range(256)),
                  Conditions(noise_seed=base))
    seeds = ds.noise_seed.tolist()
    for chip_id, word, seed in zip(ds.chip_id.tolist(), ds.challenge.tolist(), seeds):
        assert seed == record_seed(base, chip_id, word)


def test_saturated_cells_read_the_rails_exactly():
    # at sigma 0.3 V most cells drive the tanh stage into float64
    # saturation, so v lands exactly on 0 or vdd
    chip = synth_chip(VariationConfig(sigma_vth=0.3, seed=4))
    model, spec = default_model(), default_regions()
    cond = Conditions()
    volts = [evaluate(model, chip, Challenge(w), cond) for w in range(256)]
    assert 0.0 in volts and VDD in volts
    for offset in (0.0, 0.01, -0.01):
        adc_config = AdcConfig(comparator_residual_offset=offset)
        ds = generate([chip], model, spec, adc_config, list(range(256)), cond)
        got = zip(ds.region.tolist(), ds.code.tolist(), ds.bits.tolist())
        assert [ResponseWord(*w) for w in got] == [convert(adc_config, spec, v) for v in volts]


def _scalar_error(config, spec, v):
    with pytest.raises(ValueError) as info:
        convert(config, spec, v)
    return re.escape(str(info.value))


def test_convert_array_raises_what_convert_raises():
    spec = default_regions()
    cfg = AdcConfig()
    for v in (-0.1, 1.9, float("nan")):
        volts = np.array([0.5, v, -1.0])  # the first rejected value is reported
        with pytest.raises(ValueError, match=_scalar_error(cfg, spec, v)):
            convert_array(cfg, spec, volts)
        with pytest.raises(ValueError, match=_scalar_error(cfg, spec, v)):
            response_bits(cfg, spec, volts)
    # an eighth region does not fit the 3-bit field, a 9-bit code not the 8-bit one
    b8 = tuple(i * VDD / 8 for i in range(9))
    mids = tuple((lo + hi) / 2 for lo, hi in zip(b8[:-1], b8[1:]))
    k8 = QuantizerSpec(boundaries=b8, bits_per_region=(8,) * 8, centroids=mids)
    wide = QuantizerSpec(boundaries=(0.0, 0.9, VDD), bits_per_region=(8, 9),
                         centroids=(0.45, 1.35))
    for bad_spec, v in ((k8, 1.79), (wide, 1.0)):
        volts = np.array([[0.1, 0.2], [v, v]])
        assert convert(cfg, bad_spec, 0.1)  # the low voltages convert fine
        with pytest.raises(ValueError, match=_scalar_error(cfg, bad_spec, v)):
            convert_array(cfg, bad_spec, volts)


def test_generate_raises_what_the_scalar_route_raises():
    chip = synth_chip(VariationConfig(seed=3))
    spec, cfg = default_regions(), AdcConfig()
    model = default_model()
    with pytest.raises(ValueError, match=re.escape("challenge must be in [0, 255], got 256")):
        generate([chip], model, spec, cfg, [0, 256, 300], Conditions())
    with pytest.raises(ValueError, match="expected non-negative integer"):
        generate([chip], model, spec, cfg, [0], Conditions(noise_seed=-1))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        reliability([chip], model, spec, cfg, [Conditions(noise_seed=-1)])
    # a model whose rail sits above the quantizer's range: the first
    # record past 1.8 V is the one reported
    high = TransferModel(mirror=model.mirror, switching=model.switching, vdd=2.0)
    volts = (evaluate(high, chip, Challenge(w), Conditions()) for w in range(256))
    first = next(v for v in volts if v > VDD)
    with pytest.raises(ValueError, match=_scalar_error(cfg, spec, first)):
        generate([chip], high, spec, cfg, list(range(256)), Conditions())

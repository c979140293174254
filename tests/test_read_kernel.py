"""The read kernels against the independent scalar route in ``oracle``.

``generate`` is the one batched read, returning the dataset's columns,
and ``reliability`` re-reads a population through it; every record must
equal what ``oracle.read`` gives for the same read (``record_seed`` ->
``evaluate`` -> ``convert`` -> ``encode``), errors included.  The
package's scalar ``record_seed``, ``evaluate``, ``region_of`` and
``convert`` are one element of their kernels and are held to the oracle
too, and the batched noise draw ``_record_noise`` is held bit for bit to
a generator built per seed.
"""

import re

import numpy as np
import oracle
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmapuf.adc import AdcConfig, ResponseWord, convert, convert_array, response_bits
from cmapuf.analog import (
    Conditions,
    MirrorConfig,
    MirrorKind,
    TransferModel,
    default_model,
    naive_switching,
    power_gated_switching,
)
from cmapuf.cellarray import evaluate, evaluate_array
from cmapuf.crp import _record_noise, bits_matrix, generate, record_seed, reliability
from cmapuf.quantizer import QuantizerSpec, default_regions, region_of
from cmapuf.variation import ProcessCorner, VariationConfig, synth_chip

VDD = 1.8


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
        seed, response = oracle.read(chip, model, spec, adc_config, word, cond)
        assert (ds.chip_id[i], ds.challenge[i]) == (chip.chip_id, word)
        assert (ds.temperature[i], ds.noise_sigma[i]) == (cond.temperature, cond.noise_sigma)
        assert ds.noise_seed[i] == seed
        assert ResponseWord(ds.region[i], ds.code[i], ds.bits[i]) == response
        rows.append([int(ch) for ch in oracle.encode(response)])
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
        ref_bits = oracle.read_bits(chip, model, spec, adc_config, words, ref)
        total = 0.0
        for cond in tests:
            got = oracle.read_bits(chip, model, spec, adc_config, words, cond)
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
        assert seed == oracle.record_seed(base, chip_id, word) == record_seed(base, chip_id, word)


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    sigma=st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.002, 1.0])),
    rows=st.sampled_from([1, None]),
)
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1], sigma=0.002, rows=None)
@example(seeds=[2**64 - 1, 0, 2**32, 1, 2**32 - 1], sigma=1.0, rows=1)
def test_record_noise_is_each_seeds_default_rng_normal(seeds, sigma, rows):
    # the batched draw against a generator built per seed, bit for bit and
    # in the seeds' shape
    shape = (len(seeds),) if rows is None else (rows, len(seeds))
    got = _record_noise(np.array(seeds, dtype=np.uint64).reshape(shape), sigma)
    want = np.array([np.random.default_rng(s).normal(0.0, sigma) for s in seeds])
    assert got.shape == shape
    assert got.reshape(-1).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_record_noise_pins_numpys_pcg64_stream():
    # literal draws: a numpy whose PCG64 seeding or normal sampler differs fails here
    seeds = np.array([0, 1, 2**32, 2**64 - 1], dtype=np.uint64)
    pinned = [
        float.fromhex(h)
        for h in ("0x1.017ed89db8441p-3", "0x1.61e0d28bbb3a1p-2",
                  "0x1.a5c170234e89ep-4", "0x1.715303191d87bp-1")
    ]
    assert [np.random.default_rng(s).normal() for s in seeds.tolist()] == pinned
    assert _record_noise(seeds, 1.0).tolist() == pinned
    assert _record_noise(seeds, 0.002).tolist() == [0.002 * z for z in pinned]


def test_saturated_cells_read_the_rails_exactly():
    # at sigma 0.3 V most cells drive the tanh stage into float64
    # saturation, so v lands exactly on 0 or vdd
    chip = synth_chip(VariationConfig(sigma_vth=0.3, seed=4))
    model, spec = default_model(), default_regions()
    cond = Conditions()
    volts = [oracle.evaluate(model, chip, w, cond.temperature) for w in range(256)]
    assert 0.0 in volts and VDD in volts
    for offset in (0.0, 0.01, -0.01):
        adc_config = AdcConfig(comparator_residual_offset=offset)
        ds = generate([chip], model, spec, adc_config, list(range(256)), cond)
        got = zip(ds.region.tolist(), ds.code.tolist(), ds.bits.tolist())
        expected = [oracle.convert(adc_config, spec, v) for v in volts]
        assert [ResponseWord(*w) for w in got] == expected


def _scalar_error(config, spec, v):
    with pytest.raises(ValueError) as info:
        oracle.convert(config, spec, v)
    return re.escape(str(info.value))


voltages = st.one_of(
    st.floats(0.0, VDD), st.sampled_from([0.0, VDD, -0.1, 1.9, float("nan"), float("inf")])
)


@settings(max_examples=150, deadline=None)
@given(
    spec=specs(),
    offset=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
    volts=st.lists(voltages, min_size=1, max_size=12),
    shape=st.sampled_from([(-1,), (-1, 1), (1, -1)]),
)
def test_convert_array_equals_the_scalar_route(spec, offset, volts, shape):
    # value for value, or the error the scalar route raises for the first
    # voltage it rejects in C order; the scalar ``convert`` is one element
    cfg = AdcConfig(comparator_residual_offset=offset)
    v = np.array(volts).reshape(shape)
    expected, error = [], None
    for x in volts:
        try:
            expected.append(oracle.convert(cfg, spec, x))
        except ValueError as exc:
            error = str(exc)
            break
    if error is None:
        region, code, bits = convert_array(cfg, spec, v)
        assert region.shape == code.shape == bits.shape == v.shape
        got = zip(region.ravel().tolist(), code.ravel().tolist(), bits.ravel().tolist())
        assert [ResponseWord(*w) for w in got] == expected
        assert [convert(cfg, spec, x) for x in volts] == expected
        assert [region_of(spec, x) for x in volts] == [oracle.region_of(spec, x) for x in volts]
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            convert_array(cfg, spec, v)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            convert(cfg, spec, volts[len(expected)])


@settings(max_examples=60, deadline=None)
@given(
    base=st.one_of(st.integers(-3, 10), st.integers(2**31, 2**80)),
    chip_id=st.text(max_size=8),
    word=st.integers(-2, 258),
    cond=conditions,
    chip_seed=st.integers(0, 10_000),
)
def test_scalar_views_equal_the_scalar_route(base, chip_id, word, cond, chip_seed):
    # ``record_seed`` and ``evaluate`` are one element of their kernels
    chip = synth_chip(VariationConfig(seed=chip_seed))
    model = default_model()
    noise = float(np.random.default_rng(chip_seed).normal(0.0, cond.noise_sigma))
    if 0 <= word < 256 and base >= 0:
        assert record_seed(base, chip_id, word) == oracle.record_seed(base, chip_id, word)
        for n in (None, noise):
            assert evaluate(model, chip, word, cond.temperature, n) == oracle.evaluate(
                model, chip, word, cond.temperature, n
            )
    elif not 0 <= word < 256:
        message = re.escape(f"challenge must be in [0, 255], got {word}")
        with pytest.raises(ValueError, match=message):
            record_seed(base, chip_id, word)
        for view in (evaluate, oracle.evaluate):
            with pytest.raises(ValueError, match=message):
                view(model, chip, word, cond.temperature, noise)
    else:
        with pytest.raises(ValueError, match="expected non-negative integer"):
            oracle.record_seed(base, chip_id, word)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            record_seed(base, chip_id, word)


def test_evaluate_is_one_element_of_the_noisy_read():
    # a record's voltage is ``evaluate`` of its (chip, word) with that
    # record's own ``_record_noise`` draw, which is the only noise draw
    chips = [synth_chip(VariationConfig(seed=s)) for s in (2, 8)]
    model, spec, cfg = default_model(), default_regions(), AdcConfig()
    cond = Conditions(temperature=60.0, noise_sigma=0.05, noise_seed=9)
    words = list(range(256))
    ds = generate(chips, model, spec, cfg, words, cond)
    noise = _record_noise(ds.noise_seed, cond.noise_sigma)
    volts = evaluate_array(model, chips, words, cond.temperature, noise.reshape(2, -1)).ravel()
    quiet = generate(chips, model, spec, cfg, words, Conditions(temperature=60.0))
    assert (ds.code != quiet.code).mean() > 0.25  # the noise moves many words
    records = [(chip, w) for chip in chips for w in words]
    for i, (chip, w) in enumerate(records):
        v = evaluate(model, chip, w, cond.temperature, noise=float(noise[i]))
        assert v == volts[i]
        assert convert(cfg, spec, v) == ResponseWord(ds.region[i], ds.code[i], ds.bits[i])


def test_convert_array_raises_what_convert_raises():
    spec = default_regions()
    cfg = AdcConfig()
    for v in (-0.1, 1.9, float("nan")):
        volts = np.array([0.5, v, -1.0])  # the first rejected value is reported
        with pytest.raises(ValueError, match=_scalar_error(cfg, spec, v)):
            convert_array(cfg, spec, volts)
        with pytest.raises(ValueError, match=_scalar_error(cfg, spec, v)):
            response_bits(cfg, spec, volts)


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
    volts = (oracle.evaluate(high, chip, w, 25.0) for w in range(256))
    first = next(v for v in volts if v > VDD)
    with pytest.raises(ValueError, match=_scalar_error(cfg, spec, first)):
        generate([chip], high, spec, cfg, list(range(256)), Conditions())

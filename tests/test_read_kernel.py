"""The read kernels against the independent scalar route in ``oracle``.

``generate`` is the one batched read, returning the dataset's columns,
and ``reliability`` re-reads a population through it; every record must
equal what ``oracle.read`` gives for the same read (``record_seed`` ->
``evaluate`` -> ``convert`` -> ``encode``), errors included.  The
package's scalar ``record_seed``, ``evaluate``, ``region_of`` and
``convert`` are one element of their kernels and are held to the oracle
too, and the batched noise draw ``_record_noise`` is held within 2 ulp to
the oracle's scalar SplitMix64 and Box-Muller, and pinned to literal normals.
"""

import math
import re

import numpy as np
import oracle
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmapuf.adc import AdcConfig, convert, convert_array, response_bits
from cmapuf.analog import (
    Conditions,
    MirrorConfig,
    MirrorKind,
    SWITCHING,
    TransferModel,
    default_model,
)
from cmapuf.cellarray import evaluate, evaluate_array
from cmapuf.crp import (
    _record_noise,
    _record_seeds,
    _splitmix64,
    bits_matrix,
    generate,
    record_seed,
    reliability,
)
from cmapuf.quantizer import QuantizerSpec, default_regions, region_of
from cmapuf.variation import ProcessCorner, VariationConfig, synth_chip
from cmapuf.word import ResponseWord

VDD = 1.8
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment


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
    switching = draw(st.sampled_from([SWITCHING["naive"], SWITCHING["gated"]]))
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
    noise_seed=st.one_of(st.integers(0, 10), st.integers(2**32, 2**64 - 1)),
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
    model = TransferModel(mirror=default_model().mirror, switching=SWITCHING["naive"])
    adc_config = AdcConfig(comparator_residual_offset=offset)
    expected = oracle.reliability(chips, model, spec, adc_config, tests)
    assert reliability(chips, model, spec, adc_config, tests) == expected


@pytest.mark.parametrize(
    "base", [0, 1, 2, 7, 2**32 - 1, 2**32, 2**40 + 5, 12345678901234567890, 2**64 - 1]
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
def test_record_noise_is_the_oracles_box_muller(seeds, sigma, rows):
    # the batched draw against the scalar route, in the seeds' shape; numpy's
    # SIMD log may round a last ulp apart from math.log
    shape = (len(seeds),) if rows is None else (rows, len(seeds))
    got = _record_noise(np.array(seeds, dtype=np.uint64).reshape(shape), sigma)
    want = np.array([oracle.record_noise(s, sigma) for s in seeds]).reshape(shape)
    assert got.shape == shape and got.dtype == np.float64
    np.testing.assert_array_max_ulp(got, want, maxulp=2)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("wrap", [np.uint64, lambda s: np.array(s, dtype=np.uint64), int])
def test_record_noise_of_a_zero_d_seed_is_its_one_element_draw(seed, wrap):
    # a 0-d seed must wrap like an array, without numpy's scalar-overflow warning
    got = _record_noise(wrap(seed), 0.002)
    assert got.shape == ()
    assert got == _record_noise(np.array([seed], dtype=np.uint64), 0.002)[0]


def test_splitmix64_is_the_reference_generator():
    # the reference generator gives the published SplitMix64 outputs, and the
    # kernel's two outputs per seed are its first two, wrapping mod 2**64 included
    outputs = oracle.splitmix64(0)
    assert [next(outputs) for _ in range(2)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    outputs = oracle.splitmix64(1234567)
    assert [next(outputs) for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]
    seeds = [0, 1, 2**32, 2**63, 2**64 - 2 * GAMMA % 2**64, 2**64 - 1]
    state = np.array(seeds, dtype=np.uint64)
    got = [_splitmix64(state + np.uint64(k * GAMMA % 2**64)).tolist() for k in (1, 2)]
    generators = [oracle.splitmix64(seed) for seed in seeds]
    assert got == [[next(g) for g in generators] for _ in range(2)]


def test_record_noise_pins_literal_normals():
    # a platform whose log, sqrt or cos strays beyond rounding fails here
    seeds = np.array([0, 1, 2**32, 2**64 - 1, 12345678901234567890], dtype=np.uint64)
    pinned = [
        float.fromhex(h)
        for h in ("-0x1.cf9fb99cfab8fp-2", "-0x1.ced805e687295p-6", "0x1.2f1eb98ad46fep-3",
                  "0x1.9d977b6e32444p-2", "-0x1.b6ce2b2e0acc2p-3")
    ]
    np.testing.assert_allclose(_record_noise(seeds, 1.0), pinned, rtol=1e-15, atol=0)
    np.testing.assert_allclose(_record_noise(seeds, 0.002), [0.002 * z for z in pinned],
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose([oracle.record_noise(s, 1.0) for s in seeds.tolist()], pinned,
                               rtol=1e-15, atol=0)


def _splitmix64_state(z: int) -> int:
    """The state whose SplitMix64 output is z: each step of the mix undone."""

    def unshift(x: int, shift: int) -> int:
        y = x
        for _ in range(64 // shift + 1):
            y = x ^ (y >> shift)
        return y

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return unshift(z, 30)


def test_the_extreme_uniforms_give_finite_noise():
    # z1 = 0 gives u1 = 2**-53, the largest |noise|; z1 = 2**64 - 1 gives u1 = 1.0,
    # so log(u1) is 0 and the noise is zero
    low = (_splitmix64_state(0) - GAMMA) % 2**64
    high = (_splitmix64_state(2**64 - 1) - GAMMA) % 2**64
    for seed, z1 in ((low, 0), (high, 2**64 - 1)):
        outputs = oracle.splitmix64(seed)
        assert next(outputs) == z1
        u2 = (next(outputs) >> 11) / 2**53
        noise = _record_noise(np.array([seed], dtype=np.uint64), 0.5)
        assert np.isfinite(noise).all()
        np.testing.assert_array_max_ulp(noise, [oracle.record_noise(seed, 0.5)], maxulp=2)
        if z1 == 0:
            peak = math.sqrt(-2.0 * math.log(2.0**-53))
            np.testing.assert_array_max_ulp(noise, [0.5 * peak * math.cos(2.0 * math.pi * u2)],
                                            maxulp=2)
            assert abs(noise[0]) <= 0.5 * peak
        else:
            assert noise.tolist() == [0.0]


def test_record_noise_is_normal_over_record_seeds():
    # 102,400 record seeds of 400 chips: mean within 4 standard errors of 0 and
    # standard deviation within 1% of sigma
    sigma = 0.003
    seeds = _record_seeds(7, [f"chip-{i}" for i in range(400)], np.arange(256))
    noise = _record_noise(seeds, sigma).ravel()
    assert noise.size >= 100_000
    assert abs(noise.mean()) < 4.0 * sigma / math.sqrt(noise.size)
    assert abs(noise.std() / sigma - 1.0) < 0.01


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
    base=st.one_of(st.integers(-3, 10), st.integers(2**31, 2**64 - 1), st.integers(2**64, 2**80)),
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
    if 0 <= word < 256 and 0 <= base < 2**64:
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
        message = re.escape(f"base_seed must be within [0, {2**64 - 1}], got {base}")
        with pytest.raises(ValueError, match=f"^{message}$"):
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
    # generate and reliability never see a noise seed outside 64 bits, the width of the
    # record seeds it derives: Conditions refuses one, and record_seed its raw base seed
    for base in (-1, 2**64, 2**100 + 3):
        rule = re.escape(f"must be within [0, {2**64 - 1}], got {base}")
        with pytest.raises(ValueError, match=f"^noise_seed {rule}$"):
            Conditions(noise_seed=base)
        with pytest.raises(ValueError, match=f"^base_seed {rule}$"):
            record_seed(base, chip.chip_id, 0)
    # a model whose rail sits above the quantizer's range: the first
    # record past 1.8 V is the one reported
    high = TransferModel(mirror=model.mirror, switching=model.switching, vdd=2.0)
    volts = (oracle.evaluate(high, chip, w, 25.0) for w in range(256))
    first = next(v for v in volts if v > VDD)
    with pytest.raises(ValueError, match=_scalar_error(cfg, spec, first)):
        generate([chip], high, spec, cfg, list(range(256)), Conditions())

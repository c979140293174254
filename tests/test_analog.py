import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf.analog import (
    Conditions,
    MirrorConfig,
    MirrorKind,
    SwitchingConfig,
    SwitchingKind,
    TransferModel,
    default_model,
    effective_mismatch,
    naive_switching,
    power_gated_switching,
    reduced_headroom_mirror,
    simple_cascode_mirror,
    transfer,
    transfer_array,
    transfer_curve,
    wide_swing_mirror,
)
from cmapuf.cellarray import evaluate
from cmapuf.codec import from_json, to_json
from cmapuf.variation import ProcessCorner, VariationConfig, synth_chip

# three cells without mismatch
ZERO = np.zeros((3, 4))


def test_effective_mismatch_hand_computed():
    # weights (1.0, 0.3, -0.3, -1.0) on dvth (10, 5, -5, -10) mV:
    # 0.010 + 0.0015 + 0.0015 + 0.010 = 0.023 V at reference conditions
    # and the mirror-image cell gives -0.023 V
    model = default_model()
    dvth = np.array([[0.010, 0.005, -0.005, -0.010], [-0.010, -0.005, 0.005, 0.010]])
    delta = effective_mismatch(model, dvth, 0.0, 25.0)
    assert delta.shape == (2,)
    assert delta.tolist() == pytest.approx([0.023, -0.023], abs=1e-15)


def test_temperature_drift_term():
    # an explicit 5e-4 V/degC coefficient at T=35 adds exactly 5 mV
    model = TransferModel(
        mirror=wide_swing_mirror(), switching=power_gated_switching(), temp_coeff=5.0e-4
    )
    delta = effective_mismatch(model, ZERO, model.switching.offset(ProcessCorner.TT), 35.0)
    assert delta.tolist() == pytest.approx([0.005] * 3, abs=1e-15)


def test_corner_and_asymmetry_terms_add():
    model = TransferModel(mirror=simple_cascode_mirror(), switching=naive_switching())
    delta = effective_mismatch(model, ZERO, model.switching.offset(ProcessCorner.SF), 25.0)
    assert delta.tolist() == pytest.approx([0.04 - 0.08] * 3, abs=1e-15)
    # one offset per chip broadcasts over that chip's cells
    offsets = np.array([[model.switching.offset(ProcessCorner.SF)], [0.0]])
    delta = effective_mismatch(model, np.zeros((2, 3, 4)), offsets, 25.0)
    assert delta.shape == (2, 3)
    assert delta.ravel().tolist() == pytest.approx([0.04 - 0.08] * 3 + [-0.08] * 3, abs=1e-15)


def test_noise_term_passes_through():
    model = default_model()
    noise = np.array([0.003, -0.002, 0.0])
    delta = effective_mismatch(model, ZERO, 0.0, 25.0, noise=noise)
    assert delta.tolist() == pytest.approx(noise.tolist(), abs=1e-15)


def test_effective_mismatch_sums_in_the_pinned_order():
    # (w_pm1 pm1 + w_nm1 nm1) + (w_pm2 pm2 + w_nm2 nm2), then the offset,
    # temperature, asymmetry and noise terms, each a float addition in turn
    model = TransferModel(
        mirror=simple_cascode_mirror(), switching=naive_switching(), temp_coeff=2.0e-4
    )
    rng = np.random.default_rng(7)
    dvth = rng.normal(0.0, 0.03, size=(1000, 4))
    noise = rng.normal(0.0, 0.005, size=1000)
    offset = model.switching.offset(ProcessCorner.SF)
    got = effective_mismatch(model, dvth, offset, 60.0, noise)
    w_pm1, w_pm2, w_nm1, w_nm2 = model.weights
    left_to_right = 0
    for (pm1, pm2, nm1, nm2), e, d in zip(dvth.tolist(), noise.tolist(), got.tolist()):
        want = (w_pm1 * pm1 + w_nm1 * nm1) + (w_pm2 * pm2 + w_nm2 * nm2)
        left_to_right += want != w_pm1 * pm1 + w_pm2 * pm2 + w_nm1 * nm1 + w_nm2 * nm2
        want += offset
        want += model.temp_coeff * (60.0 - model.temp_ref)
        want += model.mirror.asymmetry_offset
        want += e
        assert d == want
    # the order matters: summed left to right, some of these cells differ
    assert left_to_right > 0
    # one cell is one row of the batch
    for i in range(0, 1000, 37):
        assert effective_mismatch(model, dvth[i], offset, 60.0, noise[i]) == got[i]
    assert effective_mismatch(model, dvth[3], offset, 60.0).shape == ()


def test_transfer_midpoint_exact():
    model = default_model()
    assert transfer(model, 0.0) == 0.9


def test_transfer_symmetry():
    model = default_model()
    for d in np.linspace(-0.2, 0.2, 1001):
        assert abs(transfer(model, d) + transfer(model, -d) - model.vdd) < 1e-12


def test_transfer_strictly_monotone_and_bounded():
    model = default_model()
    # strictly increasing where float64 resolves the slope, non-decreasing
    # out into saturation, always inside the rails
    assert np.all(np.diff(transfer_array(model, np.linspace(-0.08, 0.08, 1000))) > 0.0)
    wide = transfer_array(model, np.linspace(-0.5, 0.5, 1000))
    assert np.all(np.diff(wide) >= 0.0)
    assert wide.min() >= 0.0 and wide.max() <= model.vdd
    near = transfer_array(model, np.linspace(-0.08, 0.08, 1000))
    assert near.min() > 0.0 and near.max() < model.vdd


def test_transfer_array_matches_scalar():
    # one tanh stage: the scalar is exactly one element of the array, from
    # mid-range out into the saturated rails
    model = default_model()
    deltas = np.linspace(-0.5, 0.5, 2001)
    vec = transfer_array(model, deltas)
    scalar = [transfer(model, float(d)) for d in deltas]
    assert vec.tolist() == scalar
    assert scalar[0] == 0.0 and scalar[-1] == model.vdd
    for d in deltas[::50]:
        assert transfer(model, float(d)) == transfer_array(model, np.array([d]))[0]


def test_higher_gain_saturates_harder():
    lo = TransferModel(mirror=simple_cascode_mirror(), switching=power_gated_switching())
    hi = default_model()
    assert hi.mirror.gain > lo.mirror.gain
    assert transfer(hi, 0.02) > transfer(lo, 0.02)


def test_mirror_presets():
    wide, reduced, simple = wide_swing_mirror(), reduced_headroom_mirror(), simple_cascode_mirror()
    assert wide.asymmetry_offset == 0.0
    assert wide.gain > reduced.gain > simple.gain
    assert wide.kind is MirrorKind.WIDE_SWING_CASCODE
    for preset in (wide, reduced, simple):
        assert preset.bias_current == pytest.approx(4.3e-6)


def test_switching_presets():
    gated, naive = power_gated_switching(), naive_switching()
    gated_worst = max(abs(gated.offset(c)) for c in ProcessCorner)
    naive_worst = max(abs(naive.offset(c)) for c in ProcessCorner)
    assert gated_worst <= 1.0e-3
    assert naive_worst > gated_worst
    # the skewed corners pull in opposite directions, balanced corners sit at zero
    for cfg in (gated, naive):
        assert cfg.offset(ProcessCorner.SF) == -cfg.offset(ProcessCorner.FS)
        for c in (ProcessCorner.TT, ProcessCorner.SS, ProcessCorner.FF):
            assert cfg.offset(c) == 0.0


def test_power_gated_bound_enforced():
    with pytest.raises(ValueError):
        SwitchingConfig(
            kind=SwitchingKind.POWER_GATED,
            corner_offsets={c: 0.002 for c in ProcessCorner},
        )


def test_switching_requires_all_corners():
    with pytest.raises(ValueError):
        SwitchingConfig(kind=SwitchingKind.NAIVE, corner_offsets={ProcessCorner.TT: 0.0})


def test_weight_symmetry_enforced():
    with pytest.raises(ValueError):
        TransferModel(
            mirror=wide_swing_mirror(),
            switching=power_gated_switching(),
            weights=(1.0, 0.3, -0.3, -0.9),
        )
    with pytest.raises(ValueError):
        TransferModel(
            mirror=wide_swing_mirror(),
            switching=power_gated_switching(),
            weights=(1.0, 0.3, 0.3, -1.0),
        )


def test_invalid_scalars_rejected():
    with pytest.raises(ValueError):
        MirrorConfig(kind=MirrorKind.WIDE_SWING_CASCODE, gain=0.0)
    with pytest.raises(ValueError):
        Conditions(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        Conditions(temperature=200.0)
    with pytest.raises(ValueError, match="temp_coeff must be finite, got inf"):
        TransferModel(wide_swing_mirror(), power_gated_switching(), temp_coeff=float("inf"))


def test_cell_output_reproducible_with_noise():
    # a read takes its noise pre-drawn, so the same noise gives the same
    # voltage and another noise another voltage
    model = default_model()
    chip = synth_chip(VariationConfig(seed=5))
    offset = model.switching.offset(chip.config.corner)
    quiet = evaluate(model, chip, 0x39, 25.0)
    for noise in (0.004, -0.002):
        a = evaluate(model, chip, 0x39, 25.0, noise)
        assert a == evaluate(model, chip, 0x39, 25.0, noise) != quiet
        delta = effective_mismatch(model, chip.mismatch[3, 9], offset, 25.0, noise)
        assert a == transfer(model, delta)


def test_transfer_curve_endpoints_and_shape():
    model = default_model()
    deltas, volts = transfer_curve(model, -0.05, 0.05, 101)
    assert deltas[0] == -0.05 and deltas[-1] == 0.05
    assert len(volts) == 101
    assert np.all(np.diff(volts) > 0.0)
    with pytest.raises(ValueError):
        transfer_curve(model, 0.1, -0.1, 10)
    with pytest.raises(ValueError):
        transfer_curve(model, 0.0, 1.0, 1)


def test_model_dict_round_trip():
    model = TransferModel(
        mirror=reduced_headroom_mirror(),
        switching=naive_switching(),
        temp_coeff=2.0e-4,
    )
    assert from_json(TransferModel, to_json(model)) == model


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(-0.03, 0.03), gain=st.floats(1.0, 1000.0))
def test_transfer_properties_hold_for_any_gain(delta, gain):
    mirror = MirrorConfig(kind=MirrorKind.WIDE_SWING_CASCODE, gain=gain)
    model = TransferModel(mirror=mirror, switching=power_gated_switching())
    v = transfer(model, delta)
    assert 0.0 < v < model.vdd
    assert abs(v + transfer(model, -delta) - model.vdd) < 1e-12
    eps = 1e-9
    assert transfer(model, delta + eps) > v or math.isclose(
        transfer(model, delta + eps), v, abs_tol=1e-15
    )

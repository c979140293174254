"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines; every criterion also asserts, so a regression fails the suite.
"""

import numpy as np
import oracle
import pytest

from cmapuf.adc import COMPARISON_ROWS, AdcConfig, convert_array
from cmapuf.analog import (
    Conditions,
    SWITCHING,
    default_model,
    effective_mismatch,
    transfer_array,
)
from cmapuf.attack import (
    FeatureEncoding,
    LrHyper,
    attack_report,
    lr_predict,
    lr_train,
    split,
)
from cmapuf.cli import main as cli_main
from cmapuf.crp import bits_matrix, generate, reliability, uniqueness
from cmapuf.quantizer import (
    EmpiricalDistribution,
    QuantizerSpec,
    default_regions,
    lloyd_max,
    lloyd_max_mse_trace,
    region_index_array,
    region_of,
)
from cmapuf.variation import ProcessCorner, VariationConfig, synth_population
from cmapuf.word import ResponseWord, decode_word, encode_word

MODEL = default_model()
SPEC = default_regions()
ADC = AdcConfig()


def report(criterion, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def population():
    return synth_population(VariationConfig(seed=0), 100)


@pytest.fixture(scope="module")
def population_dataset(population):
    return generate(population, MODEL, SPEC, ADC, list(range(256)), Conditions())


def test_criterion_1_energy_table():
    quoted = {
        "Super-threshold": 0.136e-12,
        "Sub-threshold": 0.047e-12,
        "ICID": 500e-12,
        "This design": 0.0478e-12,
    }
    rows = {r.name: r for r in COMPARISON_ROWS}
    errors = {
        name: abs(rows[name].computed_energy_j - q) / q for name, q in quoted.items()
    }
    tv = rows["TV-PUF"]
    tv_ok = (
        not tv.consistent
        and tv.computed_energy_j == pytest.approx(0.000181e-12, rel=1e-6)
        and tv.quoted_energy_j == pytest.approx(0.0018e-12, rel=1e-6)
    )
    ok = all(e <= 0.01 for e in errors.values()) and tv_ok
    worst = max(errors.values())
    report(
        "criterion 1 (energy comparison rows within 1%, TV-PUF flagged)",
        ok,
        f"worst rounding error {100 * worst:.2f}%, TV-PUF flagged={not tv.consistent}",
    )


def test_criterion_2_region_constants():
    constants_ok = SPEC.boundaries == (0.0, 0.1451, 0.6596, 1.3308, 1.6978, 1.8) and (
        SPEC.bits_per_region == (8, 7, 6, 7, 8)
    )
    grid = np.linspace(0.0, 1.8, 10_000)
    scan_ok = True
    for v in grid:
        region, _ = region_of(SPEC, float(v))
        expected = 5
        for i in range(5):
            if SPEC.boundaries[i] <= v < SPEC.boundaries[i + 1]:
                expected = i + 1
                break
        if region != expected:
            scan_ok = False
            break
    report(
        "criterion 2 (region table constants and interval scan on 10^4 points)",
        constants_ok and scan_ok,
        f"constants={constants_ok}, scan={scan_ok}",
    )


def test_criterion_3_lloyd_max():
    rng = np.random.default_rng(0)
    monotone = True
    worst_rise = -np.inf
    for _ in range(10):
        centers = rng.uniform(0.1, 1.7, size=3)
        raw = np.concatenate([rng.normal(c, rng.uniform(0.05, 0.2), 2000) for c in centers])
        trace = lloyd_max_mse_trace(
            EmpiricalDistribution(np.clip(raw, 0.0, 1.8), 1.8), 5
        )
        rise = float(np.diff(trace).max()) if len(trace) > 1 else 0.0
        worst_rise = max(worst_rise, rise)
        monotone &= rise <= 1e-15

    fix_ok = True
    worst_resid = 0.0
    # overlapping mixtures: separated clusters leave a support gap where any
    # boundary scores the same MSE, making a boundary comparison ill-posed
    mixtures = [
        ((0.5, 1.3), (0.25, 0.25), (0.5, 0.5)),
        ((0.4, 1.1), (0.20, 0.30), (0.6, 0.4)),
        ((0.7, 1.4), (0.30, 0.15), (0.5, 0.5)),
    ]
    oracle_ok = True
    worst_gap = 0.0
    for centers, sigmas, weights in mixtures:
        rng2 = np.random.default_rng(int(centers[0] * 1000))
        parts = [
            rng2.normal(c, s, int(w * 6000)) for c, s, w in zip(centers, sigmas, weights)
        ]
        samples = np.clip(np.concatenate(parts), 0.0, 1.8)
        dist = EmpiricalDistribution(samples, 1.8)

        fitted = lloyd_max(dist, 5)
        b, c = np.array(fitted.boundaries), np.array(fitted.centroids)
        idx = region_index_array(fitted.boundaries, samples)
        means = np.array([samples[idx == i].mean() for i in range(5)])
        resid = float(np.abs(b[1:-1] - 0.5 * (means[:-1] + means[1:])).max())
        worst_resid = max(worst_resid, resid)
        fix_ok &= resid <= 1e-6

        two = lloyd_max(dist, 2)
        best_b, best_mse = None, np.inf
        for cand in np.arange(1e-3, 1.8, 1e-3):
            left, right = samples[samples < cand], samples[samples >= cand]
            if left.size == 0 or right.size == 0:
                continue
            mse = (
                np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
            ) / samples.size
            if mse < best_mse:
                best_b, best_mse = cand, mse
        gap = abs(two.boundaries[1] - best_b)
        worst_gap = max(worst_gap, gap)
        oracle_ok &= gap < 0.01
    report(
        "criterion 3 (Lloyd-Max monotone MSE, midpoint fixed point, k=2 grid oracle)",
        monotone and fix_ok and oracle_ok,
        f"max MSE rise {worst_rise:.2e}, fixed-point residual {worst_resid:.2e}, "
        f"oracle gap {worst_gap:.4f} V",
    )


def test_criterion_4_analog_core():
    deltas = np.linspace(-0.2, 0.2, 1000)
    symmetry = max(
        abs(float(transfer_array(MODEL, float(d))) + float(transfer_array(MODEL, float(-d))) - 1.8)
        for d in deltas
    )
    # strictness is checked where float64 can still resolve the slope; past
    # |delta| ~ 0.11 V the tanh saturates to exactly 1.0 at this gain
    strict_grid = np.linspace(-0.08, 0.08, 1000)
    monotone = bool(np.all(np.diff(transfer_array(MODEL, strict_grid)) > 0.0))
    monotone &= bool(np.all(np.diff(transfer_array(MODEL, deltas)) >= 0.0))
    zero_delta = effective_mismatch(
        MODEL, np.zeros(4), MODEL.switching.offset(ProcessCorner.TT), 25.0
    )
    zero_mismatch = float(transfer_array(MODEL, zero_delta))
    gated, naive = SWITCHING["gated"], SWITCHING["naive"]

    def corner_spread(switching):
        outs = [float(transfer_array(MODEL, switching.offset(c))) for c in ProcessCorner]
        return max(outs) - min(outs)

    spread_ok = corner_spread(naive) > corner_spread(gated)
    ok = symmetry < 1e-12 and monotone and zero_mismatch == 0.9 and spread_ok
    report(
        "criterion 4 (transfer symmetry, monotonicity, 0.9 V midpoint, corner spread order)",
        ok,
        f"symmetry {symmetry:.1e}, midpoint {zero_mismatch!r}, "
        f"spread naive {corner_spread(naive):.4f} V > gated {corner_spread(gated):.6f} V",
    )


def test_criterion_5_rail_skew():
    rng = np.random.default_rng(0)
    dvth = rng.normal(0.0, 0.030, size=(100_000, 4))
    delta = dvth @ np.asarray(MODEL.weights)
    volts = transfer_array(MODEL, delta)
    regions = region_index_array(SPEC.boundaries, volts) + 1
    outer = float(np.isin(regions, (1, 5)).mean())
    middle = float((regions == 3).mean())
    report(
        "criterion 5 (rail-skewed Monte Carlo: regions 1 and 5 outweigh region 3)",
        outer > middle,
        f"outer mass {outer:.4f} vs middle {middle:.4f} over 10^5 samples",
    )


def test_criterion_6_adc():
    grid = np.linspace(0.0, 1.8, 3000)
    # one region spanning [0, 1.8] per precision: its codes are the full-scale quantization
    codes = {}
    for b in range(1, 9):
        whole = QuantizerSpec((0.0, 1.8), bits_per_region=(b,), centroids=(0.9,))
        codes[b] = convert_array(ADC, whole, grid)[1].tolist()
    monotone = all(codes[b] == sorted(codes[b]) for b in range(1, 9))
    bounds = all(0 <= c < (1 << b) for b in (1, 6, 7, 8) for c in codes[b]) and all(
        codes[b][0] == 0 and codes[b][-1] == (1 << b) - 1 for b in range(1, 9)
    )
    round_trip = all(
        decode_word(encode_word(ResponseWord(i + 1, code, bits)), SPEC.bits_per_region)
        == ResponseWord(i + 1, code, bits)
        for i, bits in enumerate(SPEC.bits_per_region)
        for code in range(1 << bits)
    )
    deterministic = all(
        np.array_equal(a, b)
        for a, b in zip(convert_array(ADC, SPEC, grid), convert_array(ADC, SPEC, grid))
    )
    ok = monotone and bounds and round_trip and deterministic
    report(
        "criterion 6 (quantize monotone, code bounds, exhaustive word round-trip, determinism)",
        ok,
        f"monotone={monotone}, bounds={bounds}, round_trip={round_trip}, deterministic={deterministic}",
    )


def test_criterion_7_metrics(population, population_dataset):
    uniq = uniqueness(population_dataset, code_bits=True)
    uniq_ok = 0.45 <= uniq <= 0.55
    temps = [Conditions(temperature=t) for t in (0.0, 30.0, 60.0)]
    rels = reliability(population[:5], MODEL, SPEC, ADC, temps)
    rel_ok = all(r >= 0.90 for r in rels)
    ref = Conditions(temperature=25.0)
    [ref_rel] = reliability(population[:1], MODEL, SPEC, ADC, [ref])
    ref_ok = ref_rel == 1.0
    report(
        "criterion 7 (uniqueness 0.5 +/- 0.05 on code bits, reliability >= 0.90, reference = 1)",
        uniq_ok and rel_ok and ref_ok,
        f"uniqueness {uniq:.4f} over 100 chips, reliability {min(rels):.4f}..{max(rels):.4f} "
        f"over {{0,30,60}} degC, reference {ref_rel}",
    )


def test_criterion_8_attack_harness(population):
    rng = np.random.default_rng(1)
    x = np.hstack([rng.normal(size=(16, 6)), np.ones((16, 1))])
    y = rng.integers(0, 2, size=(16, 4)).astype(float)
    w = rng.normal(scale=0.4, size=(7, 4))
    analytic = oracle.bce_gradient(w, x, y, 1e-4)
    numeric = np.zeros_like(w)
    eps = 1e-6
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up, dn = w.copy(), w.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            loss = oracle.bce_loss(up, x, y, 1e-4)[j] - oracle.bce_loss(dn, x, y, 1e-4)[j]
            numeric[i, j] = loss / (2 * eps)
    grad_err = float(
        (np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)).max()
    )
    grad_ok = grad_err < 1e-5

    full = generate([population[0]], MODEL, SPEC, ADC, list(range(256)), Conditions())
    memor = lr_train(full, LrHyper(encoding=FeatureEncoding.ONE_HOT_CELL))
    truth = bits_matrix(full)
    word_acc = float((lr_predict(memor, full.challenge) == truth).all(axis=1).mean())
    memor_ok = word_acc >= 0.95

    held_out_ok = True
    word_le_bit = True
    gaps = {}
    for encoding in FeatureEncoding:
        diffs = []
        for s in range(10):
            chip_ds = generate(
                [population[s]], MODEL, SPEC, ADC, list(range(256)), Conditions()
            )
            train, test = split(chip_ds, 0.75, seed=s)
            fitted = lr_train(train, LrHyper(encoding=encoding))
            rep = attack_report(train, test, lambda w: lr_predict(fitted, w))
            code_acc = float(np.mean(rep.test_bit_accuracy[3:]))
            code_chance = float(np.mean(rep.chance_bit_accuracy[3:]))
            diffs.append(code_acc - code_chance)
            word_le_bit &= rep.test_word_accuracy <= rep.mean_test_bit_accuracy + 1e-12
        gap = float(np.mean(diffs))
        gaps[encoding.value] = gap
        held_out_ok &= abs(gap) <= 0.05
    ok = grad_ok and memor_ok and held_out_ok and word_le_bit
    gap_text = ", ".join(f"{k} {v:+.4f}" for k, v in gaps.items())
    report(
        "criterion 8 (gradient check, memorization, held-out at chance, word <= bit)",
        ok,
        f"grad rel err {grad_err:.1e}, memorization word acc {word_acc:.3f}, "
        f"held-out code-bit gap over 10 seeds [{gap_text}]",
    )


def test_criterion_9_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["crps", "--chips", "2", "--seed", "11", "--noise-sigma", "0.002", "--out"]
    code_a = cli_main(argv + [str(a)])
    code_b = cli_main(argv + [str(b)])
    identical = a.read_bytes() == b.read_bytes()
    manifests = (tmp_path / "a.csv.manifest.json").read_bytes() == (
        tmp_path / "b.csv.manifest.json"
    ).read_bytes()
    ok = code_a == 0 and code_b == 0 and identical and manifests
    report(
        "criterion 9 (dataset command re-run is byte-identical)",
        ok,
        f"files identical={identical}, manifests identical={manifests}",
    )

import numpy as np
import pytest

from cmapuf.adc import AdcConfig, convert, encode_word
from cmapuf.analog import Conditions, default_model, transfer
from cmapuf.attack import (
    AttackReport,
    EsHyper,
    FeatureEncoding,
    LrHyper,
    attack_report,
    bce_gradient,
    bce_loss,
    clone_bits,
    es_fit,
    features,
    lr_predict,
    lr_train,
    split,
)
from cmapuf.crp import COLUMNS, CrpDataset, bits_matrix, generate
from cmapuf.quantizer import default_regions
from cmapuf.variation import VariationConfig, synth_population, synth_chip

MODEL = default_model()
SPEC = default_regions()
ADC = AdcConfig()


@pytest.fixture(scope="module")
def chip_dataset():
    chip = synth_chip(VariationConfig(seed=7))
    return generate([chip], MODEL, SPEC, ADC, list(range(256)), Conditions())


def finite_difference_gradient(weights, x, y, l2, eps=1e-6):
    """Oracle: central differences of the loss, one coordinate at a time."""
    grad = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            plus = weights.copy()
            plus[i, j] += eps
            minus = weights.copy()
            minus[i, j] -= eps
            grad[i, j] = (bce_loss(plus, x, y, l2)[j] - bce_loss(minus, x, y, l2)[j]) / (2 * eps)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = np.hstack([rng.normal(size=(20, 5)), np.ones((20, 1))])
    y = rng.integers(0, 2, size=(20, 3)).astype(float)
    weights = rng.normal(scale=0.5, size=(6, 3))
    for l2 in (0.0, 1e-3):
        analytic = bce_gradient(weights, x, y, l2)
        numeric = finite_difference_gradient(weights, x, y, l2)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-5


def test_feature_encodings():
    words = np.array([0x00, 0xA3, 0xFF])
    raw = features(FeatureEncoding.RAW_BITS, words)
    assert raw.shape == (3, 8)
    assert raw[1].tolist() == [1, 0, 1, 0, 0, 0, 1, 1]
    rowcol = features(FeatureEncoding.ONE_HOT_ROWCOL, words)
    assert rowcol.shape == (3, 32)
    assert rowcol.sum(axis=1).tolist() == [2.0, 2.0, 2.0]
    assert rowcol[1, 10] == 1.0 and rowcol[1, 16 + 3] == 1.0
    cell = features(FeatureEncoding.ONE_HOT_CELL, words)
    assert cell.shape == (3, 256)
    assert cell.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
    assert cell[1, 0xA3] == 1.0
    assert [features(e, words).shape[1] for e in FeatureEncoding] == [8, 32, 256]


def test_lr_loss_history_non_increasing(chip_dataset):
    train, _ = split(chip_dataset, 0.75, seed=0)
    model = lr_train(train, FeatureEncoding.RAW_BITS, LrHyper(epochs=150))
    hist = model.loss_history
    assert hist.shape == (151, 11)
    assert np.all(np.diff(hist, axis=0) <= 1e-12)


def test_lr_loss_non_increasing_with_tiny_fixed_rate(chip_dataset):
    # even without the backtracking safety net kicking in, a small step
    # size must descend
    train, _ = split(chip_dataset, 0.75, seed=0)
    model = lr_train(train, FeatureEncoding.RAW_BITS, LrHyper(learning_rate=0.01, epochs=60))
    assert np.all(np.diff(model.loss_history, axis=0) <= 1e-12)


def test_lr_fits_constant_bits():
    # bits that never vary in training are the degenerate case a bias
    # term alone must nail: every response below sits in region 1, so the
    # three region-tag bits are the constants 0, 0, 1
    rng = np.random.default_rng(4)
    ds = CrpDataset(
        chip_id=["c"] * 256,
        challenge=np.arange(256),
        region=np.ones(256, dtype=np.int64),
        code=rng.integers(0, 256, 256),
        bits=np.full(256, 8),
        temperature=np.full(256, 25.0),
        noise_sigma=np.zeros(256),
        noise_seed=np.zeros(256, dtype=np.uint64),
    )
    model = lr_train(ds, FeatureEncoding.RAW_BITS)
    truth = bits_matrix(ds)
    acc = (lr_predict(model, np.arange(256)) == truth).mean(axis=0)
    assert np.all(acc[:3] >= 0.99)


def test_lr_memorizes_with_one_hot_cell(chip_dataset):
    model = lr_train(chip_dataset, FeatureEncoding.ONE_HOT_CELL)
    pred = lr_predict(model, chip_dataset.challenge)
    truth = bits_matrix(chip_dataset)
    assert float((pred == truth).all(axis=1).mean()) >= 0.95


def test_lr_rejects_multichip_dataset():
    chips = synth_population(VariationConfig(seed=0), 2)
    ds = generate(chips, MODEL, SPEC, ADC, [0, 1, 2, 3], Conditions())
    with pytest.raises(ValueError):
        lr_train(ds, FeatureEncoding.RAW_BITS)


def test_split_is_challenge_disjoint(chip_dataset):
    train, test = split(chip_dataset, 0.75, seed=3)
    train_words = set(train.challenge.tolist())
    test_words = set(test.challenge.tolist())
    assert not train_words & test_words
    assert len(train_words) == 192 and len(test_words) == 64
    assert len(train) + len(test) == len(chip_dataset)
    # each side keeps the dataset's record order
    assert np.all(np.diff(train.challenge) > 0) and np.all(np.diff(test.challenge) > 0)
    again = split(chip_dataset, 0.75, seed=3)
    for name in COLUMNS:
        assert np.array_equal(getattr(again[0], name), getattr(train, name))
    other = split(chip_dataset, 0.75, seed=4)
    assert set(other[0].challenge.tolist()) != train_words


def test_split_validates_fraction(chip_dataset):
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            split(chip_dataset, bad)
    tiny_train, tiny_test = split(chip_dataset, 0.001, seed=0)
    assert len(tiny_train) >= 1 and len(tiny_test) >= 1


def test_es_history_non_increasing_and_improves(chip_dataset):
    train, _ = split(chip_dataset, 0.75, seed=0)
    hyper = EsHyper(generations=300, seed=1)
    clone = es_fit(train, MODEL, SPEC, ADC, hyper)
    assert clone.history.shape == (301,)
    assert np.all(np.diff(clone.history) <= 0.0)
    assert clone.fitness == clone.history[-1]
    assert clone.fitness < clone.history[0]
    assert clone.params.shape == (256,)


def test_es_zero_generations_returns_initial_best(chip_dataset):
    train, _ = split(chip_dataset, 0.75, seed=0)
    clone = es_fit(train, MODEL, SPEC, ADC, EsHyper(generations=0, seed=1))
    assert clone.history.shape == (1,)
    assert clone.fitness == clone.history[0]
    assert clone.params.shape == (256,)
    # the returned params really are the best of the seeded initial draw
    rng = np.random.default_rng(1)
    init = rng.normal(0.0, 0.03, size=(8, 256))
    assert any(np.array_equal(clone.params, row) for row in init)


def test_es_fitness_matches_prediction_error(chip_dataset):
    train, _ = split(chip_dataset, 0.75, seed=0)
    clone = es_fit(train, MODEL, SPEC, ADC, EsHyper(generations=200, seed=0))
    pred = clone_bits(clone.params, MODEL, SPEC, ADC, train.challenge)
    truth = bits_matrix(train)
    assert float((pred != truth).mean()) == pytest.approx(clone.fitness)


def test_clone_bits_agrees_with_the_scalar_route(chip_dataset):
    train, _ = split(chip_dataset, 0.75, seed=0)
    clone = es_fit(train, MODEL, SPEC, ADC, EsHyper(generations=50, seed=0))
    for word in (0, 100, 255):
        response = convert(ADC, SPEC, transfer(MODEL, float(clone.params[word])))
        row = clone_bits(clone.params, MODEL, SPEC, ADC, np.array([word]))[0]
        assert [int(c) for c in encode_word(response)] == row.tolist()


def test_es_hyper_validation():
    with pytest.raises(ValueError):
        EsHyper(parents=0)
    with pytest.raises(ValueError):
        EsHyper(parents=10, population=5)
    with pytest.raises(ValueError):
        LrHyper(learning_rate=0.0)
    with pytest.raises(ValueError):
        LrHyper(epochs=0)


def test_attack_report_chance_baseline():
    # hand-built split where train is all-ones on one bit: the chance
    # predictor must predict 1 there and score the test side accordingly
    chip = synth_chip(VariationConfig(seed=20))
    ds = generate([chip], MODEL, SPEC, ADC, list(range(64)), Conditions())
    train, test = split(ds, 0.5, seed=0)
    truth_train = bits_matrix(train).astype(float)
    truth_test = bits_matrix(test).astype(float)
    majority = (truth_train.mean(axis=0) >= 0.5).astype(float)
    expected_chance = (majority[None, :] == truth_test).mean(axis=0)
    report = attack_report(train, test, lambda w: np.zeros((len(w), 11), dtype=np.int8))
    assert report.chance_bit_accuracy == pytest.approx(tuple(expected_chance))
    zeros_test = (truth_test == 0).mean(axis=0)
    assert report.test_bit_accuracy == pytest.approx(tuple(zeros_test))
    assert isinstance(report, AttackReport)
    assert 0.0 <= report.test_word_accuracy <= min(report.test_bit_accuracy)


def test_word_accuracy_never_exceeds_bit_accuracy(chip_dataset):
    train, test = split(chip_dataset, 0.75, seed=5)
    model = lr_train(train, FeatureEncoding.ONE_HOT_ROWCOL, LrHyper(epochs=200))
    report = attack_report(train, test, lambda w: lr_predict(model, w))
    # getting the whole word right is never easier than any single bit
    assert report.test_word_accuracy <= min(report.test_bit_accuracy) + 1e-12
    assert report.train_word_accuracy <= min(report.train_bit_accuracy) + 1e-12

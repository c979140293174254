import errno
import os
import re
import signal
import warnings
from dataclasses import replace

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf import attack
from cmapuf.adc import AdcConfig, response_bits
from cmapuf.analog import Conditions, default_model, transfer_array
from cmapuf.attack import (
    N_CELLS,
    AttackReport,
    _distance,
    EsHyper,
    FeatureEncoding,
    LrHyper,
    attack_report,
    clone_bits,
    es_fit,
    features,
    lr_predict,
    lr_train,
    split,
)
from cmapuf.crp import COLUMNS, CrpDataset, bits_matrix, generate
from cmapuf.fork import forked
from cmapuf.quantizer import QuantizerSpec, default_regions
from cmapuf.variation import VariationConfig, synth_population, synth_chip
from cmapuf.word import word_bits

MODEL = default_model()
SPEC = default_regions()
ADC = AdcConfig()
# a reading other than the default: four regions with their own precisions,
# another clock and power, and the comparator offset at 0 and away from it
SPEC_K4 = QuantizerSpec(
    boundaries=(0.0, 0.55, 0.9, 1.25, 1.8),
    bits_per_region=(6, 4, 5, 7),
    centroids=(0.3, 0.7, 1.1, 1.5),
)
OTHER_ADCS = [
    AdcConfig(clock_freq=3.2e9, power=150.0e-6, comparator_residual_offset=offset)
    for offset in (0.0, 0.013)
]


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
            loss = oracle.bce_loss(plus, x, y, l2)[j] - oracle.bce_loss(minus, x, y, l2)[j]
            grad[i, j] = loss / (2 * eps)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = np.hstack([rng.normal(size=(20, 5)), np.ones((20, 1))])
    y = rng.integers(0, 2, size=(20, 3)).astype(float)
    weights = rng.normal(scale=0.5, size=(6, 3))
    for l2 in (0.0, 1e-3):
        analytic = oracle.bce_gradient(weights, x, y, l2)
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


@pytest.mark.parametrize("words", [2.7, True, np.array([1.5])])
def test_features_refuse_a_word_that_is_not_an_integer(words):
    for encoding in FeatureEncoding:
        with pytest.raises(ValueError, match="^challenge must be an integer, got dtype "):
            features(encoding, np.atleast_1d(words))


@pytest.mark.parametrize("encoding", ["raw", "cell", None])
def test_features_refuse_an_encoding_that_is_not_a_feature_encoding(encoding):
    # each once read as the one-hot cell encoding; LrHyper refuses it before any fit
    message = f"^encoding must be a FeatureEncoding, got {encoding!r}$"
    with pytest.raises(TypeError, match=message):
        features(encoding, np.array([1, 2]))
    with pytest.raises(TypeError, match=message):
        LrHyper(encoding=encoding, epochs=1)


def test_lr_loss_history_non_increasing(chip_dataset):
    train, _ = split(chip_dataset, 0.75, seed=0)
    model = lr_train(train, LrHyper(encoding=FeatureEncoding.RAW_BITS, epochs=150))
    hist = model.loss_history
    assert hist.shape == (151, 11)
    assert np.all(np.diff(hist, axis=0) <= 1e-12)


def test_lr_loss_non_increasing_with_tiny_fixed_rate(chip_dataset):
    # even without the backtracking safety net kicking in, a small step
    # size must descend
    train, _ = split(chip_dataset, 0.75, seed=0)
    hyper = LrHyper(encoding=FeatureEncoding.RAW_BITS, learning_rate=0.01, epochs=60)
    model = lr_train(train, hyper)
    assert np.all(np.diff(model.loss_history, axis=0) <= 1e-12)


LARGE_RATE = LrHyper(learning_rate=1.0e5, epochs=60)


@pytest.mark.parametrize("hyper", [LrHyper(), LARGE_RATE], ids=["default", "large-rate"])
@pytest.mark.parametrize("encoding", list(FeatureEncoding), ids=lambda e: e.value)
def test_lr_replays_the_recomputed_route_bit_for_bit(chip_dataset, encoding, hyper):
    # the gradient from the accepted step's logits is the gradient from the weights
    train, _ = split(chip_dataset, 0.75, seed=0)
    got = lr_train(train, replace(hyper, encoding=encoding))
    want = oracle.lr_train(train, encoding, hyper)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.loss_history.tobytes() == want.loss_history.tobytes()


def test_the_large_rate_forces_backtracking(chip_dataset):
    # the first full step at LARGE_RATE raises a bit's loss, so it is halved
    train, _ = split(chip_dataset, 0.75, seed=0)
    for encoding in FeatureEncoding:
        x = np.hstack([features(encoding, train.challenge), np.ones((len(train), 1))])
        y = bits_matrix(train).astype(float)
        w = np.zeros((x.shape[1], 11))
        step = w - LARGE_RATE.learning_rate * oracle.bce_gradient(w, x, y, LARGE_RATE.l2)
        raised = oracle.bce_loss(step, x, y, LARGE_RATE.l2) > oracle.bce_loss(w, x, y, LARGE_RATE.l2)
        assert raised.any()


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
    model = lr_train(ds, LrHyper(encoding=FeatureEncoding.RAW_BITS))
    truth = bits_matrix(ds)
    acc = (lr_predict(model, np.arange(256)) == truth).mean(axis=0)
    assert np.all(acc[:3] >= 0.99)


def test_lr_memorizes_with_one_hot_cell(chip_dataset):
    model = lr_train(chip_dataset, LrHyper(encoding=FeatureEncoding.ONE_HOT_CELL))
    pred = lr_predict(model, chip_dataset.challenge)
    truth = bits_matrix(chip_dataset)
    assert float((pred == truth).all(axis=1).mean()) >= 0.95


def test_lr_rejects_multichip_dataset():
    chips = synth_population(VariationConfig(seed=0), 2)
    ds = generate(chips, MODEL, SPEC, ADC, [0, 1, 2, 3], Conditions())
    with pytest.raises(ValueError):
        lr_train(ds, LrHyper(encoding=FeatureEncoding.RAW_BITS))


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


@pytest.mark.parametrize(
    "fraction, hyper",
    [
        (0.75, EsHyper(generations=300, seed=0)),
        (0.75, EsHyper(generations=300, seed=1)),
        (0.75, EsHyper(generations=300, seed=2)),
        (0.1, EsHyper(generations=300, seed=0)),  # most mutations land on untrained cells
        (0.75, EsHyper(parents=8, population=8, generations=100, seed=0)),
        (0.75, EsHyper(parents=1, population=1, generations=300, seed=0)),
        (0.75, EsHyper(generations=0, seed=1)),
        (0.75, EsHyper(generations=37, seed=3)),  # the last batch of draws is partial
    ],
)
def test_es_counts_replay_the_dense_fitness_exactly(chip_dataset, fraction, hyper):
    train, _ = split(chip_dataset, fraction, seed=0)
    clone = es_fit(train, MODEL, SPEC, ADC, hyper)
    dense = oracle.es_fit_dense(train, MODEL, SPEC, ADC, hyper)
    assert np.array_equal(clone.params, dense.params)
    assert np.array_equal(clone.history, dense.history)
    assert clone.fitness == dense.fitness


@pytest.mark.parametrize("adc", OTHER_ADCS, ids=["offset0", "offset13mV"])
def test_es_counts_replay_the_dense_fitness_under_another_reading(adc):
    # the before/after reads, the popcount distance and the survivor copies
    # under a non-default converter and a four-region spec, with data read
    # under them
    chip = synth_chip(VariationConfig(seed=7))
    data = generate([chip], MODEL, SPEC_K4, adc, list(range(256)), Conditions())
    train, _ = split(data, 0.75, seed=0)
    hyper = EsHyper(generations=300, seed=4)
    clone = es_fit(train, MODEL, SPEC_K4, adc, hyper)
    dense = oracle.es_fit_dense(train, MODEL, SPEC_K4, adc, hyper)
    assert np.array_equal(clone.params, dense.params)
    assert np.array_equal(clone.history, dense.history)
    assert clone.fitness == dense.fitness


@pytest.fixture
def fork_pids(monkeypatch):
    """The pids ``os.fork`` returns to the parent while the test runs."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_es_reaps_its_draw_process_when_the_fit_raises(chip_dataset, monkeypatch, fork_pids,
                                                       capfd):
    # the draw process is still drawing ahead when the fit raises; closing the read end
    # makes its next write fail, so the reap does not wait on it forever, and the process
    # leaves quietly: the broken pipe is no fault of its own
    train, _ = split(chip_dataset, 0.75, seed=0)
    calls, distance = [], attack._distance

    def failing(*args):
        calls.append(None)
        if len(calls) > 3:
            raise ArithmeticError("the fit's own fault")
        return distance(*args)

    def hung(signum, frame):
        raise TimeoutError("es_fit waits on a draw process that cannot end")

    monkeypatch.setattr(attack, "_distance", failing)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ArithmeticError, match="^the fit's own fault$"):
            es_fit(train, MODEL, SPEC, ADC, EsHyper(seed=0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_reaped(fork_pids)
    assert "Traceback" not in capfd.readouterr().err


class _ExitWhilePickled:
    def __reduce__(self):
        os._exit(4)


def _exit_at_once(hyper):
    os._exit(3)


def _exit_mid_item(hyper, draw=attack._draw):
    # the array's bytes go down the pipe before the process ends inside the pickle
    draws = draw(hyper)
    yield next(draws)
    yield [np.zeros(1 << 18), _ExitWhilePickled()]


def _raise_after_two_batches(hyper, draw=attack._draw):
    yield from draw(replace(hyper, generations=attack.DRAW_BATCH + 1))
    raise ValueError("the draws' own fault")


@pytest.mark.parametrize(
    "draw, status",
    [(_exit_at_once, 3), (_exit_mid_item, 4), (_raise_after_two_batches, 1)],
    ids=["at-once", "mid-item", "after-two-batches"],
)
def test_es_names_a_draw_process_that_ends_early(chip_dataset, monkeypatch, fork_pids, draw,
                                                 status, capfd):
    train, _ = split(chip_dataset, 0.75, seed=0)
    monkeypatch.setattr(attack, "_draw", draw)
    name = f"{draw.__module__}.{draw.__qualname__}"
    message = f"the process forked to run {name} ended early with exit status {status}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        es_fit(train, MODEL, SPEC, ADC, EsHyper(generations=100, seed=0))
    assert_reaped(fork_pids)
    # the process's own exception reaches its stderr; an exit raises none
    raised = "ValueError: the draws' own fault\n" in capfd.readouterr().err
    assert raised == (draw is _raise_after_two_batches)


def test_forked_passes_the_multi_threaded_fork_warning_of_python_3_12(monkeypatch, fork_pids):
    # CPython 3.12+ warns in the parent after forking a process that has threads, as
    # OpenBLAS's workers make this one.  3.12.1 and 3.13.0 emit it under an "always"
    # filter and drop it under "error"; a fork whose warning raises is the strict case
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with forked(range, 3) as items:
        assert list(items) == [0, 1, 2]
    assert_reaped(fork_pids)


def test_forked_closes_its_pipe_when_the_fork_fails(monkeypatch):
    fds, pipe = [], os.pipe

    def recorded_pipe():
        fds.extend(pipe())
        return tuple(fds)

    def failing_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError, match="Resource temporarily unavailable$"):
        with forked(range, 3):
            pass
    assert len(fds) == 2
    for fd in fds:
        with pytest.raises(OSError, match="Bad file descriptor"):
            os.fstat(fd)


def _edges(spec, adc):
    """0, vdd, every boundary and the comparator split, with their float neighbours."""
    points = [*spec.boundaries, 0.5 * adc.vdd + adc.comparator_residual_offset]
    near = [float(np.nextafter(p, d)) for p in points for d in (-np.inf, np.inf)]
    return [v for v in points + near if 0.0 <= v <= spec.vdd]


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from([SPEC, SPEC_K4]),
    adc=st.sampled_from(OTHER_ADCS),
    volts=st.lists(st.floats(0.0, 1.8), max_size=16),
    data=st.data(),
)
def test_the_popcount_distance_is_the_bit_row_distance(spec, adc, volts, data):
    # the ES's distance, popcount(word ^ target), against the converter's
    # bit rows and against the scalar route's encoded strings
    v = np.array([*volts, *_edges(spec, adc)])
    words = st.integers(0, (1 << 11) - 1)
    target = np.array(data.draw(st.lists(words, min_size=len(v), max_size=len(v))))
    target_bits = word_bits(target >> 8, target & 0xFF)
    got = _distance(adc, spec, v, target).tolist()
    assert got == (response_bits(adc, spec, v) != target_bits).sum(-1).tolist()
    scalar = [[int(c) for c in oracle.encode(oracle.convert(adc, spec, x))] for x in v]
    assert got == (np.array(scalar) != target_bits).sum(-1).tolist()


def test_es_refuses_repeated_reads(chip_dataset):
    # the total distance counts each trained cell once, as one record
    twice = chip_dataset.take([3, 9, 3])
    repeat = "chip 'chip007' has more than one read of challenge 3"
    with pytest.raises(ValueError, match=re.escape(repeat) + "$"):
        es_fit(twice, MODEL, SPEC, ADC, EsHyper(generations=1))


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
        volts = float(transfer_array(MODEL, float(clone.params[word])))
        response = oracle.convert(ADC, SPEC, volts)
        row = clone_bits(clone.params, MODEL, SPEC, ADC, np.array([word]))[0]
        assert [int(c) for c in oracle.encode(response)] == row.tolist()


def test_clone_bits_checks_the_words():
    # word -1 once read cell 255, and 256 raised IndexError
    params = np.linspace(-0.05, 0.05, N_CELLS)
    for word in (-1, 256):
        with pytest.raises(ValueError, match=rf"^challenge must be in \[0, 255\], got {word}$"):
            clone_bits(params, MODEL, SPEC, ADC, np.array([0, word]))


@pytest.mark.parametrize(
    "hyper, field, value, message",
    [
        (EsHyper, "parents", 0, "parents must be >= 1, got 0"),
        (EsHyper, "population", 5, "population must be >= 8, got 5"),
        (LrHyper, "learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
        (LrHyper, "epochs", 0, "epochs must be >= 1, got 0"),
        # a count is an integer: neither a float nor a bool is one
        *((LrHyper, "epochs", v, f"epochs must be an integer, got {v}") for v in (7.5, True)),
        *((EsHyper, f, v, f"{f} must be an integer, got {v}")
          for f in ("parents", "population", "generations", "seed") for v in (7.5, True)),
    ],
)
def test_es_hyper_validation(hyper, field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hyper(**{field: value})


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
    model = lr_train(train, LrHyper(encoding=FeatureEncoding.ONE_HOT_ROWCOL, epochs=200))
    report = attack_report(train, test, lambda w: lr_predict(model, w))
    # getting the whole word right is never easier than any single bit
    assert report.test_word_accuracy <= min(report.test_bit_accuracy) + 1e-12
    assert report.train_word_accuracy <= min(report.train_bit_accuracy) + 1e-12

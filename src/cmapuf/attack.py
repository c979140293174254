"""Modeling attacks against a single chip's challenge-response behavior.

Two attackers are implemented.

Logistic regression treats each of the 11 response bits as a separate
binary classifier over a feature encoding of the challenge.  Training is
full-batch gradient descent with an L2 penalty and a per-bit backtracking
step size: a step that would raise a bit's loss is halved (up to a cap)
until it does not, and accepted steps let the size grow back.  That makes
every bit's loss history non-increasing by construction, which the tests
assert.  The point of the attacker is negative: with only 8 challenge
bits selecting one of 256 independent cells, nothing generalises, and the
attack should sit at chance on held-out challenges for every encoding.

The evolution strategy is the stronger, architecture-aware attacker.  It
knows the transfer model and quantizer and searches directly for the 256
per-cell imbalance values that reproduce observed responses.  A (mu +
lambda) elitist loop mutates a handful of coordinates per offspring;
most mutations use an annealed step size (halved after stagnation), while
a fixed fraction keep the original coarse step so late-stage search can
still fix a badly wrong cell.  Fitness is the mean encoded Hamming
distance to the training responses, carried as per-cell counts: an
offspring re-reads only the trained cells it mutated, and the counts'
sum over n * 11 is exactly that mean because each trained cell is read
once (the refusal of repeated reads).  The step schedules are module
constants; ``EsHyper`` and ``LrHyper`` hold only what a caller sets.
ES uses the model, quantizer and converter the data was read with.  Both
attackers refuse more than one read of a (chip, challenge), as the metrics do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adc import WORD_BITS, AdcConfig, response_bits
from .analog import TransferModel, transfer_array
from .cellarray import CHALLENGE_BITS, decode
from .codec import check_range
from .crp import CrpDataset, _refuse_repeated_reads, bits_matrix
from .quantizer import QuantizerSpec

N_CELLS = 1 << CHALLENGE_BITS
MAX_BACKTRACKS = 40  # LR step halvings tried per bit and epoch
SIGMA0 = 0.03  # ES initial and coarse mutation step, volts
SIGMA_FLOOR = 1.0e-5  # ES annealed step never falls below this
MUTATION_RATE = 2.0  # expected mutated coordinates per offspring
COARSE_FRACTION = 0.1  # offspring that mutate at SIGMA0 regardless of annealing
STAGNATION_LIMIT = 15  # generations without a better fitness before the step halves


class FeatureEncoding(Enum):
    """How a challenge word is presented to the logistic attacker."""

    RAW_BITS = "raw"
    ONE_HOT_ROWCOL = "rowcol"
    ONE_HOT_CELL = "cell"


def features(encoding: FeatureEncoding, words: np.ndarray) -> np.ndarray:
    """The (n, 8 | 32 | 256) feature matrix of an array of challenge words, by encoding.

    ``decode`` checks the words, so one outside [0, 255] raises.
    """
    rows, cols = decode(words)
    words = np.asarray(words, dtype=np.int64)
    n = words.shape[0]
    if encoding is FeatureEncoding.RAW_BITS:
        shifts = np.arange(CHALLENGE_BITS - 1, -1, -1)
        return ((words[:, None] >> shifts) & 1).astype(float)
    if encoding is FeatureEncoding.ONE_HOT_ROWCOL:
        out = np.zeros((n, 32))
        out[np.arange(n), rows] = 1.0
        out[np.arange(n), 16 + cols] = 1.0
        return out
    out = np.zeros((n, N_CELLS))
    out[np.arange(n), words] = 1.0
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss(weights: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """Per-bit binary cross-entropy plus L2 on the non-bias rows.

    weights is (n_features + 1, n_bits) with the bias in the last row and
    x carries a trailing column of ones.  Uses the overflow-free form
    max(z, 0) - z * y + log1p(exp(-|z|)).
    """
    z = x @ weights
    per_sample = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return per_sample.mean(axis=0) + 0.5 * l2 * np.sum(weights[:-1] ** 2, axis=0)


def bce_gradient(weights: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """Exact gradient of ``bce_loss`` in each bit's weight column."""
    grad = x.T @ (_sigmoid(x @ weights) - y) / x.shape[0]
    grad[:-1] += l2 * weights[:-1]
    return grad


@dataclass(frozen=True)
class LrHyper:
    learning_rate: float = 50.0
    l2: float = 1.0e-6
    epochs: int = 400

    def __post_init__(self) -> None:
        check_range("learning_rate", self.learning_rate, 0, open_lo=True)
        check_range("l2", self.l2, 0)
        check_range("epochs", self.epochs, 1)


@dataclass
class LrModel:
    encoding: FeatureEncoding
    weights: np.ndarray  # (feature columns + 1, 11), bias row last
    loss_history: np.ndarray  # (epochs + 1, 11)


def _targets(dataset: CrpDataset) -> tuple[np.ndarray, np.ndarray]:
    ids = dataset.chip_ids
    if len(ids) != 1:
        raise ValueError(f"attack expects a single-chip dataset, got chips {ids}")
    _refuse_repeated_reads(dataset, "attack")
    return dataset.challenge, bits_matrix(dataset).astype(float)


def lr_train(dataset: CrpDataset, encoding: FeatureEncoding, hyper: LrHyper | None = None) -> LrModel:
    """Fit the 11 per-bit logistic classifiers on one chip's records."""
    if hyper is None:
        hyper = LrHyper()
    words, y = _targets(dataset)
    x = np.hstack([features(encoding, words), np.ones((len(words), 1))])
    weights = np.zeros((x.shape[1], WORD_BITS))
    lr = np.full(WORD_BITS, hyper.learning_rate)
    loss = bce_loss(weights, x, y, hyper.l2)
    history = [loss]
    for _ in range(hyper.epochs):
        grad = bce_gradient(weights, x, y, hyper.l2)
        trial = weights - lr * grad
        trial_loss = bce_loss(trial, x, y, hyper.l2)
        for _ in range(MAX_BACKTRACKS):
            worse = trial_loss > loss + 1.0e-12
            if not worse.any():
                break
            lr = np.where(worse, lr * 0.5, lr)
            trial = weights - lr * grad
            trial_loss = bce_loss(trial, x, y, hyper.l2)
        accepted = trial_loss <= loss + 1.0e-12
        weights = np.where(accepted, trial, weights)
        loss = np.where(accepted, trial_loss, loss)
        lr = np.where(accepted, np.minimum(lr * 1.2, 1.0e6), lr)
        history.append(loss)
    return LrModel(encoding=encoding, weights=weights, loss_history=np.array(history))


def lr_predict(model: LrModel, words: np.ndarray) -> np.ndarray:
    """Predicted (n, 11) bit rows for an (n,) array of challenge words."""
    x = np.hstack([features(model.encoding, words), np.ones((len(words), 1))])
    return (x @ model.weights > 0.0).astype(np.int8)


@dataclass(frozen=True)
class EsHyper:
    parents: int = 8
    population: int = 40
    generations: int = 4000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.parents < 1 or self.population < self.parents:
            raise ValueError("need population >= parents >= 1")
        check_range("generations", self.generations, 0)  # at 0 the clone is the initial best
        check_range("seed", self.seed, 0)


@dataclass
class EsClone:
    params: np.ndarray  # (256,) effective imbalance per cell, volts
    fitness: float  # mean encoded HD on the training set
    history: np.ndarray  # best fitness per generation, (generations + 1,)


def clone_bits(
    clone_params: np.ndarray,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    words: np.ndarray,
) -> np.ndarray:
    """Responses (..., words, 11) of one clone's (256,) imbalances or a (..., 256) stack."""
    decode(words)  # the one challenge check
    v = transfer_array(model, np.asarray(clone_params)[..., np.asarray(words, dtype=np.int64)])
    return response_bits(adc_config, spec, v)


def es_fit(
    dataset: CrpDataset,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    hyper: EsHyper | None = None,
) -> EsClone:
    """Search per-cell imbalances that replay one chip's training set.

    (mu + lambda) with elitist truncation: parents survive unless an
    offspring beats them, so the best fitness can only fall.  Offspring
    mutate a Poisson-thin set of coordinates (at least one); the step
    size anneals by halving whenever the best fitness stalls for
    STAGNATION_LIMIT generations, except a COARSE_FRACTION of offspring
    always mutate at SIGMA0.

    Each member carries its per-cell Hamming counts: the encoded distance
    of each trained cell's word to its target, 0 on untrained cells.  An
    offspring inherits its parent's counts and re-reads only its mutated
    trained cells.  The fitness is the counts' sum over n * 11, exactly
    the mean encoded distance, because ``_targets`` refuses a repeated
    read and so each trained cell stands for one record.
    """
    if hyper is None:
        hyper = EsHyper()
    words, y = _targets(dataset)
    trained = np.zeros(N_CELLS, dtype=bool)
    trained[words] = True
    target = np.zeros((N_CELLS, WORD_BITS), dtype=np.int8)
    target[words] = y
    n_bits = len(words) * WORD_BITS

    def distances(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Encoded Hamming distance of each value, read as its cell, to the cell's target."""
        bits = response_bits(adc_config, spec, transfer_array(model, values))
        return (bits != target[cells]).sum(axis=-1)

    rng = np.random.default_rng(hyper.seed)
    mu, lam = hyper.parents, hyper.population
    sigma = SIGMA0
    pop = rng.normal(0.0, SIGMA0, size=(mu, N_CELLS))
    counts = np.zeros((mu, N_CELLS), dtype=np.int64)
    counts[:, words] = distances(pop[:, words], words)
    fit = counts.sum(axis=1) / n_bits
    order = np.argsort(fit, kind="stable")
    pop, counts, fit = pop[order], counts[order], fit[order]
    history = [float(fit[0])]
    stagnant = 0
    for _ in range(hyper.generations):
        pick = rng.integers(0, mu, size=lam)
        mask = rng.random((lam, N_CELLS)) < MUTATION_RATE / N_CELLS
        silent = ~mask.any(axis=1)
        if silent.any():
            mask[np.flatnonzero(silent), rng.integers(0, N_CELLS, size=int(silent.sum()))] = True
        scale = np.where(rng.random((lam, 1)) < COARSE_FRACTION, SIGMA0, sigma)
        step = rng.standard_normal((lam, N_CELLS))
        # flat (offspring, cell) positions of the mutations; the copies are contiguous
        at = np.flatnonzero(mask)
        offspring = pop[pick]
        offspring.reshape(-1)[at] += step.reshape(-1)[at] * scale[at // N_CELLS, 0]
        child_counts = counts[pick]
        at = at[trained[at % N_CELLS]]
        child_counts.reshape(-1)[at] = distances(offspring.reshape(-1)[at], at % N_CELLS)
        all_fit = np.concatenate([fit, child_counts.sum(axis=1) / n_bits])
        order = np.argsort(all_fit, kind="stable")[:mu]
        pop = np.concatenate([pop, offspring])[order]
        counts = np.concatenate([counts, child_counts])[order]
        fit = all_fit[order]
        if fit[0] < history[-1] - 1.0e-15:
            stagnant = 0
        else:
            stagnant += 1
        if stagnant >= STAGNATION_LIMIT:
            sigma = max(sigma * 0.5, SIGMA_FLOOR)
            stagnant = 0
        history.append(float(fit[0]))
    return EsClone(params=pop[0], fitness=float(fit[0]), history=np.array(history))


def split(dataset: CrpDataset, train_fraction: float, seed: int = 0) -> tuple[CrpDataset, CrpDataset]:
    """Challenge-disjoint train/test split.

    Splitting is by challenge word so a held-out record's cell was never
    seen in training, which is the setting that matters for an attacker.
    Record order within each side follows the original dataset.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    check_range("seed", seed, 0)
    words = np.unique(dataset.challenge)
    if len(words) < 2:
        raise ValueError("need at least two distinct challenges to split")
    n_train = int(round(train_fraction * len(words)))
    n_train = min(max(n_train, 1), len(words) - 1)
    perm = np.random.default_rng(seed).permutation(len(words))
    train = np.isin(dataset.challenge, words[perm[:n_train]])
    meta = dict(dataset.metadata)
    return (
        dataset.take(train, {**meta, "split": "train"}),
        dataset.take(~train, {**meta, "split": "test"}),
    )


@dataclass(frozen=True)
class AttackReport:
    """Accuracy summary of one attacker on one train/test split."""

    train_bit_accuracy: tuple[float, ...]
    test_bit_accuracy: tuple[float, ...]
    train_word_accuracy: float
    test_word_accuracy: float
    chance_bit_accuracy: tuple[float, ...]

    @property
    def mean_test_bit_accuracy(self) -> float:
        return float(np.mean(self.test_bit_accuracy))

    @property
    def mean_chance_bit_accuracy(self) -> float:
        return float(np.mean(self.chance_bit_accuracy))


def attack_report(train: CrpDataset, test: CrpDataset, predict) -> AttackReport:
    """Score a predictor on both sides of a split.

    ``predict`` maps an (n,) array of challenge words to an (n, 11) bit
    matrix.  The chance baseline predicts each bit's training majority
    value everywhere, scored on the test side; a generalising attacker
    must beat it, a non-generalising one should match it.
    """
    tr_words, tr_y = _targets(train)
    te_words, te_y = _targets(test)
    tr_pred = np.asarray(predict(tr_words))
    te_pred = np.asarray(predict(te_words))
    majority = (tr_y.mean(axis=0) >= 0.5).astype(float)
    return AttackReport(
        train_bit_accuracy=tuple((tr_pred == tr_y).mean(axis=0).tolist()),
        test_bit_accuracy=tuple((te_pred == te_y).mean(axis=0).tolist()),
        train_word_accuracy=float((tr_pred == tr_y).all(axis=1).mean()),
        test_word_accuracy=float((te_pred == te_y).all(axis=1).mean()),
        chance_bit_accuracy=tuple((majority[None, :] == te_y).mean(axis=0).tolist()),
    )

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
distance to the training responses, the popcount of each read's 11-bit
word index XOR its cell's target word.  A member carries only its values
and their total distance; an offspring re-reads each trained cell it
mutated at the parent's value and at the new one, and its total is the
parent's plus the differences.  That total over n * 11 is exactly the
mean because each trained cell is read once (the chip index refuses a
repeated read).  The ES's random draws come from a forked process that
draws ahead while the fit scores; they are the stream, in the order, that one
Generator seeded by ``EsHyper.seed`` makes in one process, so the fit's
outputs are those of an unforked fit.  The step schedules are module
constants; ``EsHyper`` and ``LrHyper`` hold only what a caller sets.
ES uses the model, quantizer and converter the data was read with.  Both
attackers refuse more than one read of a (chip, challenge) through
``CrpDataset.chip_ids``, as the metrics do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adc import AdcConfig, convert_array, response_bits
from .analog import TransferModel, transfer_array
from .cellarray import CHALLENGE_BITS, decode
from .codec import check_range
from .crp import CrpDataset, bits_matrix
from .fork import forked
from .quantizer import QuantizerSpec
from .word import WORD_BITS, WORD_WEIGHT, word_index

N_CELLS = 1 << CHALLENGE_BITS
MAX_BACKTRACKS = 40  # LR step halvings tried per bit and epoch
SIGMA0 = 0.03  # ES initial and coarse mutation step, volts
SIGMA_FLOOR = 1.0e-5  # ES annealed step never falls below this
MUTATION_RATE = 2.0  # expected mutated coordinates per offspring
COARSE_FRACTION = 0.1  # offspring that mutate at SIGMA0 regardless of annealing
STAGNATION_LIMIT = 15  # generations without a better fitness before the step halves
DRAW_BATCH = 25  # ES generations of draws per item the draw process sends


class FeatureEncoding(Enum):
    """How a challenge word is presented to the logistic attacker."""

    RAW_BITS = "raw"
    ONE_HOT_ROWCOL = "rowcol"
    ONE_HOT_CELL = "cell"


def features(encoding: FeatureEncoding, words: np.ndarray) -> np.ndarray:
    """The (n, 8 | 32 | 256) feature matrix of an array of challenge words, by encoding.

    ``decode`` checks the words, so one outside [0, 255] raises.
    """
    if not isinstance(encoding, FeatureEncoding):
        raise TypeError(f"encoding must be a FeatureEncoding, got {encoding!r}")
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


def _bce(weights: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Per-bit binary cross-entropy plus L2 on the non-bias rows, with its z and exp(-|z|).

    weights is (n_features + 1, n_bits) with the bias in the last row and
    x carries a trailing column of ones.  Uses the overflow-free form
    max(z, 0) - z * y + log1p(exp(-|z|)) of z = x @ weights; the gradient
    at these weights reuses z and exp(-|z|).
    """
    z = x @ weights
    e = np.exp(-np.abs(z))
    per_sample = np.maximum(z, 0.0) - z * y + np.log1p(e)
    return per_sample.mean(axis=0) + 0.5 * l2 * np.sum(weights[:-1] ** 2, axis=0), z, e


@dataclass(frozen=True)
class LrHyper:
    encoding: FeatureEncoding = FeatureEncoding.ONE_HOT_CELL
    epochs: int = 400
    learning_rate: float = 50.0
    l2: float = 1.0e-6

    def __post_init__(self) -> None:
        if not isinstance(self.encoding, FeatureEncoding):
            raise TypeError(f"encoding must be a FeatureEncoding, got {self.encoding!r}")
        check_range("learning_rate", self.learning_rate, 0, open_lo=True)
        check_range("l2", self.l2, 0)
        check_range("epochs", self.epochs, 1, integer=True)


@dataclass
class LrModel:
    encoding: FeatureEncoding
    weights: np.ndarray  # (feature columns + 1, 11), bias row last
    loss_history: np.ndarray  # (epochs + 1, 11)


def _targets(dataset: CrpDataset) -> tuple[np.ndarray, np.ndarray]:
    ids = dataset.chip_ids
    if len(ids) != 1:
        raise ValueError(f"attack expects a single-chip dataset, got chips {ids}")
    return dataset.challenge, bits_matrix(dataset).astype(float)


def lr_train(dataset: CrpDataset, hyper: LrHyper | None = None) -> LrModel:
    """Fit the 11 per-bit logistic classifiers on one chip's records, in ``hyper.encoding``."""
    if hyper is None:
        hyper = LrHyper()
    words, y = _targets(dataset)
    x = np.hstack([features(hyper.encoding, words), np.ones((len(words), 1))])
    weights = np.zeros((x.shape[1], WORD_BITS))
    lr = np.full(WORD_BITS, hyper.learning_rate)
    loss, z, e = _bce(weights, x, y, hyper.l2)
    history = [loss]
    for _ in range(hyper.epochs):
        # the sigmoid of z, as 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below
        p = np.where(z >= 0, 1.0, e) / (1.0 + e)
        grad = x.T @ (p - y) / x.shape[0]
        grad[:-1] += hyper.l2 * weights[:-1]
        trial = weights - lr * grad
        trial_loss, trial_z, trial_e = _bce(trial, x, y, hyper.l2)
        for _ in range(MAX_BACKTRACKS):
            worse = trial_loss > loss + 1.0e-12
            if not worse.any():
                break
            lr = np.where(worse, lr * 0.5, lr)
            trial = weights - lr * grad
            trial_loss, trial_z, trial_e = _bce(trial, x, y, hyper.l2)
        accepted = trial_loss <= loss + 1.0e-12
        weights = np.where(accepted, trial, weights)
        z = np.where(accepted, trial_z, z)
        e = np.where(accepted, trial_e, e)
        loss = np.where(accepted, trial_loss, loss)
        lr = np.where(accepted, np.minimum(lr * 1.2, 1.0e6), lr)
        history.append(loss)
    return LrModel(encoding=hyper.encoding, weights=weights, loss_history=np.array(history))


def lr_predict(model: LrModel, words: np.ndarray) -> np.ndarray:
    """Predicted (n, 11) bit rows for an (n,) array of challenge words."""
    x = np.hstack([features(model.encoding, words), np.ones((len(words), 1))])
    return (x @ model.weights > 0.0).astype(np.int8)


@dataclass(frozen=True)
class EsHyper:
    generations: int = 4000
    population: int = 40
    parents: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("parents", self.parents, 1, integer=True)
        check_range("population", self.population, self.parents, integer=True)
        # at 0 generations the clone is the initial best
        check_range("generations", self.generations, 0, integer=True)
        check_range("seed", self.seed, 0, integer=True)


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


def _distance(
    adc_config: AdcConfig, spec: QuantizerSpec, volts: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Encoded Hamming distance of each voltage's word to a target word index."""
    region, code, _ = convert_array(adc_config, spec, volts)
    return WORD_WEIGHT[word_index(region, code) ^ target]


def _draw(hyper: EsHyper):
    """The ES's draws, in the order of its one Generator, for ``fork.forked`` to send.

    First the (parents, 256) first parents.  Then, per DRAW_BATCH generations, the
    ``(picks, coarse, cuts, at, steps)`` of the batch: each generation's parent of each
    offspring and whether each offspring mutates at SIGMA0, one row each; and the flat
    (offspring, cell) positions each generation mutates with their standard normal steps,
    joined, and split at ``cuts``.  The mask and the steps are drawn for every cell, so
    the stream is the same whatever the fit does with them.
    """
    rng = np.random.default_rng(hyper.seed)
    mu, lam = hyper.parents, hyper.population
    yield rng.normal(0.0, SIGMA0, size=(mu, N_CELLS))
    uniform, normal = np.empty((lam, N_CELLS)), np.empty(lam * N_CELLS)  # filled in place
    for start in range(0, hyper.generations, DRAW_BATCH):
        picks, coarse, at, steps = [], [], [], []
        for _ in range(min(DRAW_BATCH, hyper.generations - start)):
            picks.append(rng.integers(0, mu, size=lam))
            mask = rng.random(out=uniform) < MUTATION_RATE / N_CELLS
            silent = np.flatnonzero(~mask.any(axis=1))
            if silent.size:
                mask[silent, rng.integers(0, N_CELLS, size=silent.size)] = True
            coarse.append(rng.random(lam) < COARSE_FRACTION)
            at.append(mask.reshape(-1).nonzero()[0])
            steps.append(rng.standard_normal(out=normal)[at[-1]])
        cuts = np.cumsum([len(a) for a in at[:-1]], dtype=np.int64)
        yield np.array(picks), np.array(coarse), cuts, np.concatenate(at), np.concatenate(steps)


def _generations(batches):
    """Each generation's ``(pick, coarse, at, steps)`` from ``_draw``'s batches."""
    for picks, coarse, cuts, at, steps in batches:
        yield from zip(picks, coarse, np.split(at, cuts), np.split(steps, cuts))


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

    Each member is its (256,) values and their total: the sum over trained
    cells of the encoded distance of each cell's word to its target.  An
    offspring is a copy of its parent's row with its mutations written in;
    each mutated trained cell is read twice, at the parent's value and at
    the new one, in the generation's one ``adc.convert_array``, and the
    offspring's total is the parent's plus the differences.  The fitness is
    the total over n * 11, exactly the mean encoded distance, because
    ``_targets`` reads ``chip_ids``, which refuses a repeated read, and so each
    trained cell stands for one record.

    The draws come from a forked process (``fork.forked``) that sends them
    DRAW_BATCH generations at a time while this scores the last ones.
    They are the stream, in the order, of one in-process Generator seeded by
    ``hyper.seed``, so the clone and its history do not change.  The process
    is reaped before this returns or raises.
    """
    if hyper is None:
        hyper = EsHyper()
    words, _ = _targets(dataset)
    trained = np.zeros(N_CELLS, dtype=bool)
    trained[words] = True
    target = np.zeros(N_CELLS, dtype=np.int64)
    target[words] = word_index(dataset.region, dataset.code)
    n_bits = len(words) * WORD_BITS

    def distances(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Encoded Hamming distance of each value, read as its cell, to the cell's target."""
        return _distance(adc_config, spec, transfer_array(model, values), target[cells])

    mu, lam = hyper.parents, hyper.population
    sigma = SIGMA0
    # safe to fork beside OpenBLAS's threads: the child draws from its own Generator,
    # writes one pipe and takes no lock they share
    with forked(_draw, hyper) as draws:
        pop = next(draws)
        # whole-number totals, exact in float, sort as their fitness totals / n_bits does
        totals = distances(pop[:, words], words).sum(axis=1).astype(float)
        order = np.argsort(totals, kind="stable")
        pop, totals = pop[order], totals[order]
        history = [float(totals[0] / n_bits)]
        stagnant = 0
        for pick, coarse, at, steps in _generations(draws):
            # each mutation: its offspring, its cell and the new value
            child, cell = np.divmod(at, N_CELLS)
            offspring = pop[pick]
            old = offspring[child, cell]
            value = old + steps * np.where(coarse, SIGMA0, sigma)[child]
            offspring[child, cell] = value
            # a mutated trained cell is read at its parent's value, then at its new one
            hit = trained[cell].nonzero()[0]
            twice = np.concatenate((hit, hit))
            read = distances(np.concatenate((old[hit], value[hit])), cell[twice])
            gain = np.bincount(child[hit], weights=read[hit.size :] - read[: hit.size],
                               minlength=lam)
            all_totals = np.concatenate([totals, totals[pick] + gain])
            survivors = np.argsort(all_totals, kind="stable")[:mu]
            pop, totals = np.concatenate((pop, offspring))[survivors], all_totals[survivors]
            best = totals[0] / n_bits
            if best < history[-1] - 1.0e-15:
                stagnant = 0
            else:
                stagnant += 1
            if stagnant >= STAGNATION_LIMIT:
                sigma = max(sigma * 0.5, SIGMA_FLOOR)
                stagnant = 0
            history.append(float(best))
    return EsClone(params=pop[0], fitness=history[-1], history=np.array(history))


def split(dataset: CrpDataset, train_frac: float, seed: int = 0) -> tuple[CrpDataset, CrpDataset]:
    """Challenge-disjoint train/test split.

    Splitting is by challenge word so a held-out record's cell was never
    seen in training, which is the setting that matters for an attacker.
    Record order within each side follows the original dataset.
    """
    if not (0.0 < train_frac < 1.0):
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    check_range("seed", seed, 0, integer=True)
    words = np.unique(dataset.challenge)
    if len(words) < 2:
        raise ValueError("need at least two distinct challenges to split")
    n_train = int(round(train_frac * len(words)))
    n_train = min(max(n_train, 1), len(words) - 1)
    perm = np.random.default_rng(seed).permutation(len(words))
    train = np.isin(dataset.challenge, words[perm[:n_train]])
    return dataset.take(train), dataset.take(~train)


@dataclass(frozen=True)
class AttackReport:
    """Accuracy summary of one attacker on one train/test split."""

    train_bit_accuracy: tuple[float, ...]
    test_bit_accuracy: tuple[float, ...]
    train_word_accuracy: float
    test_word_accuracy: float
    chance_bit_accuracy: tuple[float, ...]


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

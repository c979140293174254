"""The scalar read route, one record at a time, written apart from the package's kernels.

The package reads through array kernels: ``crp._record_seeds``,
``cellarray.evaluate_array``, ``quantizer.region_index_array`` and
``adc.convert_array``.  This module reads one record the way the chain
is described, cell -> tanh -> Lloyd-Max region -> single-slope ADC ->
11-bit word, with arithmetic of its own:

    record_seed  numpy's ``SeedSequence`` on (base seed, crc32 of the chip id, word)
    evaluate     the word's range check and ``divmod(word, 16)`` to (row, column),
                 then ``transfer_array`` of that cell's ``effective_mismatch``
    region_of    ``np.searchsorted`` over the boundaries
    convert      the comparator choice, then ``math.floor`` quantisation
    encode       the region and code formatted as binary strings
    splitmix64   the standard SplitMix64 generator on Python integers
    record_noise Box-Muller of a seed's first two ``splitmix64`` outputs, with
                 ``math.log``, ``math.sqrt`` and ``math.cos``
    read         one record, its noise from ``record_noise``
    reliability  every chip's reference and stressed reads, record by record

The tests hold every kernel to it value for value, errors included, with
one exception: ``crp._record_noise`` takes numpy's ``log``, whose SIMD loop
may round a last ulp apart from ``math.log``, so its noise is held to
``record_noise`` within 2 ulp, while datasets and bits are held exactly.
``save_jsonl`` writes each record with its own ``json.dumps`` call, and
``crp.save_jsonl`` is held to it byte for byte.

``lloyd_max_steps`` is the Lloyd-Max fit as first written: every
iteration looks up each sample's region with ``region_index_array`` and
takes counts and sums with ``np.bincount``.  ``quantizer._lloyd_max_steps``
reads regions as runs of its sorted samples instead and is held to it bit
for bit.

``es_fit_dense`` is the evolution strategy as first written: every
generation builds each offspring densely and re-reads the whole training
set for every one of them.  ``attack.es_fit`` re-reads only each
offspring's mutated trained cells, at the parent's value and the new one,
and scores a read as a word-XOR popcount instead, and is held to it array
for array.

``lr_train`` is the logistic attacker as first written: every epoch's
gradient recomputes ``x @ weights`` and its sigmoid with ``bce_gradient``
and ``_sigmoid``.  ``attack.lr_train`` reuses the accepted step's logits
and is held to it bit for bit; ``bce_loss`` and ``bce_gradient`` are also
what the finite-difference tests check.
"""

import json
import math
import zlib

import numpy as np

from cmapuf.adc import AdcConfig
from cmapuf.analog import Conditions, TransferModel, effective_mismatch, transfer_array
from cmapuf.attack import (
    COARSE_FRACTION,
    MAX_BACKTRACKS,
    MUTATION_RATE,
    N_CELLS,
    SIGMA0,
    SIGMA_FLOOR,
    STAGNATION_LIMIT,
    EsClone,
    EsHyper,
    FeatureEncoding,
    LrHyper,
    LrModel,
    _targets,
    clone_bits,
    features,
)
from cmapuf.crp import CSV_FIELDS, CrpDataset, bits_matrix
from cmapuf.quantizer import (
    EmpiricalDistribution,
    QuantizerSpec,
    quantization_mse,
    region_index_array,
)
from cmapuf.variation import ChipInstance
from cmapuf.word import CODE_FIELD_BITS, REGION_FIELD_BITS, WORD_BITS, ResponseWord


def record_seed(base_seed: int, chip_id: str, word: int) -> int:
    """Derived noise seed for one (chip, challenge) read."""
    ss = np.random.SeedSequence([base_seed, zlib.crc32(chip_id.encode()), word])
    return int(ss.generate_state(1, np.uint64)[0])


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """SplitMix64's outputs from a 64-bit seed, one by one (Steele, Lea & Flood, 2014)."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def record_noise(seed: int, sigma: float) -> float:
    """A record seed's normal: Box-Muller of two 53-bit uniforms, the first in (0, 1]."""
    outputs = splitmix64(seed)
    z1, z2 = next(outputs), next(outputs)
    u1 = ((z1 >> 11) + 1) / 2**53
    u2 = (z2 >> 11) / 2**53
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def evaluate(
    model: TransferModel,
    chip: ChipInstance,
    word: int,
    temperature: float,
    noise: float | None = None,
) -> float:
    """Voltage of the cell the word selects: high nibble row, low nibble column."""
    if not 0 <= word <= 255:
        raise ValueError(f"challenge must be in [0, 255], got {word}")
    row, col = divmod(word, 16)
    offset = model.switching.offset(chip.config.corner)
    dvth = chip.mismatch[row, col]
    delta = effective_mismatch(model, dvth, offset, temperature, noise)
    return float(transfer_array(model, delta))


def region_of(spec: QuantizerSpec, v: float) -> tuple[int, int]:
    """1-based region and precision; a boundary belongs to the region above, vdd to the last."""
    if not (0.0 <= v <= spec.vdd):
        raise ValueError(f"v must be within [0, {spec.vdd}], got {v}")
    idx = min(int(np.searchsorted(spec.boundaries, v, side="right")) - 1, spec.k - 1)
    return idx + 1, spec.bits_per_region[idx]


def quantize(vdd: float, v: float, bits: int) -> int:
    """Full-scale b-bit code of a voltage: floor(v / vdd * 2**b), clamped."""
    if not (0.0 <= v <= vdd):
        raise ValueError(f"v must be within [0, {vdd}], got {v}")
    if not (1 <= bits <= CODE_FIELD_BITS):
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    return min(int(math.floor(v / vdd * (1 << bits))), (1 << bits) - 1)


def comparator(config: AdcConfig, v: float) -> str:
    """Upper-half voltages use comparator A, the rest (the midpoint included) B."""
    return "A" if v > 0.5 * config.vdd + config.comparator_residual_offset else "B"


def convert(config: AdcConfig, spec: QuantizerSpec, v: float) -> ResponseWord:
    """Region lookup, comparator choice, then the in-region code.

    The residual offset shifts the voltage the ramp compares against, up
    for comparator A and down for B; the region sees the raw voltage.
    """
    region, bits = region_of(spec, v)
    shift = config.comparator_residual_offset
    v_eff = v + shift if comparator(config, v) == "A" else v - shift
    v_eff = min(max(v_eff, 0.0), config.vdd)
    return ResponseWord(region=region, code=quantize(config.vdd, v_eff, bits), bits=bits)


def encode(word: ResponseWord) -> str:
    """3 region bits, then the code zero-padded on the left to 8 bits."""
    return format(word.region, f"0{REGION_FIELD_BITS}b") + format(
        word.code, f"0{CODE_FIELD_BITS}b"
    )


def read(
    chip: ChipInstance,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    word: int,
    conditions: Conditions,
) -> tuple[int, ResponseWord]:
    """One record: its derived noise seed and its response word."""
    seed = record_seed(conditions.noise_seed, chip.chip_id, word)
    noise = None
    if conditions.noise_sigma > 0.0:
        noise = record_noise(seed, conditions.noise_sigma)
    v = evaluate(model, chip, word, conditions.temperature, noise)
    return seed, convert(adc_config, spec, v)


def read_bits(
    chip: ChipInstance,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    words,
    conditions: Conditions,
) -> np.ndarray:
    """(words, 11) response bits of one chip."""
    rows = [encode(read(chip, model, spec, adc_config, w, conditions)[1]) for w in words]
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.int8)


def reliability(
    chips: list[ChipInstance],
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    test_conditions: list[Conditions],
) -> list[float]:
    """Per chip: 1 - mean fractional HD between the noise-free 25 degC read and each stressed read."""
    words = range(256)
    ref = Conditions(temperature=25.0, noise_sigma=0.0)
    values = []
    for chip in chips:
        ref_bits = read_bits(chip, model, spec, adc_config, words, ref)
        total = 0.0
        for cond in test_conditions:
            got = read_bits(chip, model, spec, adc_config, words, cond)
            total += float((got != ref_bits).mean())
        values.append(1.0 - total / len(test_conditions))
    return values


def save_jsonl(dataset: CrpDataset, path) -> None:
    """``json.dumps(record, sort_keys=True)`` per record."""
    with open(path, "w") as fh:
        for i in range(len(dataset)):
            word = ResponseWord(
                int(dataset.region[i]), int(dataset.code[i]), int(dataset.bits[i])
            )
            values = (
                str(dataset.chip_id[i]),
                format(int(dataset.challenge[i]), "02x"),
                word.region,
                word.code,
                word.bits,
                encode(word),
                float(dataset.temperature[i]),
                float(dataset.noise_sigma[i]),
                int(dataset.noise_seed[i]),
            )
            fh.write(json.dumps(dict(zip(CSV_FIELDS, values)), sort_keys=True) + "\n")


def lloyd_max_steps(
    dist: EmpiricalDistribution, k: int, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """``quantizer._lloyd_max_steps`` with a region lookup and two bincounts per iteration:
    its last boundaries and centroids, and the MSE of each iteration on the sorted samples."""
    samples = np.sort(dist.samples)
    boundaries = np.linspace(0.0, dist.vdd, k + 1)
    centroids = 0.5 * (boundaries[:-1] + boundaries[1:])
    mse_trace: list[float] = []
    for _ in range(max_iter):
        idx = region_index_array(boundaries, samples)
        counts = np.bincount(idx, minlength=k)
        sums = np.bincount(idx, weights=samples, minlength=k)
        busiest = int(np.argmax(counts))
        fallback = 0.5 * (boundaries[busiest] + boundaries[busiest + 1])
        centroids = np.where(counts > 0, sums / np.maximum(counts, 1), fallback)
        centroids = np.sort(centroids)
        new_boundaries = boundaries.copy()
        new_boundaries[1:-1] = 0.5 * (centroids[:-1] + centroids[1:])
        moved = float(np.max(np.abs(new_boundaries - boundaries)))
        boundaries = new_boundaries
        mse_trace.append(quantization_mse(boundaries, centroids, samples))
        if moved < tol:
            break
    return boundaries, centroids, mse_trace


def es_fit_dense(
    dataset: CrpDataset,
    model: TransferModel,
    spec: QuantizerSpec,
    adc_config: AdcConfig,
    hyper: EsHyper,
) -> EsClone:
    """``attack.es_fit`` with the whole training set re-read for every offspring."""
    words, y = dataset.challenge, bits_matrix(dataset)

    def fitness(pop: np.ndarray) -> np.ndarray:
        return (clone_bits(pop, model, spec, adc_config, words) != y).mean(axis=(1, 2))

    rng = np.random.default_rng(hyper.seed)
    mu, lam = hyper.parents, hyper.population
    sigma = SIGMA0
    pop = rng.normal(0.0, SIGMA0, size=(mu, N_CELLS))
    fit = fitness(pop)
    order = np.argsort(fit, kind="stable")
    pop, fit = pop[order], fit[order]
    history = [float(fit[0])]
    stagnant = 0
    for _ in range(hyper.generations):
        parents = pop[rng.integers(0, mu, size=lam)]
        mask = rng.random((lam, N_CELLS)) < MUTATION_RATE / N_CELLS
        silent = ~mask.any(axis=1)
        if silent.any():
            mask[np.flatnonzero(silent), rng.integers(0, N_CELLS, size=int(silent.sum()))] = True
        scale = np.where(rng.random((lam, 1)) < COARSE_FRACTION, SIGMA0, sigma)
        offspring = parents + mask * rng.normal(0.0, 1.0, size=(lam, N_CELLS)) * scale
        all_pop = np.vstack([pop, offspring])
        all_fit = np.concatenate([fit, fitness(offspring)])
        order = np.argsort(all_fit, kind="stable")[:mu]
        pop, fit = all_pop[order], all_fit[order]
        if fit[0] < history[-1] - 1.0e-15:
            stagnant = 0
        else:
            stagnant += 1
        if stagnant >= STAGNATION_LIMIT:
            sigma = max(sigma * 0.5, SIGMA_FLOOR)
            stagnant = 0
        history.append(float(fit[0]))
    return EsClone(params=pop[0], fitness=float(fit[0]), history=np.array(history))


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


def lr_train(dataset: CrpDataset, encoding: FeatureEncoding, hyper: LrHyper) -> LrModel:
    """``attack.lr_train`` with the loss and the gradient each computed from the weights."""
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

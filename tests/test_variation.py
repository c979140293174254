import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf.variation import (
    N_COLS,
    N_ROWS,
    TRANSISTORS,
    ChipInstance,
    ProcessCorner,
    VariationConfig,
    load_chip,
    sample_mismatch,
    synth_population,
    save_chip,
    synth_chip,
)


def test_same_seed_same_chip():
    a = synth_chip(VariationConfig(seed=42))
    b = synth_chip(VariationConfig(seed=42))
    assert np.array_equal(a.mismatch, b.mismatch)


def test_different_seeds_differ():
    a = synth_chip(VariationConfig(seed=42))
    b = synth_chip(VariationConfig(seed=43))
    # continuous draws from independent streams collide with probability ~0
    assert (a.mismatch != b.mismatch).mean() > 0.99


def test_draw_order_is_row_major_then_transistor():
    # the flat stream from the generator must land row-major, four values
    # per cell, in TRANSISTORS order
    config = VariationConfig(sigma_vth=0.05, seed=9)
    flat = np.random.default_rng(9).normal(0.0, 0.05, size=N_ROWS * N_COLS * 4)
    got = sample_mismatch(config)
    assert got[0, 0, 0] == flat[0]
    assert got[0, 0, 3] == flat[3]
    assert got[0, 1, 0] == flat[4]
    assert got[1, 0, 0] == flat[N_COLS * 4]
    assert got[15, 15, 3] == flat[-1]


def test_population_statistics():
    config = VariationConfig(sigma_vth=0.030, seed=0)
    chips = synth_population(config, 30)
    pooled = np.concatenate([c.mismatch.ravel() for c in chips])
    assert abs(pooled.mean()) < 0.002
    assert abs(pooled.std() - 0.030) < 0.002


def test_vector_sampling_statistics():
    # 400 chips of 256 cells: about 100k per-cell mismatch vectors
    chips = synth_population(VariationConfig(sigma_vth=0.030, seed=5), 400)
    mat = np.concatenate([c.mismatch.reshape(-1, len(TRANSISTORS)) for c in chips])
    # each component is N(0, sigma^2): stddev tight at this n, mean within
    # three standard errors of zero
    assert np.all(np.abs(mat.std(axis=0) - 0.030) < 0.001)
    assert np.all(np.abs(mat.mean(axis=0)) < 3.0 * 0.030 / np.sqrt(len(mat)))
    # components are mutually independent draws
    corr = np.corrcoef(mat.T)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.02)


def test_vector_sampling_edge_cases():
    with pytest.raises(ValueError):
        synth_population(VariationConfig(), 0)
    zeros = synth_population(VariationConfig(sigma_vth=0.0, seed=3), 10)
    assert len(zeros) == 10
    assert all(np.all(c.mismatch == 0.0) for c in zeros)
    again = synth_population(VariationConfig(sigma_vth=0.030, seed=5), 5)
    for a, b in zip(again, synth_population(VariationConfig(sigma_vth=0.030, seed=5), 5)):
        assert np.array_equal(a.mismatch, b.mismatch)


def test_zero_sigma_gives_identical_mismatch_free_chips():
    a = synth_chip(VariationConfig(sigma_vth=0.0, seed=1))
    b = synth_chip(VariationConfig(sigma_vth=0.0, seed=2))
    assert np.all(a.mismatch == 0.0)
    assert np.array_equal(a.mismatch, b.mismatch)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        VariationConfig(sigma_vth=-0.01)


def test_population_chips_are_pairwise_distinct():
    chips = synth_population(VariationConfig(seed=7), 5)
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(chips[i].mismatch, chips[j].mismatch)
    assert [c.chip_id for c in chips] == [f"chip{i:03d}" for i in range(5)]


def test_mismatch_array_is_read_only():
    chip = synth_chip(VariationConfig(seed=3))
    with pytest.raises(ValueError):
        chip.mismatch[0, 0, 0] = 1.0


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        ChipInstance(chip_id="x", config=VariationConfig(), mismatch=np.zeros((4, 4, 4)))


def test_chip_json_round_trip(tmp_path):
    chip = synth_chip(VariationConfig(sigma_vth=0.02, corner=ProcessCorner.FS, seed=77))
    path = tmp_path / "chip.json"
    save_chip(chip, path)
    loaded = load_chip(path)
    assert loaded.chip_id == chip.chip_id
    assert loaded.config == chip.config
    assert np.array_equal(loaded.mismatch, chip.mismatch)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), sigma=st.floats(0.0, 0.2))
def test_synth_shape_and_determinism(seed, sigma):
    config = VariationConfig(sigma_vth=sigma, seed=seed)
    chip = synth_chip(config)
    assert chip.mismatch.shape == (N_ROWS, N_COLS, len(TRANSISTORS))
    assert np.all(np.isfinite(chip.mismatch))
    assert np.array_equal(chip.mismatch, synth_chip(config).mismatch)

import json
import re
import tracemalloc

import numpy as np
import oracle
import pytest

from cmapuf.adc import AdcConfig, ResponseWord
from cmapuf.analog import Conditions, default_model
from cmapuf.crp import (
    COLUMNS,
    CSV_FIELDS,
    CrpDataset,
    MetricsReport,
    bit_aliasing,
    bits_matrix,
    generate,
    load_csv,
    load_jsonl,
    record_seed,
    reliability,
    save_csv,
    save_jsonl,
    uniformity,
    uniqueness,
)
from cmapuf.quantizer import default_regions
from cmapuf.variation import VariationConfig, synth_population, synth_chip

MODEL = default_model()
SPEC = default_regions()
ADC = AdcConfig()


@pytest.fixture(scope="module")
def small_dataset():
    chips = synth_population(VariationConfig(seed=50), 3)
    return generate(chips, MODEL, SPEC, ADC, list(range(256)), Conditions())


def _dataset(*reads):
    """A dataset of (chip_id, challenge, region, code[, bits]) reads at 25 degC, noiseless."""
    chip_id, challenge, region, code, bits = zip(*((*r, 8)[:5] for r in reads))
    n = len(reads)
    return CrpDataset(
        chip_id=chip_id, challenge=challenge, region=region, code=code, bits=bits,
        temperature=[25.0] * n, noise_sigma=[0.0] * n, noise_seed=[0] * n,
    )


def assert_same_records(a, b):
    for name, dtype in COLUMNS.items():
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype.type is dtype and np.array_equal(got, want), name


def test_generate_shape_and_order(small_dataset):
    assert len(small_dataset) == 3 * 256
    assert small_dataset.chip_ids == ["chip000", "chip001", "chip002"]
    assert small_dataset.challenge[:256].tolist() == list(range(256))
    assert set(small_dataset.chip_id[:256].tolist()) == {"chip000"}


def test_generate_deterministic(small_dataset):
    chips = synth_population(VariationConfig(seed=50), 3)
    again = generate(chips, MODEL, SPEC, ADC, list(range(256)), Conditions())
    assert_same_records(again, small_dataset)


def test_single_record_reproducible_from_its_seed():
    # noise seeds are derived per (chip, challenge): regenerating one
    # record alone must give the same response as the batch run
    chip = synth_chip(VariationConfig(seed=50))
    cond = Conditions(noise_sigma=0.004, noise_seed=123)
    ds = generate([chip], MODEL, SPEC, ADC, list(range(256)), cond)
    assert ds.noise_seed[77] == record_seed(123, chip.chip_id, 77)
    assert ds.noise_seed[77] == oracle.record_seed(123, chip.chip_id, 77)
    solo = generate([chip], MODEL, SPEC, ADC, [77], cond)
    assert_same_records(solo, ds.take([77], {}))


def test_uniqueness_rejects_duplicate_reads():
    # a 0 degC and a 90 degC dataset of the same chips, merged: every
    # (chip, challenge) is read twice and no one read is the right one
    chips = synth_population(VariationConfig(seed=50), 2)
    cold, hot = (
        generate(chips, MODEL, SPEC, ADC, list(range(32)), Conditions(temperature=t))
        for t in (0.0, 90.0)
    )
    merged = CrpDataset(
        **{name: np.concatenate([getattr(cold, name), getattr(hot, name)]) for name in COLUMNS}
    )
    repeat = "needs one read per (chip, challenge), but chip 'chip000' has more than one read"
    for metric in (uniqueness, bit_aliasing, lambda ds: uniformity(ds, "chip000")):
        with pytest.raises(ValueError, match=re.escape(repeat) + " of challenge 0$"):
            metric(merged)
    assert 0.0 < uniqueness(cold) < 1.0
    assert 0.0 < uniformity(cold, "chip000") < 1.0
    assert bit_aliasing(cold).shape == (11,)


def test_noise_flips_some_codes():
    chip = synth_chip(VariationConfig(seed=50))
    clean = generate([chip], MODEL, SPEC, ADC, list(range(256)), Conditions())
    noisy = generate(
        [chip], MODEL, SPEC, ADC, list(range(256)), Conditions(noise_sigma=0.004, noise_seed=1)
    )
    flips = int(np.sum((clean.region != noisy.region) | (clean.code != noisy.code)))
    assert 0 < flips < 256


def test_bits_matrix_matches_encoded_strings(small_dataset):
    mat = bits_matrix(small_dataset)
    for i in range(10):
        d = small_dataset
        word = ResponseWord(int(d.region[i]), int(d.code[i]), int(d.bits[i]))
        assert "".join(str(int(b)) for b in mat[i]) == word.encoded


def test_uniqueness_identical_chips_is_zero():
    ds = _dataset(("a", 0, 3, 17), ("b", 0, 3, 17), ("a", 1, 5, 200), ("b", 1, 5, 200))
    assert uniqueness(ds) == 0.0


def test_uniqueness_complementary_codes_is_one_on_code_bits():
    ds = _dataset(("a", 0, 1, 0b10101010), ("b", 0, 1, 0b01010101))
    assert uniqueness(ds, bit_positions=list(range(3, 11))) == 1.0
    # region bits agree, so over all 11 positions the distance dilutes to 8/11
    assert uniqueness(ds) == pytest.approx(8 / 11)


def test_hamming_distance_extremes_exhaustive():
    # self-distance is 0 for every constructible response word: pack all
    # (region, code) combinations into identical-chip datasets, chunked
    # because a chip has only 256 challenge slots
    words = [
        (region, code, bits)
        for region, bits in zip(range(1, 6), SPEC.bits_per_region)
        for code in range(1 << bits)
    ]
    for start in range(0, len(words), 256):
        chunk = words[start : start + 256]
        reads = [
            (cid, ch, region, code, bits)
            for cid in ("a", "b")
            for ch, (region, code, bits) in enumerate(chunk)
        ]
        assert uniqueness(_dataset(*reads)) == 0.0

    # distance to the complement is 1; the complement of a valid word is
    # itself valid exactly when an 8-bit region-2 word pairs with the
    # region-5 word holding its inverted code
    reads = []
    for code in range(128):
        assert ResponseWord(2, code, 7).encoded == "".join(
            "10"[int(b)] for b in ResponseWord(5, 255 - code, 8).encoded
        )
        reads.append(("a", code, 2, code, 7))
        reads.append(("b", code, 5, 255 - code, 8))
    assert uniqueness(_dataset(*reads)) == 1.0


def test_uniqueness_requires_two_chips_and_overlap():
    with pytest.raises(ValueError):
        uniqueness(_dataset(("a", 0, 3, 17)))
    with pytest.raises(ValueError):
        uniqueness(_dataset(("a", 0, 3, 17), ("b", 1, 3, 17)))


def test_uniqueness_population_plausible(small_dataset):
    u = uniqueness(small_dataset, bit_positions=list(range(3, 11)))
    assert 0.4 < u < 0.6


def test_uniformity_hand_computed():
    # '00100010001' has 3 ones of 11; two such records average the same
    ds = _dataset(("a", 0, 1, 0b00010001), ("a", 1, 1, 0b00010001))
    assert uniformity(ds, "a") == pytest.approx(3 / 11)
    with pytest.raises(ValueError):
        uniformity(ds, "missing")


def test_bit_aliasing_single_challenge_two_chips():
    alias = bit_aliasing(_dataset(("a", 0, 1, 0b11110000), ("b", 0, 1, 0b00001111)))
    assert alias.shape == (11,)
    # region bits identical across chips pin to 0 or 1, code bits split at 0.5
    assert alias.tolist() == [0.0, 0.0, 1.0] + [0.5] * 8


def test_bit_aliasing_identical_chips_saturates():
    alias = bit_aliasing(_dataset(("a", 0, 2, 0b1010101, 7), ("b", 0, 2, 0b1010101, 7)))
    assert set(alias.tolist()) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        bit_aliasing(_dataset(("a", 0, 1, 1)))


def test_reliability_at_reference_is_exactly_one():
    chips = [synth_chip(VariationConfig(seed=s)) for s in (50, 51)]
    ref = Conditions(temperature=25.0)
    assert reliability(chips, MODEL, SPEC, ADC, [ref]) == [1.0, 1.0]


def test_reliability_degrades_with_stress():
    chip = synth_chip(VariationConfig(seed=50))
    [mild] = reliability([chip], MODEL, SPEC, ADC, [Conditions(temperature=30.0)])
    [harsh] = reliability(
        [chip], MODEL, SPEC, ADC, [Conditions(temperature=60.0, noise_sigma=0.01, noise_seed=3)]
    )
    assert harsh < mild <= 1.0
    assert harsh > 0.5


def test_reliability_needs_conditions():
    chip = synth_chip(VariationConfig(seed=50))
    with pytest.raises(ValueError, match="test condition"):
        reliability([chip], MODEL, SPEC, ADC, [])
    with pytest.raises(ValueError, match="at least one chip"):
        reliability([], MODEL, SPEC, ADC, [Conditions()])


def test_metrics_report_validation():
    MetricsReport(uniqueness=0.5, uniformity={"a": 0.5}, bit_aliasing=(0.5,) * 11)
    with pytest.raises(ValueError):
        MetricsReport(uniqueness=1.5, uniformity={}, bit_aliasing=None)
    with pytest.raises(ValueError):
        MetricsReport(uniqueness=None, uniformity={"a": -0.1}, bit_aliasing=None)
    with pytest.raises(ValueError, match="metric value 1.5 outside"):
        MetricsReport(0.5, {"a": 0.5}, None, uniqueness_code_bits=1.5)


def test_csv_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_csv(small_dataset, path)
    assert_same_records(load_csv(path), small_dataset)


def test_csv_challenge_column_is_two_digit_hex(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_csv(small_dataset, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[1] == "challenge"
    cells = [line.split(",")[1] for line in lines[1:]]
    assert cells[:3] == ["00", "01", "02"]
    assert cells[255] == "ff"
    assert all(len(c) == 2 for c in cells)


def test_csv_round_trip_with_noise_conditions(tmp_path):
    chip = synth_chip(VariationConfig(seed=50))
    ds = generate(
        [chip], MODEL, SPEC, ADC, [0, 5, 250], Conditions(temperature=60.0, noise_sigma=0.004)
    )
    path = tmp_path / "noisy.csv"
    save_csv(ds, path)
    assert_same_records(load_csv(path), ds)


def test_jsonl_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset, path)
    loaded = load_jsonl(path)
    assert_same_records(loaded, small_dataset)
    assert loaded.metadata == small_dataset.metadata


def test_generate_validates_inputs():
    chip = synth_chip(VariationConfig(seed=50))
    with pytest.raises(ValueError):
        generate([], MODEL, SPEC, ADC, [0], Conditions())
    with pytest.raises(ValueError):
        generate([chip], MODEL, SPEC, ADC, [], Conditions())
    with pytest.raises(ValueError, match=re.escape("challenge must be in [0, 255], got 300")):
        _dataset(("a", 300, 1, 0))


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"challenge": "100"}, "challenge must be in [0, 255], got 256"),
        ({"region": 0}, "region must be in [1, 7], got 0"),
        ({"region": 8}, "region must be in [1, 7], got 8"),
        ({"bits": 0}, "bits must be in [1, 8], got 0"),
        ({"bits": 9}, "bits must be in [1, 8], got 9"),
        ({"bits": 6, "code": 64}, "code must fit in 6 bits, got 64"),
        ({"bits": 8, "code": -1}, "code must fit in 8 bits, got -1"),
        ({"temperature": 100.5}, "temperature must be within [-20, 100] degC, got 100.5"),
        ({"temperature": -20.5}, "temperature must be within [-20, 100] degC, got -20.5"),
        ({"temperature": float("nan")}, "temperature must be within [-20, 100] degC, got nan"),
        ({"noise_sigma": -0.001}, "noise_sigma must be >= 0, got -0.001"),
        ({"noise_seed": -1}, "noise_seed must be in [0, 2**64), got -1"),
        ({"noise_seed": 2**64}, f"noise_seed must be in [0, 2**64), got {2**64}"),
        # the last row reads region 5, code 255
        ({"encoded": "11111111111"},
         "row 3 has encoded '11111111111', but its region and code are '10111111111'"),
    ],
)
def test_loaders_refuse_bad_rows(tmp_path, suffix, edit, message):
    chip = synth_chip(VariationConfig(seed=50))
    ds = generate([chip], MODEL, SPEC, ADC, [0, 1, 2], Conditions())
    path = tmp_path / f"ds{suffix}"
    save, load = (save_csv, load_csv) if suffix == ".csv" else (save_jsonl, load_jsonl)
    save(ds, path)
    load(path)  # the file as written loads
    lines = path.read_text().splitlines()
    if suffix == ".csv":
        header = lines[0].split(",")
        row = dict(zip(header, lines[-1].split(","))) | {k: str(v) for k, v in edit.items()}
        lines[-1] = ",".join(row[name] for name in header)
    else:
        lines[-1] = json.dumps(json.loads(lines[-1]) | edit)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        load(path)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_loaders_refuse_a_file_without_records(tmp_path, suffix):
    path = tmp_path / f"ds{suffix}"
    for text in ("", ",".join(CSV_FIELDS) if suffix == ".csv" else '{"_meta": {"n_chips": 1}}'):
        path.write_text(text)
        load = load_csv if suffix == ".csv" else load_jsonl
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no records$"):
            load(path)


def test_uniqueness_memory_grows_linearly_in_chips():
    # 400 chips x 256 challenges; a (chips, chips, challenges, 11) tensor
    # of pairwise differences would take about 450 MB
    chips, n = 400, 400 * 256
    rng = np.random.default_rng(0)
    ds = CrpDataset(
        chip_id=np.repeat([f"chip{i:03d}" for i in range(chips)], 256),
        challenge=np.tile(np.arange(256), chips),
        region=rng.integers(1, 6, n),
        code=rng.integers(0, 256, n),
        bits=np.full(n, 8),
        temperature=np.full(n, 25.0),
        noise_sigma=np.zeros(n),
        noise_seed=np.zeros(n, dtype=np.uint64),
    )
    tracemalloc.start()
    try:
        u = uniqueness(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # uniform regions 1-5 differ with p = 0.48 per region bit, codes with 0.5
    assert u == pytest.approx((3 * 0.48 + 8 * 0.5) / 11, abs=0.005)

import numpy as np
import pytest

from cmapuf.adc import AdcConfig, ResponseWord
from cmapuf.analog import Conditions, default_model
from cmapuf.crp import (
    CrpDataset,
    CrpRecord,
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


def _record(chip_id, challenge, encoded_region, code, bits=8, **cond):
    return CrpRecord(
        chip_id=chip_id,
        challenge=challenge,
        response=ResponseWord(region=encoded_region, code=code, bits=bits),
        conditions=Conditions(**cond),
    )


def test_generate_shape_and_order(small_dataset):
    assert len(small_dataset) == 3 * 256
    assert small_dataset.chip_ids == ["chip000", "chip001", "chip002"]
    first = small_dataset.records[:256]
    assert [r.challenge for r in first] == list(range(256))
    assert all(r.chip_id == "chip000" for r in first)


def test_generate_deterministic(small_dataset):
    chips = synth_population(VariationConfig(seed=50), 3)
    again = generate(chips, MODEL, SPEC, ADC, list(range(256)), Conditions())
    assert again.records == small_dataset.records


def test_single_record_reproducible_from_its_seed():
    # noise seeds are derived per (chip, challenge): regenerating one
    # record alone must give the same response as the batch run
    chip = synth_chip(VariationConfig(seed=50))
    cond = Conditions(noise_sigma=0.004, noise_seed=123)
    ds = generate([chip], MODEL, SPEC, ADC, list(range(256)), cond)
    r = ds.records[77]
    assert r.conditions.noise_seed == record_seed(123, chip.chip_id, 77)
    solo = generate([chip], MODEL, SPEC, ADC, [77], cond)
    assert solo.records[0].response == r.response


def test_uniqueness_rejects_duplicate_reads():
    # a 0 degC and a 90 degC dataset of the same chips, merged: every
    # (chip, challenge) is read twice and no one read is the right one
    chips = synth_population(VariationConfig(seed=50), 2)
    cold, hot = (
        generate(chips, MODEL, SPEC, ADC, list(range(32)), Conditions(temperature=t))
        for t in (0.0, 90.0)
    )
    merged = CrpDataset(records=cold.records + hot.records)
    with pytest.raises(ValueError, match="chip 'chip000' has more than one read of challenge 0"):
        uniqueness(merged)
    assert 0.0 < uniqueness(cold) < 1.0


def test_noise_flips_some_codes():
    chip = synth_chip(VariationConfig(seed=50))
    clean = generate([chip], MODEL, SPEC, ADC, list(range(256)), Conditions())
    noisy = generate(
        [chip], MODEL, SPEC, ADC, list(range(256)), Conditions(noise_sigma=0.004, noise_seed=1)
    )
    flips = sum(a.response != b.response for a, b in zip(clean.records, noisy.records))
    assert 0 < flips < 256


def test_bits_matrix_matches_encoded_strings(small_dataset):
    mat = bits_matrix(small_dataset.records[:10])
    for row, record in zip(mat, small_dataset.records[:10]):
        assert "".join(str(int(b)) for b in row) == record.response.encoded


def test_uniqueness_identical_chips_is_zero():
    records = [_record("a", 0, 3, 17), _record("b", 0, 3, 17), _record("a", 1, 5, 200), _record("b", 1, 5, 200)]
    assert uniqueness(CrpDataset(records=records)) == 0.0


def test_uniqueness_complementary_codes_is_one_on_code_bits():
    records = [_record("a", 0, 1, 0b10101010), _record("b", 0, 1, 0b01010101)]
    ds = CrpDataset(records=records)
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
        records = [
            _record(cid, ch, region, code, bits)
            for cid in ("a", "b")
            for ch, (region, code, bits) in enumerate(chunk)
        ]
        assert uniqueness(CrpDataset(records=records)) == 0.0

    # distance to the complement is 1; the complement of a valid word is
    # itself valid exactly when an 8-bit region-2 word pairs with the
    # region-5 word holding its inverted code
    records = []
    for code in range(128):
        assert ResponseWord(2, code, 7).encoded == "".join(
            "10"[int(b)] for b in ResponseWord(5, 255 - code, 8).encoded
        )
        records.append(_record("a", code, 2, code, 7))
        records.append(_record("b", code, 5, 255 - code, 8))
    assert uniqueness(CrpDataset(records=records)) == 1.0


def test_uniqueness_requires_two_chips_and_overlap():
    with pytest.raises(ValueError):
        uniqueness(CrpDataset(records=[_record("a", 0, 3, 17)]))
    disjoint = [_record("a", 0, 3, 17), _record("b", 1, 3, 17)]
    with pytest.raises(ValueError):
        uniqueness(CrpDataset(records=disjoint))


def test_uniqueness_population_plausible(small_dataset):
    u = uniqueness(small_dataset, bit_positions=list(range(3, 11)))
    assert 0.4 < u < 0.6


def test_uniformity_hand_computed():
    # '00100010001' has 3 ones of 11; two such records average the same
    records = [_record("a", 0, 1, 0b00010001), _record("a", 1, 1, 0b00010001)]
    ds = CrpDataset(records=records)
    assert uniformity(ds, "a") == pytest.approx(3 / 11)
    with pytest.raises(ValueError):
        uniformity(ds, "missing")


def test_bit_aliasing_single_challenge_two_chips():
    records = [_record("a", 0, 1, 0b11110000), _record("b", 0, 1, 0b00001111)]
    alias = bit_aliasing(CrpDataset(records=records))
    assert alias.shape == (11,)
    # region bits identical across chips pin to 0 or 1, code bits split at 0.5
    assert alias.tolist() == [0.0, 0.0, 1.0] + [0.5] * 8


def test_bit_aliasing_identical_chips_saturates():
    records = [_record("a", 0, 2, 0b1010101, bits=7), _record("b", 0, 2, 0b1010101, bits=7)]
    alias = bit_aliasing(CrpDataset(records=records))
    assert set(alias.tolist()) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        bit_aliasing(CrpDataset(records=[_record("a", 0, 1, 1)]))


def test_reliability_at_reference_is_exactly_one():
    chip = synth_chip(VariationConfig(seed=50))
    ref = Conditions(temperature=25.0)
    assert reliability(chip, MODEL, SPEC, ADC, [ref], reference=ref) == 1.0


def test_reliability_degrades_with_stress():
    chip = synth_chip(VariationConfig(seed=50))
    mild = reliability(chip, MODEL, SPEC, ADC, [Conditions(temperature=30.0)])
    harsh = reliability(
        chip, MODEL, SPEC, ADC, [Conditions(temperature=60.0, noise_sigma=0.01, noise_seed=3)]
    )
    assert harsh < mild <= 1.0
    assert harsh > 0.5


def test_reliability_needs_conditions():
    chip = synth_chip(VariationConfig(seed=50))
    with pytest.raises(ValueError):
        reliability(chip, MODEL, SPEC, ADC, [])


def test_metrics_report_validation():
    MetricsReport(uniqueness=0.5, uniformity={"a": 0.5}, bit_aliasing=(0.5,) * 11)
    with pytest.raises(ValueError):
        MetricsReport(uniqueness=1.5, uniformity={}, bit_aliasing=None)
    with pytest.raises(ValueError):
        MetricsReport(uniqueness=None, uniformity={"a": -0.1}, bit_aliasing=None)


def test_csv_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_csv(small_dataset, path)
    loaded = load_csv(path)
    assert loaded.records == small_dataset.records


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
    assert load_csv(path).records == ds.records


def test_jsonl_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset, path)
    loaded = load_jsonl(path)
    assert loaded.records == small_dataset.records
    assert loaded.metadata == small_dataset.metadata


def test_generate_validates_inputs():
    chip = synth_chip(VariationConfig(seed=50))
    with pytest.raises(ValueError):
        generate([], MODEL, SPEC, ADC, [0], Conditions())
    with pytest.raises(ValueError):
        generate([chip], MODEL, SPEC, ADC, [], Conditions())
    with pytest.raises(ValueError):
        CrpRecord(
            chip_id="a",
            challenge=300,
            response=ResponseWord(region=1, code=0, bits=8),
            conditions=Conditions(),
        )

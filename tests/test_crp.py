import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf import crp
from cmapuf.adc import AdcConfig
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
from cmapuf.word import ResponseWord

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


def test_a_dataset_is_only_its_columns():
    # a field outside COLUMNS would be written by no saver and read by no loader
    assert [f.name for f in dataclasses.fields(CrpDataset)] == list(COLUMNS)
    assert list(inspect.signature(CrpDataset.take).parameters) == ["self", "rows"]


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
    assert_same_records(solo, ds.take([77]))


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
    for metric in (uniqueness, bit_aliasing, uniformity):
        with pytest.raises(ValueError, match=re.escape(repeat) + " of challenge 0$"):
            metric(merged)
    assert 0.0 < uniqueness(cold) < 1.0
    assert 0.0 < uniformity(cold)["chip000"] < 1.0
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
    assert uniqueness(ds, code_bits=True) == 1.0
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
    u = uniqueness(small_dataset, code_bits=True)
    assert 0.4 < u < 0.6


def test_uniformity_hand_computed():
    # '00100010001' has 3 ones of 11; two such records average the same.
    # '00100000000' has 1; chips come in first-appearance order
    ds = _dataset(("b", 0, 1, 0), ("a", 0, 1, 0b00010001), ("a", 1, 1, 0b00010001))
    assert list(uniformity(ds)) == ["b", "a"]
    assert uniformity(ds) == pytest.approx({"b": 1 / 11, "a": 3 / 11})


@st.composite
def datasets(draw, min_chips=1):
    """Small datasets of valid reads, chip ids a CSV must quote, seeds and temperatures at limits."""
    chip_ids = st.text(',"\n é中x', max_size=4)
    ids = draw(st.lists(chip_ids, min_size=min_chips, max_size=4, unique=True))
    reads = []
    for chip_id in ids:
        for word in draw(st.lists(st.integers(0, 255), min_size=1, max_size=5, unique=True)):
            bits = draw(st.integers(1, 8))
            reads.append((
                chip_id, word, draw(st.integers(1, 7)), draw(st.integers(0, (1 << bits) - 1)), bits,
                draw(st.sampled_from([-20.0, 100.0]) | st.floats(-20.0, 100.0)),
                draw(st.floats(0.0, 1.0)),
                draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)),
            ))
    # rows interleave chips, so a chip's rows are not one block
    reads = draw(st.permutations(reads))
    return CrpDataset(**dict(zip(COLUMNS, zip(*reads))))


@settings(max_examples=60, deadline=None)
@given(ds=datasets(min_chips=2))
def test_uniformity_is_each_chips_mean_bit(ds):
    got = uniformity(ds)
    assert list(got) == ds.chip_ids
    for chip_id in ds.chip_ids:
        assert got[chip_id] == float(bits_matrix(ds.take(ds.chip_id == chip_id)).mean())


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


def test_reliability_draws_one_noise_for_its_stress_reads(monkeypatch):
    draws = []
    record_noise = crp._record_noise

    def recorded(seeds, sigma):
        draws.append(record_noise(seeds, sigma))
        return draws[-1]

    monkeypatch.setattr(crp, "_record_noise", recorded)
    chips = [synth_chip(VariationConfig(seed=s)) for s in (50, 51)]

    def stress(sigma=0.004, seed=5):
        return [Conditions(temperature=t, noise_sigma=sigma, noise_seed=seed) for t in (0.0, 30.0, 60.0)]

    # a record's noise does not depend on temperature, so the three stress
    # reads at one noise seed draw the same noise; every value stays the
    # scalar route's
    for population, conds in [
        (chips, stress()),
        (chips, stress(seed=6)),
        (chips, stress(sigma=0.005)),
        (chips[:1], stress(sigma=0.005)),
        (chips[:1], stress(sigma=0.005)),
    ]:
        draws.clear()
        got = reliability(population, MODEL, SPEC, ADC, conds)
        assert len(draws) == 3
        assert all(np.array_equal(d, draws[0]) for d in draws)
        assert got == oracle.reliability(population, MODEL, SPEC, ADC, conds)


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
    # blank lines hold no record, a trailing one included
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:5], "", *lines[5:], ""]) + "\n")
    assert_same_records(load_csv(path), small_dataset)


def test_csv_reads_fields_by_header_name(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_csv(small_dataset.take(slice(0, 3)), path)
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    # columns in another order, each record with one field past the header
    order = list(reversed(range(len(header))))
    lines = [",".join(header[i] for i in order)]
    lines += [",".join([*(r[i] for i in order), "extra"]) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    assert_same_records(load_csv(path), small_dataset.take(slice(0, 3)))
    # a header without a field misses it in the first record, even one
    # with a field past the header
    lines = [",".join(name for name in header if name != "code"), *map(",".join, rows)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 1 has no 'code' field$"):
        load_csv(path)
    # a field that every record of a chunk stops before is missing from its first record
    lines = [",".join(header), *(",".join(r[: CSV_FIELDS.index("noise_sigma")]) for r in rows)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 1 has no 'noise_sigma' field$"):
        load_csv(path)


def test_csv_refuses_a_header_that_repeats_a_field(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_csv(small_dataset.take(slice(0, 3)), path)
    header, *rows = path.read_text().splitlines()
    # two columns past the header's fields that share a name are ignored
    path.write_text("\n".join([f"{header},note,note", *(f"{r},a,b" for r in rows)]) + "\n")
    assert_same_records(load_csv(path), small_dataset.take(slice(0, 3)))
    # a field named twice is refused before either column is read
    path.write_text("\n".join([f"{header},region", *(f"{r},9" for r in rows)]) + "\n")
    refusal = f"{path} has more than one 'region' column"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        load_csv(path)


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


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_loaders_round_trip_drawn_datasets(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("round-trip")
    save_csv(ds, path / "ds.csv")
    assert_same_records(load_csv(path / "ds.csv"), ds)
    save_jsonl(ds, path / "ds.jsonl")
    assert_same_records(load_jsonl(path / "ds.jsonl"), ds)


def test_save_jsonl_writes_the_oracles_bytes(tmp_path):
    # chip ids json must escape, and floats and seeds at the edges of their repr
    chip_ids = ['say "hi"', "back\\slash", "bell\x07", "é中", "chip000"]
    temperatures = [5e-324, -0.0, 0.1 + 0.2, 100.0, -20.0]
    sigmas = [1e16, 5e-324, 0.1 + 0.2, -0.0, 0.0]
    seeds = [2**64 - 1, 0, 1, 2**63, 12345678901234567890]
    ds = CrpDataset(
        chip_id=chip_ids, challenge=[0, 10, 171, 255, 7], region=[1, 2, 3, 4, 5],
        code=[0, 127, 1, 63, 255], bits=[8, 7, 2, 6, 8], temperature=temperatures,
        noise_sigma=sigmas, noise_seed=seeds,
    )
    for dataset in (ds, ds.take(slice(None))):
        save_jsonl(dataset, tmp_path / "got.jsonl")
        oracle.save_jsonl(dataset, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert_same_records(load_jsonl(tmp_path / "got.jsonl"), ds)


@settings(max_examples=40, deadline=None)
@given(ds=datasets())
def test_save_jsonl_writes_the_oracles_bytes_on_drawn_datasets(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("jsonl")
    save_jsonl(ds, path / "got.jsonl")
    oracle.save_jsonl(ds, path / "want.jsonl")
    assert (path / "got.jsonl").read_bytes() == (path / "want.jsonl").read_bytes()


def test_an_older_jsonl_files_meta_line_is_skipped(tmp_path, small_dataset):
    # files written before datasets lost their metadata lead with a one-key _meta line
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset, path)
    records = path.read_text()
    assert not records.startswith('{"_meta"')
    meta = {"n_challenges": 256, "n_chips": 3, "noise_seed": 0, "noise_sigma": 0.0,
            "temperature": 25.0}
    for value in (meta, 5, None, [1, 2], "x"):
        path.write_text(json.dumps({"_meta": value}) + "\n" + records)
        assert_same_records(load_jsonl(path), small_dataset)


def test_jsonl_meta_between_records_is_not_a_row(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset.take(slice(0, 3)), path)
    lines = path.read_text().splitlines()  # records 1..3
    lines.insert(1, json.dumps({"_meta": {"n_chips": 2}}))
    path.write_text("\n".join(lines) + "\n")
    assert_same_records(load_jsonl(path), small_dataset.take(slice(0, 3)))
    # the record after it is still row 2, the one after that row 3
    lines[2] = json.dumps({k: v for k, v in json.loads(lines[2]).items() if k != "code"})
    lines[3] = "{oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 3 is not a JSON object: '{oops'$"):
        load_jsonl(path)
    path.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(ValueError, match="^row 2 has no 'code' field$"):
        load_jsonl(path)


def test_a_jsonl_record_holding_a_meta_key_is_still_a_record(tmp_path, small_dataset):
    # only a line whose one key is _meta is skipped; a record's _meta is an extra key
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset, path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps(json.loads(lines[1]) | {"_meta": {"note": 1}})
    path.write_text("\n".join(lines) + "\n")
    assert_same_records(load_jsonl(path), small_dataset)
    lines[1] = json.dumps({"_meta": {"note": 1}, "note": 2})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 2 has no 'chip_id' field$"):
        load_jsonl(path)


def test_jsonl_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset, path)
    assert_same_records(load_jsonl(path), small_dataset)


LOADERS = {".csv": (save_csv, load_csv), ".jsonl": (save_jsonl, load_jsonl)}


def test_dataset_files_are_utf8_under_an_ascii_locale(tmp_path):
    # under LC_ALL=C without UTF-8 mode the locale's encoding is ASCII; a dataset file is
    # UTF-8 whatever the locale: one written here is read there and written back alike
    ds = _dataset(("chip\u00e9", 3, 1, 0), ("\u4e2d", 4, 2, 5))
    for suffix, (save, _) in LOADERS.items():
        save(ds, tmp_path / f"utf8{suffix}")
    code = (
        "import codecs, locale, sys; from pathlib import Path; from cmapuf import crp\n"
        "assert codecs.lookup(locale.getpreferredencoding(False)).name != 'utf-8'\n"
        "for suffix in ('.csv', '.jsonl'):\n"
        "    save, load = getattr(crp, 'save_' + suffix[1:]), getattr(crp, 'load_' + suffix[1:])\n"
        "    save(load(Path(sys.argv[1], 'utf8' + suffix)), Path(sys.argv[1], 'c' + suffix))\n"
    )
    src = str(Path(crp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    for suffix, (_, load) in LOADERS.items():
        written = (tmp_path / f"c{suffix}").read_bytes()
        assert written == (tmp_path / f"utf8{suffix}").read_bytes()
        assert_same_records(load(tmp_path / f"c{suffix}"), ds)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_loaders_skip_a_byte_order_mark_that_starts_the_file(tmp_path, small_dataset, suffix):
    # an editor's "UTF-8 with BOM" puts U+FEFF first: it read as part of the CSV header's first
    # name ("row 1 has no 'chip_id' field") and made the first JSONL line not a JSON object
    save, load = LOADERS[suffix]
    path = tmp_path / f"ds{suffix}"
    save(small_dataset, path)
    written = path.read_bytes()
    assert not written.startswith(b"\xef\xbb\xbf")  # the savers write none
    path.write_bytes(b"\xef\xbb\xbf" + written)
    assert_same_records(load(path), small_dataset)


def _edit_record(path, suffix, row, edit):
    """Rewrite record ``row`` (counted from 1) of a saved file with the fields in ``edit``."""
    lines = path.read_text().splitlines()
    if suffix == ".csv":  # record r is line r, after the header
        header = lines[0].split(",")
        fields = dict(zip(header, lines[row].split(","))) | edit
        lines[row] = ",".join(str(fields[name]) for name in header)
    else:
        lines[row - 1] = json.dumps(json.loads(lines[row - 1]) | edit)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("suffix", LOADERS)
def test_loaders_hand_the_column_rule_one_chunk_at_a_time(tmp_path, monkeypatch, small_dataset,
                                                          suffix):
    save, load = LOADERS[suffix]
    ds = small_dataset.take(slice(0, 2 * crp._CHUNK + 1))
    save(ds, tmp_path / f"ds{suffix}")
    sizes = []

    def column(name, values, *args):
        if isinstance(values, (list, tuple)):  # the raw fields, not the joined arrays
            sizes.append(len(values))
        return column_rule(name, values, *args)

    column_rule = crp._column
    monkeypatch.setattr(crp, "_column", column)
    assert_same_records(load(tmp_path / f"ds{suffix}"), ds)
    # every field, the encoded word included
    assert sizes == [crp._CHUNK] * (2 * len(CSV_FIELDS)) + [1] * len(CSV_FIELDS)


@pytest.mark.parametrize("suffix", LOADERS)
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_loaders_round_trip_across_a_chunk_edge(tmp_path, small_dataset, suffix, offset):
    save, load = LOADERS[suffix]
    ds = small_dataset.take(slice(0, crp._CHUNK + offset))
    save(ds, tmp_path / f"ds{suffix}")
    assert_same_records(load(tmp_path / f"ds{suffix}"), ds)


@pytest.mark.parametrize("suffix", LOADERS)
def test_a_fault_past_the_first_chunk_is_named_by_its_row(tmp_path, small_dataset, suffix):
    save, load = LOADERS[suffix]
    path = tmp_path / f"ds{suffix}"
    save(small_dataset.take(slice(0, 2 * crp._CHUNK + 1)), path)
    _edit_record(path, suffix, crp._CHUNK + 1, {"region": "x"})
    with pytest.raises(ValueError, match=f"^row {crp._CHUNK + 1} has a bad 'region' field: 'x'$"):
        load(path)
    # faults are found chunk by chunk, each chunk field by field: a fault in the first
    # chunk's last field is named before one in the next chunk's first field
    _edit_record(path, suffix, crp._CHUNK, {"noise_seed": "" if suffix == ".csv" else "7"})
    with pytest.raises(ValueError, match=f"^row {crp._CHUNK} has a bad 'noise_seed' field: "):
        load(path)


@pytest.mark.parametrize("suffix", LOADERS)
def test_a_missing_encoded_field_is_named_in_field_order(tmp_path, small_dataset, suffix):
    # a record without its encoded word is named where the field falls in the CSV's order:
    # before the chunk's temperatures are judged, not at the word check after the last chunk
    save, load = LOADERS[suffix]
    path = tmp_path / f"ds{suffix}"
    save(small_dataset.take(slice(0, 4)), path)
    _edit_record(path, suffix, 2, {"temperature": "x"})
    lines = path.read_text().splitlines()
    if suffix == ".csv":  # record 3 stops after its bits
        lines[3] = ",".join(lines[3].split(",")[: CSV_FIELDS.index("encoded")])
    else:
        lines[2] = json.dumps({k: v for k, v in json.loads(lines[2]).items() if k != "encoded"})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 3 has no 'encoded' field$"):
        load(path)


@pytest.mark.parametrize("row", [crp._CHUNK - 1, crp._CHUNK, crp._CHUNK + 1])
def test_a_jsonl_meta_line_at_a_chunk_edge_is_skipped(tmp_path, small_dataset, row):
    # the _meta line becomes line ``row + 1``: the last line of the first chunk, the first
    # line of the second, or the one after
    path = tmp_path / "ds.jsonl"
    ds = small_dataset.take(slice(0, 2 * crp._CHUNK))
    save_jsonl(ds, path)
    lines = path.read_text().splitlines()
    lines.insert(row, json.dumps({"_meta": {"n_chips": 3}}))
    path.write_text("\n".join(lines) + "\n")
    assert_same_records(load_jsonl(path), ds)
    # the record after it keeps its number
    lines[row + 1] = "{oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^row {row + 1} is not a JSON object: '{{oops'$"):
        load_jsonl(path)


def _loaded_or_refused(path):
    """``load_jsonl(path)``'s columns, or the message of the ``ValueError`` it raises."""
    try:
        ds = load_jsonl(path)
    except ValueError as exc:
        return str(exc)
    return {name: getattr(ds, name) for name in COLUMNS}


_META = json.dumps({"_meta": {"n_chips": 3}})
# what each shape makes of a record line, given without its newline
LINE_SHAPES = {
    "unchanged": lambda line: line,
    "leading space": lambda line: " " + line,
    "leading tab": lambda line: "\t" + line,
    "trailing space": lambda line: line + " ",
    "trailing tab": lambda line: line + "\t",
    "trailing junk": lambda line: line + "x",
    "blank": lambda line: "",
    "spaces only": lambda line: " \t ",
    "two objects": lambda line: line + line,
    "two objects spaced": lambda line: line + " " + line,
    "nested extra key": lambda line: json.dumps(
        json.loads(line) | {"extra": {"a": [1, {"b": None}], "c": "}"}}
    ),
    "null field": lambda line: json.dumps(json.loads(line) | {"code": None}),
    "missing field": lambda line: json.dumps(
        {k: v for k, v in json.loads(line).items() if k != "code"}
    ),
    "spaced meta line": lambda line: f" {_META}\t\n{line}",
    # a chunk's worth of _meta lines in front of the record
    "meta lines": lambda line: "\n".join([_META] * crp._CHUNK + [line]),
}


@pytest.mark.parametrize("last_newline", [True, False])
@pytest.mark.parametrize("row", [1, crp._CHUNK - 1, crp._CHUNK, crp._CHUNK + 1, 2 * crp._CHUNK + 1])
@pytest.mark.parametrize("shape", LINE_SHAPES)
def test_load_jsonl_reads_each_line_as_json_loads_does(tmp_path, monkeypatch, small_dataset,
                                                        shape, row, last_newline):
    # the reference reads line by line, each line through json.loads; the loader must give
    # the same columns or the same first error, record ``row`` reshaped at or near a chunk edge
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset.take(slice(0, 2 * crp._CHUNK + 1)), path)
    lines = path.read_text().splitlines()
    lines[row - 1] = LINE_SHAPES[shape](lines[row - 1])
    path.write_text("\n".join(lines) + ("\n" if last_newline else ""))
    got = _loaded_or_refused(path)
    monkeypatch.setattr(crp, "_jsonl_fields", lambda lines: None)
    want = _loaded_or_refused(path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for name, dtype in COLUMNS.items():
            assert got[name].dtype.type is dtype and np.array_equal(got[name], want[name]), name


def _never_called(*args):
    raise AssertionError("called")


def test_a_clean_jsonl_file_is_read_without_the_line_by_line_route(tmp_path, monkeypatch,
                                                                  small_dataset):
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset, path)
    text = path.read_text()
    monkeypatch.setattr(crp, "_Record", _never_called)  # the line-by-line route's hook
    for body in (text, text[:-1]):  # the last line with and without its newline
        path.write_text(body)
        assert_same_records(load_jsonl(path), small_dataset)


def test_generate_validates_inputs():
    chip = synth_chip(VariationConfig(seed=50))
    with pytest.raises(ValueError):
        generate([], MODEL, SPEC, ADC, [0], Conditions())
    for empty in ([], np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="^need at least one challenge$"):
            generate([chip], MODEL, SPEC, ADC, empty, Conditions())
    # an array of several words is read like the list of them, not tested for truth
    words = generate([chip], MODEL, SPEC, ADC, np.arange(4), Conditions())
    listed = generate([chip], MODEL, SPEC, ADC, [0, 1, 2, 3], Conditions())
    for name in COLUMNS:
        assert np.array_equal(getattr(words, name), getattr(listed, name))
    with pytest.raises(ValueError, match=re.escape("challenge must be in [0, 255], got 300")):
        _dataset(("a", 300, 1, 0))
    # a word of a non-integer dtype is refused, not truncated: [1.5, 2.9] once read 1 and 2
    for words in ([2.7], [True], np.array([1.5]), [1.5, 2.9]):
        cond = Conditions(noise_sigma=0.01, noise_seed=3)
        with pytest.raises(ValueError, match="^challenge must be an integer, got dtype "):
            generate([chip], MODEL, SPEC, ADC, words, cond)
        with pytest.raises(ValueError, match="^challenge must be an integer, got dtype "):
            record_seed(3, chip.chip_id, words[0])


def _reads(n=1, **columns):
    """n valid reads of chip 'a' at challenge 1, with ``columns`` in place of theirs."""
    read = dict(chip_id="a", challenge=1, region=2, code=3, bits=8, temperature=25.0,
                noise_sigma=0.0, noise_seed=5)
    return CrpDataset(**{name: [value] * n for name, value in read.items()} | columns)


@pytest.mark.parametrize(
    "name, values",
    [
        ("challenge", [True]),
        ("region", [2.9]),
        ("code", np.array([3.5])),
        ("bits", ["8"]),
        ("noise_seed", [5.5]),
        ("noise_sigma", [False]),
        ("temperature", ["25"]),
        ("chip_id", [7]),
        ("chip_id", np.array([7])),
        ("region", np.array([True])),
    ],
)
def test_a_built_dataset_refuses_a_value_of_the_wrong_kind(name, values):
    # rather than converting it: each of these once read as 1, 2, 3, 8, 5, 0.0, 25.0 or '7'
    bad = np.asarray(values).tolist()[0]
    message = f"row 1 has a bad {name!r} field: {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _reads(**{name: values})


def test_a_built_dataset_names_the_first_bad_row():
    with pytest.raises(ValueError, match=re.escape("row 2 has a bad 'region' field: 2.5") + "$"):
        _reads(3, region=[2, 2.5, 3.5])
    # a value of the right kind that the dtype cannot hold is named as well
    with pytest.raises(ValueError, match=re.escape(f"row 1 has a bad 'region' field: {2**70}")):
        _reads(region=[2**70])
    # an integer temperature is a number, read as a float
    assert _reads(temperature=[25]).temperature.tolist() == [25.0]


@pytest.mark.parametrize("name", ["challenge", "code"])
@pytest.mark.parametrize("big", [2**63, 2**64 - 255])
def test_an_unsigned_array_past_int64_is_named_not_wrapped(name, big):
    # the int64 cast would wrap it to a negative value the caller never gave
    values = np.array([1, big], dtype=np.uint64)
    with pytest.raises(ValueError, match=re.escape(f"row 2 has a bad {name!r} field: {big}") + "$"):
        _reads(2, **{name: values})


@pytest.mark.parametrize("seeds", [[-1], [2**64], np.array([-1]), [np.int64(-1)], [2**63, -1]])
def test_a_built_dataset_refuses_a_seed_outside_64_bits(seeds):
    row, bad = next((i, s) for i, s in enumerate(np.asarray(seeds, dtype=object).tolist(), 1)
                    if not 0 <= s < 2**64)
    message = f"row {row} has a bad 'noise_seed' field: {bad}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _reads(len(seeds), noise_seed=seeds)


# Per column: values ``_reads`` takes in any row, and values a column refuses on its own,
# a missing one, one of the wrong kind or an integer its dtype cannot hold.
_TEMPERATURES = st.floats(-20.0, 100.0) | st.integers(-20, 100)
_VALID = dict(chip_id=st.text(max_size=3), challenge=st.integers(0, 255),
              region=st.integers(1, 7), code=st.integers(0, 255), bits=st.integers(2, 8),
              temperature=_TEMPERATURES, noise_sigma=st.floats(0.0, 1.0),
              noise_seed=st.integers(0, 2**64 - 1))
_NOT_A_FLOAT = st.integers(2**1024, 2**1030) | st.text()
_NOT_A_WORD = dict(chip_id=st.integers() | st.floats(), temperature=_NOT_A_FLOAT,
                   noise_sigma=_NOT_A_FLOAT,
                   noise_seed=st.integers(2**64, 2**70) | st.integers(-(2**70), -1) | st.floats())
_NOT_AN_INT64 = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63) - 1) | st.floats()
_REFUSED = {name: st.none() | st.booleans() | _NOT_A_WORD.get(name, _NOT_AN_INT64 | st.text())
            for name in COLUMNS}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(COLUMNS)))
def test_a_built_dataset_names_the_first_row_refused_on_its_own(data, name):
    bad = data.draw(st.lists(st.booleans(), min_size=1, max_size=6), label="refused")
    values = [data.draw(_REFUSED[name] if b else _VALID[name]) for b in bad]
    if not any(bad):
        assert getattr(_reads(len(values), **{name: values}), name).tolist() == values
        return
    row = bad.index(True)
    value = values[row]
    fault = f"no {name!r} field" if value is None else f"a bad {name!r} field: {value!r}"
    with pytest.raises(ValueError, match=re.escape(f"row {row + 1} has {fault}") + "$"):
        _reads(len(values), **{name: values})


@pytest.mark.parametrize("suffix", LOADERS)
def test_a_loaders_first_bad_row_is_named_whatever_its_fault(tmp_path, small_dataset, suffix):
    # row 1's region is bad and row 2 has none: the earlier row is named
    save, load = LOADERS[suffix]
    path = tmp_path / f"ds{suffix}"
    save(small_dataset.take(slice(0, 3)), path)
    _edit_record(path, suffix, 1, {"region": "x"})
    lines = path.read_text().splitlines()
    if suffix == ".csv":  # record 2 stops after its challenge
        lines[2] = ",".join(lines[2].split(",")[: CSV_FIELDS.index("region")])
    else:
        lines[1] = json.dumps({k: v for k, v in json.loads(lines[1]).items() if k != "region"})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 1 has a bad 'region' field: 'x'$"):
        load(path)


def test_a_csv_challenge_past_64_bits_is_named_as_the_file_holds_it(tmp_path, small_dataset):
    # the hex parses, to an integer no int64 holds; the row is named with its text, which the
    # hex parser would refuse if it were handed the parsed integer instead
    path = tmp_path / "ds.csv"
    save_csv(small_dataset.take(slice(0, 4)), path)
    _edit_record(path, ".csv", 3, {"challenge": "f" * 21})
    with pytest.raises(ValueError, match=f"^row 3 has a bad 'challenge' field: '{'f' * 21}'$"):
        load_csv(path)


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
        ({"noise_seed": -1}, "row 3 has a bad 'noise_seed' field: -1"),
        ({"noise_seed": 2**64}, f"row 3 has a bad 'noise_seed' field: {2**64}"),
        # the last row reads region 5, code 255
        ({"encoded": "11111111111"},
         "row 3 has encoded '11111111111', but its region and code are '10111111111'"),
        # not an 11-bit word at all
        ({"encoded": "1011"}, "row 3 has a bad 'encoded' field: '1011'"),
        ({"encoded": "1x111111111"}, "row 3 has a bad 'encoded' field: '1x111111111'"),
    ],
)
def test_loaders_refuse_bad_rows(tmp_path, suffix, edit, message):
    chip = synth_chip(VariationConfig(seed=50))
    ds = generate([chip], MODEL, SPEC, ADC, [0, 1, 2], Conditions())
    path = tmp_path / f"ds{suffix}"
    save, load = LOADERS[suffix]
    save(ds, path)
    load(path)  # the file as written loads
    _edit_record(path, suffix, 3, edit)
    if suffix == ".csv" and "noise_seed" in edit:  # a CSV field is named as its text
        message = message.replace(f": {edit['noise_seed']}", f": '{edit['noise_seed']}'")
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        load(path)


@pytest.mark.parametrize("value", [5, 1471, 5.0, True, ["10111111111"], {"a": 1}])
def test_load_jsonl_refuses_an_encoded_word_that_is_not_a_string(tmp_path, value):
    # 1471 is the index of '10111111111', the word's string
    ds = generate([synth_chip(VariationConfig(seed=50))], MODEL, SPEC, ADC, [0, 1, 2], Conditions())
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    _edit_record(path, ".jsonl", 3, {"encoded": value})
    with pytest.raises(ValueError, match=re.escape(f"row 3 has a bad 'encoded' field: {value!r}")):
        load_jsonl(path)


@pytest.mark.parametrize("suffix", LOADERS)
def test_a_malformed_encoded_field_is_named_at_its_chunk(tmp_path, small_dataset, suffix):
    # in (chunk, field, row) order: before a later chunk's bad region and before its own
    # chunk's bad temperature in an earlier row, not after the record rules of the whole file
    save, load = LOADERS[suffix]
    path = tmp_path / f"ds{suffix}"
    save(small_dataset.take(slice(0, 2 * crp._CHUNK)), path)
    _edit_record(path, suffix, 1, {"temperature": "x"})
    _edit_record(path, suffix, 2, {"encoded": "1011"})
    _edit_record(path, suffix, crp._CHUNK + 1, {"region": 9})
    with pytest.raises(ValueError, match="^row 2 has a bad 'encoded' field: '1011'$"):
        load(path)


@pytest.mark.parametrize("row", [1, 2, crp._CHUNK, crp._CHUNK + 1])
@pytest.mark.parametrize("spaced", [False, True])
def test_load_jsonl_refuses_a_repeated_key(tmp_path, small_dataset, row, spaced):
    # json.loads keeps a repeated key's last value: record ``row`` would load as challenge 7;
    # the record is refused whether its chunk is read in one scan or line by line
    path = tmp_path / "ds.jsonl"
    save_jsonl(small_dataset.take(slice(0, 2 * crp._CHUNK)), path)
    lines = path.read_text().splitlines()
    lines[row - 1] = (" " if spaced else "") + lines[row - 1][:-1] + ', "challenge": "07"}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^row {row} repeats the 'challenge' key$"):
        load_jsonl(path)
    # the key named first is the first one seen a second time
    lines[row - 1] = '{"region": 1, "code": 2, "code": 3, "region": 4}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^row {row} repeats the 'code' key$"):
        load_jsonl(path)


def test_load_jsonl_reads_colons_that_repeat_no_key(tmp_path, small_dataset):
    # a colon inside a string or a nested object makes a line's colons outnumber its keys;
    # such a record repeats no key of its own and loads, a repeat inside an extra key included
    ds = small_dataset.take(slice(0, 3))
    ds = CrpDataset(**{name: getattr(ds, name) for name in COLUMNS} | {"chip_id": ["a:b"] * 3})
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    assert_same_records(load_jsonl(path), ds)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-1] + ', "extra": {"x": 1, "x": 2}}'
    path.write_text("\n".join(lines) + "\n")
    assert_same_records(load_jsonl(path), ds)


def test_loaders_hold_little_more_than_their_columns(tmp_path):
    # a 100-chip x 256-challenge noisy file: no record's raw fields outlive their chunk, the
    # encoded words included, so the traced peak stays under twice the loaded columns' bytes
    chips = synth_population(VariationConfig(seed=7), 100)
    cond = Conditions(temperature=60.0, noise_sigma=0.002, noise_seed=7)
    ds = generate(chips, MODEL, SPEC, ADC, list(range(256)), cond)
    for suffix, (save, load) in LOADERS.items():
        save(ds, tmp_path / f"ds{suffix}")
        tracemalloc.start()
        try:
            loaded = load(tmp_path / f"ds{suffix}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_records(loaded, ds)
        columns = sum(getattr(loaded, name).nbytes for name in COLUMNS)
        assert peak < 2 * columns, (suffix, peak / columns)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_loaders_refuse_a_file_without_records(tmp_path, suffix):
    path = tmp_path / f"ds{suffix}"
    for text in ("", ",".join(CSV_FIELDS) if suffix == ".csv" else '{"_meta": {"n_chips": 1}}'):
        path.write_text(text)
        load = load_csv if suffix == ".csv" else load_jsonl
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no records$"):
            load(path)


def test_uniqueness_of_400_chips_peaks_under_64_mb():
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

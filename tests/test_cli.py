import argparse
import contextlib
import csv
import io
import json
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapuf import analog, codec, crp
from cmapuf.adc import COMPARISON_ROWS, AdcConfig, energy_per_cycle
from cmapuf.analog import (
    Conditions,
    MIRRORS,
    MirrorConfig,
    SWITCHING,
    TransferModel,
    default_model,
    transfer_curve,
)
from cmapuf.attack import EsHyper, LrHyper, attack_report, clone_bits, es_fit, split
from cmapuf.cellarray import evaluate_array
from cmapuf.cli import SAMPLES_CHUNK, build_parser, main
from cmapuf.crp import generate, load_csv, reliability, save_csv
from cmapuf.quantizer import EmpiricalDistribution, QuantizerSpec, default_regions, lloyd_max
from cmapuf.variation import (
    ChipInstance,
    ProcessCorner,
    VariationConfig,
    synth_chip,
    synth_population,
)


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def record_line(suffix, r):
    """The index among a dataset file's lines of record ``r`` (from 1): a CSV leads with its
    header, a JSONL file with record 1."""
    return r if suffix == ".csv" else r - 1


@pytest.fixture
def made_volts(monkeypatch):
    """Every voltage array ``analog.transfer_array`` returns while the test runs."""
    made, transfer = [], analog.transfer_array

    def kept_transfer(*args):
        made.append(transfer(*args))
        return made[-1]

    monkeypatch.setattr(analog, "transfer_array", kept_transfer)
    return made


def test_synth_writes_chips_and_manifest(tmp_path):
    out = tmp_path / "chips"
    assert run("synth", "--chips", 3, "--seed", 5, "--corner", "SF", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["parameters"]["variation"]["corner"] == "SF"
    files = sorted(p.name for p in out.glob("chip*.json"))
    assert files == ["chip000.json", "chip001.json", "chip002.json"]
    chip = codec.read_json(out / "chip001.json", ChipInstance)
    assert chip.config.seed == 6  # base seed 5 + index 1
    assert chip.config.corner.value == "SF"


def test_mc_histogram_counts_and_rails(tmp_path):
    out = tmp_path / "hist.csv"
    raw = tmp_path / "samples.txt"
    assert run("mc", "--samples", 5000, "--bins", 20, "--seed", 2, "--out", out, "--samples-out", raw) == 0
    rows = read_rows(out)
    assert len(rows) == 20
    total = sum(int(r["count"]) for r in rows)
    assert total == 5000
    # rail-heavy: first and last bins dominate the middle ones
    assert int(rows[0]["count"]) > int(rows[10]["count"])
    assert int(rows[-1]["count"]) > int(rows[10]["count"])
    samples = [float(line) for line in raw.read_text().splitlines()]
    assert len(samples) == 5000
    assert all(0.0 <= s <= 1.8 for s in samples)


def test_mc_bin_edge_cases(tmp_path, capsys):
    assert run("mc", "--samples", 100, "--bins", 1, "--out", tmp_path / "h.csv") == 1
    assert "bins" in capsys.readouterr().err
    out = tmp_path / "h2.csv"
    assert run("mc", "--samples", 1000, "--bins", 2, "--seed", 0, "--out", out) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert set(rows[0]) == {"bin_center", "count"}
    assert float(rows[0]["bin_center"]) == pytest.approx(0.45)
    assert float(rows[1]["bin_center"]) == pytest.approx(1.35)


def test_fit_quantizer_from_samples_file(tmp_path):
    raw = tmp_path / "samples.txt"
    run("mc", "--samples", 20000, "--seed", 2, "--out", tmp_path / "h.csv", "--samples-out", raw)
    spec_path = tmp_path / "spec.json"
    assert run("fit-quantizer", "--samples", raw, "--k", 5, "--out", spec_path) == 0
    spec = codec.read_json(spec_path, QuantizerSpec)
    assert spec.k == 5
    assert spec.bits_per_region == (8, 7, 6, 7, 8)
    manifest = json.loads((tmp_path / "spec.json.manifest.json").read_text())
    assert manifest["parameters"]["n_samples"] == 20000


def test_fit_quantizer_uniform_splits_at_midpoint(tmp_path):
    raw = tmp_path / "uniform.txt"
    raw.write_text("\n".join(str(i * 1.8 / 2000) for i in range(2001)) + "\n")
    spec_path = tmp_path / "k2.json"
    assert run("fit-quantizer", "--samples", raw, "--k", 2, "--out", spec_path) == 0
    spec = codec.read_json(spec_path, QuantizerSpec)
    assert spec.k == 2
    assert spec.bits_per_region == (8, 8)
    assert abs(spec.boundaries[1] - 0.9) < 1e-3


def test_fit_quantizer_bits_mismatch_errors(tmp_path, capsys):
    raw = tmp_path / "s.txt"
    raw.write_text("0.1\n0.9\n1.7\n")
    out = tmp_path / "x.json"
    # an empty list is a bad one, not the default table
    for bits, message in (
        ("8,8,8", "bits_per_region must have 2 entries, got 3"),
        ("", "--bits needs comma-separated integers, got ''"),
        ("8,x", "--bits needs comma-separated integers, got '8,x'"),
    ):
        assert run("fit-quantizer", "--samples", raw, "--k", 2, "--bits", bits, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_quantizer_wider_than_the_word_is_refused(tmp_path, capsys):
    raw = tmp_path / "s.txt"
    raw.write_text("\n".join(str(i * 1.8 / 200) for i in range(201)) + "\n")
    wide = "bits_per_region must be in [1, 8], got 9"
    for option, message in (
        (["--k", 8], "k must be in [1, 7], got 8"),
        (["--k", 2, "--bits", "9,9"], wide),
    ):
        out = tmp_path / "q.json"
        assert run("fit-quantizer", "--samples", raw, *option, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"boundaries": [0.0, 0.9, 1.8], "bits_per_region": [8, 9],
                                "centroids": [0.45, 1.35]}))
    ds = tmp_path / "ds.csv"
    assert run("crps", "--quantizer", spec, "--out", ds) == 1
    assert capsys.readouterr().err == f"error: {spec}: {wide}\n"
    assert not ds.exists()


def test_crps_csv_and_jsonl(tmp_path):
    csv_path = tmp_path / "ds.csv"
    assert run("crps", "--chips", 2, "--seed", 3, "--out", csv_path) == 0
    ds = load_csv(csv_path)
    assert len(ds) == 512
    assert ds.chip_ids == ["chip000", "chip001"]
    manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
    assert manifest["parameters"]["quantizer"]["bits_per_region"] == [8, 7, 6, 7, 8]
    # every read option, each away from its default, reaches its field
    jsonl_path = tmp_path / "ds.jsonl"
    read = ("--seed", 3, "--sigma-vth", 0.02, "--corner", "sf", "--mirror", "reduced",
            "--gain", 150.0, "--switching", "naive", "--temp-coeff", 2e-4, "--temp", 60.0,
            "--noise-sigma", 0.001, "--noise-seed", 5, "--clock", 1e9, "--power", 1e-4)
    assert run("crps", "--chips", 1, "--challenges", 16, *read, "--out", jsonl_path) == 0
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == 16  # one line per record
    manifest = json.loads((tmp_path / "ds.jsonl.manifest.json").read_text())["parameters"]
    assert {key: manifest[key] for key in ("variation", "model", "conditions", "adc")} == {
        "variation": codec.to_json(VariationConfig(0.02, ProcessCorner.SF, seed=3)),
        "model": codec.to_json(TransferModel(
            replace(MIRRORS["reduced"], gain=150.0), SWITCHING["naive"], temp_coeff=2e-4
        )),
        "conditions": codec.to_json(Conditions(60.0, 0.001, 5)),
        "adc": codec.to_json(AdcConfig(clock_freq=1e9, power=1e-4)),
    }


# The records each command fills from its options, and each command's own options.
RECORDS = {
    "synth": (VariationConfig,),
    "mc": (VariationConfig, TransferModel, MirrorConfig, Conditions),
    "fit-quantizer": (),
    "crps": (VariationConfig, TransferModel, MirrorConfig, Conditions, AdcConfig),
    "metrics": (),
    "attack": (LrHyper, EsHyper),
    "energy": (AdcConfig,),
    "curve": (TransferModel, MirrorConfig),
}
OWN_OPTIONS = {
    "synth": {"chips", "out"},
    "mc": {"samples", "bins", "out", "samples_out"},
    "fit-quantizer": {"samples", "k", "bits", "tol", "max_iter", "out"},
    "crps": {"quantizer", "chips", "challenges", "out"},
    "metrics": {"infile", "temps", "seed", "out"},
    "attack": {"infile", "chip_id", "model", "train_frac", "seed", "out"},
    "energy": {"out"},
    "curve": {"range", "points", "out"},
}


def silent_options(parser: argparse.ArgumentParser) -> list[str]:
    """``command --flag`` for each option whose dest is neither a field of a record its
    command fills nor one of the command's own options, so that no record would take its
    value, and for each record-filling option with a default, which would stand in for the
    record's own."""
    found = []
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in commands.choices.items():
        names = {f.name for record in RECORDS[command] for f in fields(record)}
        for action in p._actions:
            if isinstance(action, argparse._HelpAction) or action.dest in OWN_OPTIONS[command]:
                continue
            if action.dest not in names or action.default is not argparse.SUPPRESS:
                found.append(f"{command} {action.option_strings[0]}")
    return found


def test_every_option_fills_a_field_or_is_its_commands_own():
    assert silent_options(build_parser()) == []


def test_the_option_scan_names_a_misspelt_field_and_a_restated_default():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("crps", argument_default=argparse.SUPPRESS)
    p.add_argument("--temp", dest="temprature", type=float)
    p.add_argument("--noise-sigma", type=float, default=Conditions.noise_sigma)
    p.add_argument("--power", type=float)
    p.add_argument("--out", required=True)
    assert silent_options(parser) == ["crps --temp", "crps --noise-sigma"]


def test_crps_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["crps", "--chips", 2, "--seed", 9, "--noise-sigma", 0.003, "--out"]
    assert run(*args, a) == 0
    assert run(*args, b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == (
        tmp_path / "b.csv.manifest.json"
    ).read_bytes()


def test_main_calls_in_one_process_share_no_options(tmp_path):
    # the parser is built once per process; a run's options must not leak into the next
    assert build_parser() is build_parser()
    noisy, default = tmp_path / "noisy.csv", tmp_path / "default.csv"
    assert run("crps", "--noise-sigma", 0.002, "--noise-seed", 7, "--temp", 60,
               "--out", noisy) == 0
    assert run("crps", "--out", default) == 0
    manifest = json.loads((tmp_path / "default.csv.manifest.json").read_text())
    assert manifest["parameters"]["conditions"] == codec.to_json(Conditions())
    assert load_csv(default).noise_sigma.tolist() == [0.0] * 256


def test_metrics_report(tmp_path):
    ds = tmp_path / "ds.csv"
    run("crps", "--chips", 3, "--seed", 1, "--out", ds)
    report_path = tmp_path / "report.json"
    assert run("metrics", "--in", ds, "--temps", "0,60", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {
        "uniqueness",
        "uniqueness_code_bits",
        "uniformity",
        "bit_aliasing",
        "reliability",
    }
    assert 0.3 < report["uniqueness"] < 0.6
    assert len(report["bit_aliasing"]) == 11
    assert set(report["reliability"]) == {"chip000", "chip001", "chip002"}
    for value in report["reliability"].values():
        assert 0.8 < value <= 1.0


def test_metrics_identical_chips_zero_uniqueness(tmp_path):
    twins = [synth_chip(VariationConfig(seed=5), chip_id=f"twin{i}") for i in range(2)]
    ds = generate(
        twins, default_model(), default_regions(), AdcConfig(), list(range(32)), Conditions()
    )
    path = tmp_path / "twins.csv"
    save_csv(ds, path)
    report_path = tmp_path / "report.json"
    assert run("metrics", "--in", path, "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["uniqueness"] == 0.0


def test_metrics_single_chip_still_reports_uniformity(tmp_path):
    ds = tmp_path / "one.csv"
    run("crps", "--chips", 1, "--seed", 1, "--out", ds)
    report_path = tmp_path / "report.json"
    assert run("metrics", "--in", ds, "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["uniqueness"] is None
    assert report["uniqueness_code_bits"] is None
    assert report["bit_aliasing"] is None
    assert set(report["uniformity"]) == {"chip000"}


def test_metrics_builds_one_dataset(tmp_path, monkeypatch):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--chips", 5, "--challenges", 16, "--out", ds) == 0
    built = []
    check = crp.CrpDataset.__post_init__

    def counted(dataset):
        built.append(dataset)
        check(dataset)

    monkeypatch.setattr(crp.CrpDataset, "__post_init__", counted)
    assert run("metrics", "--in", ds, "--out", tmp_path / "m.json") == 0
    assert len(built) == 1


@pytest.mark.parametrize("temps", ["", "0,,30", "0,", "hot"])
def test_metrics_refuses_a_bad_temperature_list(tmp_path, capsys, temps):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--chips", 2, "--challenges", 8, "--out", ds) == 0
    out = tmp_path / "m.json"
    assert run("metrics", "--in", ds, "--temps", temps, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --temps needs comma-separated degC, got {temps!r}\n"
    assert not out.exists()


def test_metrics_reliability_requires_manifest(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    run("crps", "--chips", 1, "--seed", 1, "--out", ds)
    (tmp_path / "ds.csv.manifest.json").unlink()
    assert run("metrics", "--in", ds, "--temps", "0,60", "--out", tmp_path / "r.json") == 1
    assert "manifest" in capsys.readouterr().err


def test_metrics_reliability_equals_per_chip_reads(tmp_path):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--chips", 3, "--seed", 7, "--noise-sigma", 0.002, "--out", ds) == 0
    conds = [Conditions(temperature=t, noise_sigma=0.002, noise_seed=2) for t in (0.0, 60.0)]
    model, spec, adc_config = default_model(), default_regions(), AdcConfig()
    expected = {
        chip.chip_id: reliability([chip], model, spec, adc_config, conds)[0]
        for chip in synth_population(VariationConfig(seed=7), 3)
    }

    def metrics_reliability(lines):
        ds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        assert run("metrics", "--in", ds, "--temps", "0,60", "--seed", 2, "--out", out) == 0
        return json.loads(out.read_text())["reliability"]

    header, *rows = ds.read_text().splitlines()
    assert metrics_reliability([header, *rows]) == expected
    # only the manifest chips the dataset holds are re-read
    chip001 = [row for row in rows if row.startswith("chip001,")]
    assert metrics_reliability([header, *chip001]) == {"chip001": expected["chip001"]}
    assert metrics_reliability([header, *(r.replace("chip", "other") for r in rows)]) == {}


@pytest.mark.parametrize("command", ["metrics", "attack"])
def test_a_malformed_record_is_reported(tmp_path, capsys, command):
    def broken(name, edit):
        path = tmp_path / name
        assert run("crps", "--chips", 1, "--challenges", 4, "--out", path) == 0
        lines = path.read_text().splitlines()
        line = record_line(path.suffix, 2)
        lines[line] = edit(lines[line])
        path.write_text("\n".join(lines) + "\n")
        return path

    def drop_code(line):
        return json.dumps({k: v for k, v in json.loads(line).items() if k != "code"})

    cases = [
        # record 2 stops after its code field
        (broken("short.csv", lambda line: ",".join(line.split(",")[:4])),
         "row 2 has no 'bits' field"),
        (broken("keyless.jsonl", drop_code), "row 2 has no 'code' field"),
        (broken("array.jsonl", lambda line: "[1, 2]"), "row 2 is not a JSON object: '[1, 2]'"),
        (broken("oops.jsonl", lambda line: "{oops"), "row 2 is not a JSON object: '{oops'"),
        (broken("blank.jsonl", lambda line: ""), "row 2 is not a JSON object: ''"),
        (broken("trailing.jsonl", lambda line: '{"a": 1} x'),
         """row 2 is not a JSON object: '{"a": 1} x'"""),
        (broken("two.jsonl", lambda line: '{"a": 1} {"b": 2}'),
         """row 2 is not a JSON object: '{"a": 1} {"b": 2}'"""),
        # a record split over two lines, its first half row 2
        (broken("split.jsonl", lambda line: line.replace(", ", ",\n", 1)),
         """row 2 is not a JSON object: '{"bits": 8,'"""),
        (broken("bom.jsonl", lambda line: '\ufeff{"a": 1}'),
         """row 2 is not a JSON object: '\\ufeff{"a": 1}'"""),
        (broken("listed.jsonl", lambda line: json.dumps(json.loads(line) | {"code": [1]})),
         "row 2 has a bad 'code' field: [1]"),
        # a null field is a missing one, not the chip 'None'
        (broken("null.jsonl", lambda line: json.dumps(json.loads(line) | {"chip_id": None})),
         "row 2 has no 'chip_id' field"),
    ]
    for path, message in cases:
        assert run(command, "--in", path, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "suffix, field, token",
    [
        # a number an integer column would once have truncated or re-rounded
        (".jsonl", "region", "{v}.9"),
        (".jsonl", "bits", "{v}.5"),
        (".jsonl", "noise_seed", "{v:.17g}"),
        (".jsonl", "region", "true"),
        # ... or died on with an unnamed error or an OverflowError traceback
        (".jsonl", "region", "NaN"),
        (".jsonl", "region", "Infinity"),
        (".jsonl", "code", "1e400"),
        (".jsonl", "noise_seed", "-Infinity"),
        (".jsonl", "noise_seed", "NaN"),
        (".csv", "region", "{v}.9"),
        (".csv", "noise_seed", "1e3"),
        # a JSONL field keeps its JSON kind: a bool is no number, and a string no number or id
        (".jsonl", "temperature", "true"),
        (".jsonl", "noise_sigma", "false"),
        (".jsonl", "temperature", '"25"'),
        (".jsonl", "region", '"5"'),
        (".jsonl", "noise_seed", '"12"'),
        (".jsonl", "chip_id", "7"),
    ],
)
def test_a_bad_number_in_an_integer_column_is_refused_by_name(tmp_path, capsys, suffix, field, token):
    ds = tmp_path / f"ds{suffix}"
    assert run("crps", "--chips", 1, "--challenges", 4, "--out", ds) == 0
    lines = ds.read_text().splitlines()
    line = record_line(suffix, 2)
    if suffix == ".jsonl":
        record = json.loads(lines[line])
        lines[line] = json.dumps(record | {field: "@"}).replace('"@"', token.format(v=record[field]))
    else:
        fields = lines[line].split(",")
        i = crp.CSV_FIELDS.index(field)
        fields[i] = token.format(v=int(fields[i]))
        lines[line] = ",".join(fields)
    ds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.json"
    assert run("metrics", "--in", ds, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: row 2 has a bad {field!r} field: ")
    assert not out.exists()


def test_attack_lr_report(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    run("crps", "--chips", 1, "--seed", 4, "--out", ds)
    report_path = tmp_path / "attack.csv"
    assert run(
        "attack", "--in", ds, "--model", "lr", "--encoding", "cell",
        "--train-frac", 0.75, "--out", report_path,
    ) == 0
    assert "192 train / 64 test" in capsys.readouterr().out
    rows = read_rows(report_path)
    assert [int(r["bit_index"]) for r in rows] == list(range(11))
    for r in rows:
        for col in ("train_acc", "test_acc", "chance"):
            assert 0.0 <= float(r[col]) <= 1.0
    rep = json.loads((tmp_path / "attack.csv.manifest.json").read_text())["parameters"]["report"]
    assert rep["train_word_accuracy"] >= 0.95
    mean_test = sum(rep["test_bit_accuracy"]) / 11
    mean_chance = sum(rep["chance_bit_accuracy"]) / 11
    assert abs(mean_test - mean_chance) < 0.15
    # per-bit CSV rows mirror the report
    assert [float(r["test_acc"]) for r in rows] == pytest.approx(rep["test_bit_accuracy"])


def test_attack_es_report(tmp_path):
    ds = tmp_path / "ds.csv"
    run("crps", "--chips", 1, "--seed", 4, "--out", ds)
    report_path = tmp_path / "es.csv"
    assert run(
        "attack", "--in", ds, "--model", "es", "--generations", 300, "--out", report_path,
    ) == 0
    rows = read_rows(report_path)
    mean_train = sum(float(r["train_acc"]) for r in rows) / len(rows)
    assert mean_train > 0.7


def test_attack_es_attacks_with_what_the_manifest_records(tmp_path):
    # the data is read with fitted regions and a non-default cell; ES must
    # attack with those, not with the defaults
    raw, spec_path, ds = tmp_path / "samples.txt", tmp_path / "q.json", tmp_path / "ds.csv"
    assert run("mc", "--samples", 20000, "--seed", 2, "--out", tmp_path / "h.csv",
               "--samples-out", raw) == 0
    assert run("fit-quantizer", "--samples", raw, "--k", 4, "--out", spec_path) == 0
    assert run("crps", "--seed", 4, "--quantizer", spec_path, "--mirror", "reduced",
               "--switching", "naive", "--out", ds) == 0
    out = tmp_path / "es.csv"
    assert run("attack", "--in", ds, "--model", "es", "--generations", 200, "--out", out) == 0

    model = TransferModel(MIRRORS["reduced"], SWITCHING["naive"])
    spec, adc_config = codec.read_json(spec_path, QuantizerSpec), AdcConfig()
    recorded = json.loads((tmp_path / "ds.csv.manifest.json").read_text())["parameters"]
    assert recorded["model"] == codec.to_json(model)
    assert recorded["quantizer"] == codec.to_json(spec)
    assert recorded["adc"] == codec.to_json(adc_config)
    train, test = split(load_csv(ds), 0.75, seed=0)
    clone = es_fit(train, model, spec, adc_config, EsHyper(generations=200))
    report = attack_report(
        train, test, lambda words: clone_bits(clone.params, model, spec, adc_config, words)
    )
    rows = zip(report.train_bit_accuracy, report.test_bit_accuracy, report.chance_bit_accuracy)
    assert out.read_text() == "bit_index,train_acc,test_acc,chance\n" + "".join(
        f"{i},{tr!r},{te!r},{ch!r}\n" for i, (tr, te, ch) in enumerate(rows)
    )
    parameters = json.loads((tmp_path / "es.csv.manifest.json").read_text())["parameters"]
    assert parameters["report"] == codec.to_json(report)
    assert parameters["detail"] == {"fitness": clone.fitness}


def test_only_attack_es_needs_the_manifest(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--challenges", 16, "--out", ds) == 0
    (tmp_path / "ds.csv.manifest.json").unlink()
    out = tmp_path / "a.csv"
    assert run("attack", "--in", ds, "--model", "es", "--generations", 1, "--out", out) == 1
    assert f"{tmp_path / 'ds.csv.manifest.json'} is missing" in capsys.readouterr().err
    assert not out.exists()
    assert run("attack", "--in", ds, "--model", "lr", "--epochs", 5, "--out", out) == 0


@pytest.mark.parametrize(
    "model, flag, owner",
    [
        ("es", ("--encoding", "raw"), "lr"),
        ("es", ("--epochs", "5"), "lr"),
        ("es", ("--learning-rate", "nan"), "lr"),
        ("es", ("--l2", "0"), "lr"),
        ("lr", ("--generations", "10"), "es"),
        ("lr", ("--population", "40"), "es"),
        ("lr", ("--parents", "8"), "es"),
    ],
)
def test_attack_refuses_the_other_attackers_options(tmp_path, capsys, model, flag, owner):
    # an option that changes nothing for this attacker is refused, even at its default
    ds = tmp_path / "ds.csv"
    assert run("crps", "--challenges", 16, "--out", ds) == 0
    out = tmp_path / "a.csv"
    assert run("attack", "--in", ds, "--model", model, *flag, "--out", out) == 1
    message = f"error: {flag[0]} is an option of --model {owner}, not of --model {model}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_attack_takes_unset_hyperparameters_from_their_defaults(tmp_path):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--challenges", 32, "--out", ds) == 0
    for i, (model, given, spelled) in enumerate((
        ("lr", ("--epochs", 7), ("--epochs", 7, "--learning-rate", 50.0, "--l2", 1e-6,
                                 "--encoding", "cell")),
        # no option at all: LrHyper alone states the paper's settings
        ("lr", (), ("--encoding", "cell", "--epochs", 400, "--learning-rate", 50.0,
                    "--l2", 1e-06)),
        ("es", ("--parents", 3, "--generations", 20),
         ("--parents", 3, "--population", 40, "--generations", 20)),
    )):
        a, b = tmp_path / f"{i}_a.csv", tmp_path / f"{i}_b.csv"
        assert run("attack", "--in", ds, "--model", model, *given, "--out", a) == 0
        assert run("attack", "--in", ds, "--model", model, *spelled, "--out", b) == 0
        for suffix in ("", ".manifest.json"):
            assert (tmp_path / (a.name + suffix)).read_bytes() == (
                tmp_path / (b.name + suffix)
            ).read_bytes()


def test_attacks_options_are_its_records_fields_less_seed():
    # attack's own --seed fills EsHyper.seed; every other field is its attacker's option, in
    # the record's order, with the record's default in its help
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    options = [(a.option_strings[0], a.dest, a.type, a.help)
               for a in commands.choices["attack"]._actions
               if a.dest not in OWN_OPTIONS["attack"] | {"help"}]
    assert [dest for _, dest, _, _ in options] == [
        f.name for record in (LrHyper, EsHyper) for f in fields(record) if f.name != "seed"
    ]
    assert options == [
        ("--encoding", "encoding", None, "lr only (default cell)"),
        ("--epochs", "epochs", int, "lr only (default 400)"),
        ("--learning-rate", "learning_rate", float, "lr only (default 50.0)"),
        ("--l2", "l2", float, "lr only (default 1e-06)"),
        ("--generations", "generations", int, "es only (default 4000)"),
        ("--population", "population", int, "es only (default 40)"),
        ("--parents", "parents", int, "es only (default 8)"),
    ]


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_a_dataset_without_records_is_refused(tmp_path, capsys, suffix):
    # a header-only CSV; an empty JSONL file, or one holding only an older file's metadata
    # line; each with a manifest
    ds = tmp_path / f"ds{suffix}"
    assert run("crps", "--chips", 2, "--challenges", 4, "--out", ds) == 0
    if suffix == ".csv":
        texts = [ds.read_text().splitlines()[0] + "\n"]
    else:
        texts = ["", '{"_meta": {"n_chips": 2}}\n']
    out = tmp_path / "out"
    for text in texts:
        ds.write_text(text)
        for command in ("metrics", "metrics --temps 0", "attack --model lr", "attack --model es"):
            assert run(*command.split(), "--in", ds, "--out", out) == 1
            assert capsys.readouterr().err == f"error: {ds} holds no records\n"
            assert not out.exists()


def test_attack_multichip_needs_chip_id(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    run("crps", "--chips", 2, "--seed", 4, "--out", ds)
    assert run("attack", "--in", ds, "--out", tmp_path / "x.csv") == 1
    assert "--chip-id" in capsys.readouterr().err
    assert run(
        "attack", "--in", ds, "--chip-id", "chip001", "--epochs", 50, "--out", tmp_path / "x.csv"
    ) == 0
    assert run("attack", "--in", ds, "--chip-id", "chip009", "--out", tmp_path / "y.csv") == 1
    assert capsys.readouterr().err == "error: no records for chip 'chip009'\n"
    assert not (tmp_path / "y.csv").exists()


def test_energy_table(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert run("energy", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "TV-PUF" in printed
    # the paper's power gating: one selected cell draws 1.8 V x 4.3 uA, an idle array nothing
    assert "array static power: 7.74 uW with a cell selected, 0 W idle\n" in printed
    rows = {r["name"]: r for r in read_rows(out)}
    assert set(rows) == {"Super-threshold", "Sub-threshold", "ICID", "TV-PUF", "This design"}
    assert rows["TV-PUF"]["consistent"] == "false"
    assert rows["This design"]["consistent"] == "true"
    assert float(rows["This design"]["computed_energy_j"]) == pytest.approx(4.79e-14, rel=1e-3)


def test_curve_output(tmp_path):
    out = tmp_path / "curve.csv"
    assert run("curve", "--range=-0.05,0.05", "--points", 21, "--out", out) == 0
    rows = read_rows(out)
    assert len(rows) == 21
    volts = [float(r["v_out"]) for r in rows]
    assert volts == sorted(volts)
    assert float(rows[10]["v_out"]) == pytest.approx(0.9)


def test_the_mc_histogram_is_pinned_byte_for_byte(tmp_path, made_volts):
    # each row is f"{center!r},{count}": a float as its repr, a count bare
    out = tmp_path / "hist.csv"
    assert run("mc", "--seed", 3, "--samples", 2000, "--bins", 16, "--out", out) == 0
    (volts,) = made_volts
    counts, edges = np.histogram(volts, bins=16, range=(0.0, 1.8))
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert out.read_text() == "bin_center,count\n" + "".join(
        f"{float(c)!r},{int(n)}\n" for c, n in zip(centers, counts)
    )


def test_the_energy_table_is_pinned_byte_for_byte(tmp_path):
    # floats as their repr and the consistency flag as true or false
    out = tmp_path / "energy.csv"
    assert run("energy", "--clock", 1e9, "--power", 1e-4, "--out", out) == 0
    assert out.read_text() == (
        "name,power_w,clock_hz,quoted_energy_j,computed_energy_j,consistent\n"
    ) + "".join(
        f"{row.name},{row.power_w!r},{row.clock_hz!r},{row.quoted_energy_j!r},"
        f"{row.computed_energy_j!r},{str(row.consistent).lower()}\n"
        for row in COMPARISON_ROWS
    )


def test_the_transfer_curve_is_pinned_byte_for_byte(tmp_path):
    out = tmp_path / "curve.csv"
    argv = ("curve", "--range=-0.05,0.07", "--points", 33, "--gain", 75, "--out", out)
    assert run(*argv) == 0
    model = replace(default_model(), mirror=replace(MIRRORS["wide"], gain=75.0))
    deltas, volts = transfer_curve(model, -0.05, 0.07, 33)
    assert out.read_text() == "delta_v,v_out\n" + "".join(
        f"{float(d)!r},{float(v)!r}\n" for d, v in zip(deltas, volts)
    )


@pytest.mark.parametrize("text", ["0,,1", "0", "1,2,3", ""])
def test_curve_refuses_a_bad_range(tmp_path, capsys, text):
    assert run("curve", f"--range={text}", "--out", tmp_path / "curve.csv") == 1
    assert capsys.readouterr().err == f"error: --range needs lo,hi in volts, got {text!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_input_is_reported(tmp_path, capsys):
    assert run("metrics", "--in", tmp_path / "nope.csv", "--out", tmp_path / "r.json") == 1
    assert "error:" in capsys.readouterr().err


def test_manifests_have_no_timestamps(tmp_path):
    ds = tmp_path / "ds.csv"
    run("crps", "--chips", 1, "--seed", 0, "--out", ds)
    manifest = (tmp_path / "ds.csv.manifest.json").read_text()
    for fragment in ("time", "date", "T0", "2024", "2025", "2026"):
        assert fragment not in manifest


def test_mc_rejects_an_empty_sample_set(tmp_path, capsys):
    for n in (0, -3):
        assert run("mc", "--samples", n, "--out", tmp_path / "h.csv") == 1
        assert capsys.readouterr().err == f"error: samples must be >= 1, got {n}\n"
    assert not (tmp_path / "h.csv").exists()


def test_fit_quantizer_names_too_few_distinct_values(tmp_path, capsys):
    raw = tmp_path / "flat.txt"
    # without mismatch every cell sits at the same voltage
    assert run("mc", "--samples", 500, "--sigma-vth", 0, "--out", tmp_path / "h.csv",
               "--samples-out", raw) == 0
    assert run("fit-quantizer", "--samples", raw, "--k", 5, "--out", tmp_path / "q.json") == 1
    err = capsys.readouterr().err
    assert "1 distinct value(s), too few for k=5" in err
    assert not (tmp_path / "q.json").exists()


def test_fit_quantizer_refuses_a_fit_without_iterations(tmp_path, capsys):
    raw = tmp_path / "samples.txt"
    raw.write_text("\n".join(str(i * 1.8 / 200) for i in range(201)) + "\n")
    for max_iter in (0, -3):
        out = tmp_path / "q.json"
        assert run("fit-quantizer", "--samples", raw, "--max-iter", max_iter, "--out", out) == 1
        assert capsys.readouterr().err == f"error: max_iter must be >= 1, got {max_iter}\n"
        assert list(tmp_path.iterdir()) == [raw]


def test_fit_quantizer_names_a_bad_precision_before_it_fits(tmp_path, capsys):
    # two distinct samples are too few for three regions: a fit that ran would say so first
    raw = tmp_path / "s.txt"
    raw.write_text("0.1\n0.9\n")
    out = tmp_path / "q.json"
    assert run("fit-quantizer", "--samples", raw, "--k", 3, "--bits", "8,8,0", "--out", out) == 1
    assert capsys.readouterr().err == "error: bits_per_region must be in [1, 8], got 0\n"
    assert list(tmp_path.iterdir()) == [raw]


@pytest.fixture(scope="module")
def crps_files(tmp_path_factory):
    """A directory holding a one-chip dataset with its manifest and a fitted spec with its own."""
    path = tmp_path_factory.mktemp("crps_files")
    (path / "s.txt").write_text("\n".join(str(i * 1.8 / 20) for i in range(21)) + "\n")
    assert run("fit-quantizer", "--samples", path / "s.txt", "--out", path / "q.json") == 0
    assert run("crps", "--challenges", 16, "--quantizer", path / "q.json",
               "--out", path / "d.csv") == 0
    (path / "link.csv").symlink_to(path / "d.csv")
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["metrics", "--in", "{dir}/d.csv", "--out", "{dir}/d.csv"],
         "--out would overwrite --in: both are {dir}/d.csv"),
        # the same file by another spelling, or through a link
        (["metrics", "--in", "{dir}/d.csv", "--out", "{dir}/sub/../d.csv"],
         "--out would overwrite --in: both are {dir}/sub/../d.csv"),
        (["metrics", "--in", "{dir}/d.csv", "--out", "{dir}/link.csv"],
         "--out would overwrite --in: both are {dir}/link.csv"),
        (["metrics", "--in", "{dir}/d.csv", "--out", "{dir}/d.csv.manifest.json"],
         "--out would overwrite --in's manifest: both are {dir}/d.csv.manifest.json"),
        (["metrics", "--in", "{dir}/d.csv.manifest.json", "--out", "{dir}/d.csv"],
         "--out's manifest would overwrite --in: both are {dir}/d.csv.manifest.json"),
        (["attack", "--in", "{dir}/d.csv", "--out", "{dir}/d.csv"],
         "--out would overwrite --in: both are {dir}/d.csv"),
        (["attack", "--in", "{dir}/d.csv", "--model", "es", "--out", "{dir}/d.csv.manifest.json"],
         "--out would overwrite --in's manifest: both are {dir}/d.csv.manifest.json"),
        (["fit-quantizer", "--samples", "{dir}/s.txt", "--out", "{dir}/s.txt"],
         "--out would overwrite --samples: both are {dir}/s.txt"),
        (["crps", "--quantizer", "{dir}/q.json", "--out", "{dir}/q.json"],
         "--out would overwrite --quantizer: both are {dir}/q.json"),
        (["crps", "--quantizer", "{dir}/q.json", "--out", "{dir}/q.json.manifest.json"],
         "--out would overwrite --quantizer's manifest: both are {dir}/q.json.manifest.json"),
        (["mc", "--samples", "10", "--out", "{dir}/x.csv", "--samples-out", "{dir}/x.csv"],
         "--samples-out would overwrite --out: both are {dir}/x.csv"),
        (["mc", "--samples", "10", "--out", "{dir}/x.csv",
          "--samples-out", "{dir}/x.csv.manifest.json"],
         "--samples-out would overwrite --out's manifest: both are {dir}/x.csv.manifest.json"),
    ],
)
def test_an_output_never_overwrites_an_input(crps_files, capsys, argv, message):
    # each of these once exited 0, the dataset replaced by the report or the crps manifest by
    # the metrics manifest, the sample file by a spec, the histogram by the samples
    before = {path.name: path.read_bytes() for path in crps_files.iterdir()}
    assert run(*(a.format(dir=crps_files) for a in argv)) == 1
    assert capsys.readouterr().err == f"error: {message.format(dir=crps_files)}\n"
    assert {path.name: path.read_bytes() for path in crps_files.iterdir()} == before


def test_fit_quantizer_names_a_bad_k(tmp_path, capsys):
    raw = tmp_path / "samples.txt"
    raw.write_text("0.1\n0.5\n1.7\n")
    out = tmp_path / "q.json"
    # k is named before --bits is split into k entries
    for k in (0, -1, 8):
        message = f"k must be in [1, 7], got {k}"
        for bits in ([], ["--bits", 8]):
            assert run("fit-quantizer", "--samples", raw, "--k", k, *bits, "--out", out) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [raw]


@pytest.mark.parametrize("text", ["", "\n\n  \n"])
def test_fit_quantizer_refuses_a_file_without_samples(tmp_path, capsys, text):
    # by name and without numpy's "input contained no data" warning, which the
    # suite turns into an error
    raw = tmp_path / "samples.txt"
    raw.write_text(text)
    assert run("fit-quantizer", "--samples", raw, "--out", tmp_path / "q.json") == 1
    assert capsys.readouterr().err == f"error: {raw} holds no samples\n"
    assert list(tmp_path.iterdir()) == [raw]


def test_fit_quantizer_names_a_samples_file_it_cannot_parse(tmp_path, capsys):
    # a dataset CSV handed over as samples: numpy's message names a row, not the file
    ds = tmp_path / "ds.csv"
    assert run("crps", "--challenges", 4, "--out", ds) == 0
    capsys.readouterr()
    assert run("fit-quantizer", "--samples", ds, "--out", tmp_path / "q.json") == 1
    assert capsys.readouterr().err.startswith(f"error: {ds}: could not convert string ")
    assert not (tmp_path / "q.json").exists()


def test_fit_quantizer_names_a_nan_sample(tmp_path, capsys):
    raw = tmp_path / "samples.txt"
    raw.write_text("0.1\n0.5\nnan\n1.7\n")
    assert run("fit-quantizer", "--samples", raw, "--k", 2, "--out", tmp_path / "q.json") == 1
    assert "error: samples must lie within [0, 1.8], got nan at index 2" in capsys.readouterr().err
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("seed", range(10))
def test_mc_samples_are_chip_cell_voltages(tmp_path, seed):
    # mc's 256 draws are one chip's 1,024 deviations, cell by cell, so its
    # samples are that chip's voltages in challenge order
    raw = tmp_path / "samples.txt"
    out = tmp_path / "h.csv"
    assert run("mc", "--seed", seed, "--samples", 256, "--out", out, "--samples-out", raw) == 0
    samples = [float(line) for line in raw.read_text().splitlines()]
    chip = synth_chip(VariationConfig(seed=seed))
    volts = evaluate_array(default_model(), [chip], range(256), 25.0)[0]
    assert samples == volts.tolist()


@pytest.mark.parametrize("n", [1, SAMPLES_CHUNK - 1, SAMPLES_CHUNK, SAMPLES_CHUNK + 1])
def test_mc_samples_out_is_one_repr_per_line(tmp_path, made_volts, n):
    # the chunked writer gives the bytes of one f"{v!r}\n" per voltage, and
    # fit-quantizer reads them back to the spec of the voltages themselves
    raw = tmp_path / "samples.txt"
    assert run("mc", "--seed", 4, "--samples", n, "--out", tmp_path / "h.csv", "--samples-out", raw) == 0
    (volts,) = made_volts
    assert raw.read_text() == "".join(f"{v!r}\n" for v in volts.tolist())
    k = min(n, 5)
    spec_path = tmp_path / "q.json"
    assert run("fit-quantizer", "--samples", raw, "--k", k, "--out", spec_path) == 0
    fitted = lloyd_max(EmpiricalDistribution(volts, 1.8), k)
    assert codec.read_json(spec_path, QuantizerSpec) == fitted


ATTACK = ("attack", "--in", "ds.csv", "--out", "a.csv")
CURVE = ("curve", "--out", "c.csv")
FIT = ("fit-quantizer", "--samples", "s.txt", "--out", "q.json")
MC = ("mc", "--out", "h.csv")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (ATTACK, ("--temp", "80")),
        (CURVE, ("--noise-sigma", "0.1")),
        (CURVE, ("--noise-seed", "3")),
        # mc draws its noise from the --seed stream, so no noise seed changes it
        (MC, ("--noise-seed", "3")),
        # attack --model es reads how the data was read from its manifest
        (ATTACK, ("--mirror", "reduced")),
        (ATTACK, ("--switching", "naive")),
        (ATTACK, ("--gain", "100")),
        (ATTACK, ("--temp-coeff", "0")),
        (ATTACK, ("--clock", "1e9")),
        (ATTACK, ("--power", "1e-4")),
        (ATTACK, ("--quantizer", "q.json")),
        # the transfer curve is the mirror's gain and vdd alone
        (CURVE, ("--switching", "naive")),
        (CURVE, ("--temp-coeff", "0")),
        # no option sets the cell's or the converter's vdd, so no fit may either
        (FIT, ("--vdd", "3.3")),
    ],
)
def test_read_conditions_belong_to_the_commands_that_read(tmp_path, monkeypatch, capsys, argv, flag):
    # attack and curve read no cell, so they take no temperature or noise,
    # and an option that would change none of their output bytes is refused
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        run(*argv, *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_crps_rejects_a_challenge_past_the_array(tmp_path, capsys):
    # named by the option, before any chip is synthesized
    assert run("crps", "--chips", 2, "--challenges", 300, "--out", tmp_path / "ds.csv") == 1
    assert capsys.readouterr().err == "error: challenges must be within [1, 256], got 300\n"
    assert list(tmp_path.iterdir()) == []


def test_negative_noise_seed_fails_even_without_noise(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--chips", 1, "--noise-seed", -1, "--out", ds) == 1
    assert "error: noise_seed must be >= 0, got -1" in capsys.readouterr().err
    assert run("crps", "--chips", 2, "--out", ds) == 0
    args = ("metrics", "--in", ds, "--temps", "0", "--seed", -1, "--out", tmp_path / "m.json")
    assert run(*args) == 1
    assert "error: noise_seed must be >= 0, got -1" in capsys.readouterr().err


def test_metrics_refuses_merged_temperatures(tmp_path, capsys):
    # the same chips read at 0 degC and at 90 degC in one file: every
    # (chip, challenge) has two reads and no metric can pick one
    for temp in (0, 90):
        assert run("crps", "--chips", 2, "--challenges", 8, "--temp", temp,
                   "--out", tmp_path / f"t{temp}.csv") == 0
    cold, hot = ((tmp_path / f"t{t}.csv").read_text().splitlines() for t in (0, 90))
    merged = tmp_path / "merged.csv"
    merged.write_text("\n".join(cold + hot[1:]) + "\n")
    # ES reads its model from the manifest; the cold file's lets it reach the refusal
    manifest = (tmp_path / "t0.csv.manifest.json").read_text()
    (tmp_path / "merged.csv.manifest.json").write_text(manifest)
    for command in ("metrics", "attack --chip-id chip000", "attack --model es --chip-id chip000"):
        assert run(*command.split(), "--in", merged, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert "chip 'chip000' has more than one read of challenge 0" in err
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("vdd", [3.3, 1.2])
def test_quantizer_for_another_vdd_is_refused(tmp_path, capsys, vdd):
    spec = tmp_path / "q.json"
    codec.write_json(spec, lloyd_max(EmpiricalDistribution(np.linspace(0.0, vdd, 2001), vdd), 2))
    ds = tmp_path / "ds.csv"
    assert run("crps", "--quantizer", spec, "--out", ds) == 1
    err = capsys.readouterr().err
    assert f"spans [0, {vdd}] V, but the cell runs at vdd 1.8 V" in err
    assert not ds.exists()
    # a manifest edited by hand to hold that quantizer is refused by its readers
    assert run("crps", "--chips", 1, "--challenges", 8, "--out", ds) == 0
    manifest = tmp_path / "ds.csv.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["parameters"]["quantizer"] = json.loads(spec.read_text())
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for argv in (("metrics", "--temps", "0"), ("attack", "--model", "es", "--generations", 1)):
        assert run(*argv, "--in", ds, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: the quantizer spans [0, {vdd}] V, but the ")
        assert not out.exists()


# the range checks that NaN must fail, keyed "<type or function>.<field>"
NAN_REFUSERS = {
    "AdcConfig.vdd": lambda v: AdcConfig(vdd=v),
    "AdcConfig.clock_freq": lambda v: AdcConfig(clock_freq=v),
    "AdcConfig.power": lambda v: AdcConfig(power=v),
    "MirrorConfig.gain": lambda v: replace(MIRRORS["wide"], gain=v),
    "MirrorConfig.bias_current": lambda v: replace(MIRRORS["wide"], bias_current=v),
    "Conditions.temperature": lambda v: Conditions(temperature=v),
    "Conditions.noise_sigma": lambda v: Conditions(noise_sigma=v),
    "VariationConfig.sigma_vth": lambda v: VariationConfig(sigma_vth=v),
    "TransferModel.vdd": lambda v: replace(default_model(), vdd=v),
    "TransferModel.temp_coeff": lambda v: replace(default_model(), temp_coeff=v),
    "EmpiricalDistribution.vdd": lambda v: EmpiricalDistribution(np.array([0.5]), vdd=v),
    "LrHyper.learning_rate": lambda v: LrHyper(learning_rate=v),
    "LrHyper.l2": lambda v: LrHyper(l2=v),
    "lloyd_max.tol": lambda v: lloyd_max(
        EmpiricalDistribution(np.linspace(0.0, 1.8, 9), 1.8), 2, tol=v
    ),
    "energy_per_cycle.power": lambda v: energy_per_cycle(v, 6.4e9),
    "energy_per_cycle.clock_freq": lambda v: energy_per_cycle(306.54e-6, v),
    "transfer_curve.lo": lambda v: transfer_curve(default_model(), v, 0.05, 11),
    "transfer_curve.hi": lambda v: transfer_curve(default_model(), -0.05, v, 11),
}


@pytest.mark.parametrize("name", NAN_REFUSERS)
def test_nan_is_refused_by_name(name):
    # ±inf too: a +inf that only finiteness refuses reads "must be finite"
    field = name.split(".")[1]
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{field} must be .*, got {value}$"):
            NAN_REFUSERS[name](value)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("crps", "--noise-sigma", "nan"), "noise_sigma must be >= 0, got nan"),
        (("crps", "--gain", "nan"), "gain must be > 0, got nan"),
        (("energy", "--power", "nan"), "power must be >= 0, got nan"),
        (("mc", "--sigma-vth", "-0.01"), "sigma_vth must be >= 0, got -0.01"),
        # each of these ran to exit 0 and wrote "Infinity" into its manifest
        (("mc", "--sigma-vth", "inf"), "sigma_vth must be finite, got inf"),
        (("crps", "--noise-sigma", "inf"), "noise_sigma must be finite, got inf"),
        (("crps", "--gain", "inf"), "gain must be finite, got inf"),
        (("crps", "--clock", "inf"), "clock_freq must be finite, got inf"),
        (("energy", "--power", "inf"), "power must be finite, got inf"),
        (("attack", "--in", "{inputs}/ds.csv", "--learning-rate", "inf"),
         "learning_rate must be finite, got inf"),
        (("attack", "--in", "{inputs}/ds.csv", "--l2", "inf"), "l2 must be finite, got inf"),
        (("fit-quantizer", "--samples", "{inputs}/s.txt", "--tol", "inf"), "tol must be finite, got inf"),
        (("curve", "--range=-inf,inf"), "lo must be finite, got -inf"),
        # finite options whose volts overflow: NaN samples, NaN and inf curve rows
        (("mc", "--sigma-vth", "1e308", "--samples", "1000", "--samples-out", "{tmp}/s.txt"),
         "v_out must be finite, got nan"),
        (("curve", "--range=-1e308,1e308"), "v_out must be finite, got nan"),
        # a negative seed is refused by the field it enters
        (("crps", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("crps", "--noise-seed", "-1"), "noise_seed must be >= 0, got -1"),
        (("mc", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("synth", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("metrics", "--in", "{inputs}/ds.csv", "--temps", "0", "--seed", "-1"),
         "noise_seed must be >= 0, got -1"),
        (("attack", "--in", "{inputs}/ds.csv", "--seed", "-1"), "seed must be >= 0, got -1"),
        # the challenge words are [0, N) of the array's 256
        (("crps", "--challenges", "0"), "challenges must be within [1, 256], got 0"),
        (("crps", "--challenges", "-3"), "challenges must be within [1, 256], got -3"),
        (("crps", "--challenges", "257"), "challenges must be within [1, 256], got 257"),
        # a count is refused by its option's name
        (("crps", "--chips", "0"), "chips must be >= 1, got 0"),
        (("synth", "--chips", "0"), "chips must be >= 1, got 0"),
        (("curve", "--points", "1"), "points must be >= 2, got 1"),
        (("mc", "--bins", "1"), "bins must be >= 2, got 1"),
        (("attack", "--in", "{inputs}/ds.csv", "--model", "es", "--parents", "0"),
         "parents must be >= 1, got 0"),
        (("attack", "--in", "{inputs}/ds.csv", "--model", "es", "--population", "4"),
         "population must be >= 8, got 4"),
        (("attack", "--in", "{inputs}/ds.csv", "--train-frac", "1.5"),
         "train_frac must be in (0, 1), got 1.5"),
        # a clock so slow that power / clock overflows: each once wrote an infinite energy
        (("energy", "--clock", "1e-320"), "power / clock_freq must be finite, got inf"),
        (("crps", "--clock", "1e-320"), "power / clock_freq must be finite, got inf"),
    ],
)
def test_bad_options_fail_before_any_file_is_written(tmp_path, capsys, inputs, argv, message):
    argv = [a.format(inputs=inputs, tmp=tmp_path) for a in argv]
    assert run(*argv, "--out", tmp_path / "out.csv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding a one-chip dataset and a sample file, for the commands that read one."""
    path = tmp_path_factory.mktemp("inputs")
    assert run("crps", "--challenges", 32, "--out", path / "ds.csv") == 0
    (path / "s.txt").write_text("\n".join(str(i * 1.8 / 20) for i in range(21)) + "\n")
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["model"]["mirror"].pop("gain"), "MirrorConfig has no 'gain' field"),
        # a null field is a missing one
        (lambda p: p["conditions"].update(noise_sigma=None), "Conditions has no 'noise_sigma' field"),
        (lambda p: p.update(challenges=300), "challenges must be within [1, 256], got 300"),
        (lambda p: p.update(chips=0), "chips must be >= 1, got 0"),
    ],
)
def test_a_malformed_manifest_is_reported(tmp_path, capsys, edit, message):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--chips", 2, "--challenges", 8, "--out", ds) == 0
    manifest = tmp_path / "ds.csv.manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc["parameters"])
    manifest.write_text(json.dumps(doc))
    assert run("metrics", "--in", ds, "--temps", "0,60", "--out", tmp_path / "m.json") == 1
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert not (tmp_path / "m.json").exists()


def test_a_quantizer_spec_holding_infinity_is_refused(tmp_path, capsys):
    spec = tmp_path / "q.json"
    spec.write_text('{"boundaries": [0.0, 0.9, Infinity], "bits_per_region": [8, 8], '
                    '"centroids": [0.45, 1.35]}')
    ds = tmp_path / "ds.csv"
    assert run("crps", "--quantizer", spec, "--out", ds) == 1
    assert capsys.readouterr().err == f"error: {spec}: Infinity is not a finite number\n"
    assert list(tmp_path.iterdir()) == [spec]


def test_a_quantizer_spec_without_centroids_is_reported(tmp_path, capsys):
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"boundaries": [0.0, 0.9, 1.8], "bits_per_region": [8, 8]}))
    ds = tmp_path / "ds.csv"
    assert run("crps", "--quantizer", spec, "--out", ds) == 1
    assert capsys.readouterr().err == f"error: {spec}: QuantizerSpec has no 'centroids' field\n"
    assert not ds.exists()


# Each subcommand: the options of a quick run, its output, and an option that refuses the run.
QUICK_RUNS = {
    "synth": (["--chips", "2"], "chips", ["--chips", "0"]),
    "mc": (["--samples", "200"], "h.csv", ["--samples", "0"]),
    "fit-quantizer": (["--samples", "{inputs}/s.txt"], "q.json", ["--k", "0"]),
    "crps": (["--challenges", "16"], "d.csv", ["--chips", "0"]),
    "metrics": (["--in", "{inputs}/ds.csv"], "m.json", ["--temps", "hot"]),
    "attack": (["--in", "{inputs}/ds.csv", "--epochs", "5"], "a.csv", ["--train-frac", "2"]),
    "energy": ([], "e.csv", ["--clock", "0"]),
    "curve": (["--points", "11"], "c.csv", ["--points", "1"]),
}


@pytest.mark.parametrize("command", QUICK_RUNS)
def test_every_subcommand_writes_a_manifest_named_for_itself(inputs, tmp_path, capsys, command):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert set(QUICK_RUNS) == set(commands.choices)
    options, out, refusal = QUICK_RUNS[command]
    argv = [command, *(a.format(inputs=inputs) for a in options), "--out", tmp_path / out]
    assert run(*argv, *refusal) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.rglob("*manifest.json")) == []
    assert run(*argv) == 0
    manifest = f"{out}/manifest.json" if command == "synth" else f"{out}.manifest.json"
    doc = json.loads((tmp_path / manifest).read_text())
    assert sorted(doc) == ["command", "parameters"]
    assert doc["command"] == command


# Adversarial option values: non-finite, zero, negative, empty or malformed
# lists and wrong suffixes.  Sizes stay bounded: each run's base options cap
# it at 16 challenges, 200 samples and 5 iterations, epochs or generations,
# the drawn counts reach 3, and 300 challenges is drawn to be refused.  A
# later option overrides an earlier one.
NUMBER = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "0.5", ""])
COUNT = st.sampled_from(["-1", "0", "1", "2", "3"])
LIST = st.sampled_from(["", ",", "0,,1", "0", "0,60", "nan,1", "-inf,inf", "8,7,6,7,8", "x"])
READ = {"--sigma-vth": NUMBER, "--gain": NUMBER, "--temp-coeff": NUMBER, "--temp": NUMBER,
        "--noise-sigma": NUMBER}
DATASET = ["--in", "{inputs}/ds.csv"]
COMMANDS = [  # base argv, the options drawn from, output names
    (["synth"], {"--chips": COUNT, "--sigma-vth": NUMBER}, ["chips"]),
    (["mc", "--samples=200"], {"--samples": COUNT, "--bins": COUNT, **READ}, ["h.csv"]),
    (["crps", "--challenges=16"],
     {"--chips": COUNT, "--challenges": st.sampled_from(["0", "1", "300"]),
      "--noise-seed": st.sampled_from(["-1", "5"]), "--clock": NUMBER, "--power": NUMBER, **READ},
     ["d.csv", "d.jsonl", "d.txt"]),
    (["energy"], {"--clock": NUMBER, "--power": NUMBER}, ["e.csv"]),
    (["curve"], {"--range": LIST, "--points": COUNT, "--gain": NUMBER}, ["c.csv"]),
    (["fit-quantizer", "--samples", "{inputs}/s.txt", "--max-iter=5"],
     {"--k": COUNT, "--bits": LIST, "--tol": NUMBER, "--max-iter": COUNT}, ["q.json"]),
    (["metrics", "--in", "{inputs}/ds.csv"], {"--temps": LIST}, ["m.json"]),
    (["attack", "--model=lr", "--epochs=5", *DATASET],
     {"--train-frac": NUMBER, "--learning-rate": NUMBER, "--l2": NUMBER, "--epochs": COUNT,
      "--generations": COUNT}, ["a.csv"]),
    (["attack", "--model=es", "--generations=5", *DATASET],
     {"--train-frac": NUMBER, "--generations": COUNT, "--population": COUNT, "--parents": COUNT,
      "--epochs": COUNT}, ["a.csv"]),
]


@st.composite
def cli_runs(draw):
    argv, options, outs = draw(st.sampled_from(COMMANDS))
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True)):
        argv = [*argv, f"{flag}={draw(options[flag])}"]  # "=" keeps "-1" from reading as a flag
    return argv, draw(st.sampled_from(outs))


def _non_finite(path: Path) -> bool:
    text = path.read_text()
    if path.suffix == ".json":
        tokens = []  # NaN, Infinity and -Infinity: Python's json reads and writes them
        json.loads(text, parse_constant=tokens.append)
        return bool(tokens)
    return re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE) is not None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(run_=cli_runs())
def test_every_command_exits_cleanly_and_writes_only_finite_values(inputs, run_):
    argv, out = run_
    argv = [a.format(inputs=inputs) for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--out", str(Path(tmp) / out)])
            except SystemExit as exc:  # argparse refuses before the command runs
                code = exc.code
        lines = err.getvalue().splitlines()
        written = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        if code == 0:
            assert written and not [p.name for p in written if _non_finite(p)], argv
        else:
            assert code in (1, 2) and written == [], (argv, lines)
            assert lines[-1].startswith("error: " if code == 1 else "cmapuf "), lines
            assert sum("error:" in line for line in lines) == 1, lines


# Tokens a dataset file may hold where a field or an older JSONL file's metadata belongs: JSON
# kinds a column does not take, numbers past a column's range and non-finite ones.
TOKENS = ["true", "false", "null", '"3"', "2.9", "-1", "NaN", "Infinity", "1e400",
          "18446744073709551616", "[1]", "{}"]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """A directory holding a one-chip, four-challenge dataset as CSV and as JSONL."""
    path = tmp_path_factory.mktemp("datasets")
    for suffix in (".csv", ".jsonl"):
        assert run("crps", "--chips", 1, "--challenges", 4, "--out", path / f"ds{suffix}") == 0
    return path


@st.composite
def broken_datasets(draw):
    """A dataset's suffix, the field to replace (or ``_meta``, for a leading ``{"_meta": token}``
    line), the record and the token."""
    suffix = draw(st.sampled_from([".csv", ".jsonl"]))
    field = draw(st.sampled_from([*crp.CSV_FIELDS, *(["_meta"] if suffix == ".jsonl" else [])]))
    row, token = draw(st.integers(1, 4)), draw(st.sampled_from(TOKENS))
    return suffix, field, row, token


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=broken_datasets(),
       command=st.sampled_from([["metrics"], ["attack", "--model=lr", "--epochs=5"]]))
def test_every_reader_of_a_dataset_exits_cleanly_on_a_bad_field(datasets, case, command):
    suffix, field, row, token = case
    lines = (datasets / f"ds{suffix}").read_text().splitlines()
    line = record_line(suffix, row)
    if field == "_meta":
        lines.insert(0, '{"_meta": %s}' % token)
    elif suffix == ".jsonl":
        lines[line] = json.dumps(json.loads(lines[line]) | {field: "@"}).replace('"@"', token)
    else:
        fields = lines[line].split(",")
        fields[crp.CSV_FIELDS.index(field)] = token
        lines[line] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        ds, out = Path(tmp) / f"ds{suffix}", Path(tmp) / "out.csv"
        ds.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*command, "--in", str(ds), "--out", str(out)])
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert code in (0, 1) and len(errors) == code, (case, err.getvalue())
        assert out.exists() == (code == 0), case

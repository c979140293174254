import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cmapuf import codec
from cmapuf.adc import AdcConfig
from cmapuf.analog import (
    Conditions,
    TransferModel,
    default_model,
    naive_switching,
    reduced_headroom_mirror,
    wide_swing_mirror,
)
from cmapuf.attack import EsHyper, LrHyper, attack_report, clone_bits, es_fit, split
from cmapuf.cellarray import evaluate_array
from cmapuf.cli import build_parser, main
from cmapuf.crp import generate, load_csv, reliability, save_csv
from cmapuf.quantizer import (
    EmpiricalDistribution,
    default_regions,
    lloyd_max,
    load_spec,
    save_spec,
)
from cmapuf.variation import VariationConfig, load_chip, synth_chip, synth_population


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_synth_writes_chips_and_manifest(tmp_path):
    out = tmp_path / "chips"
    assert run("synth", "--chips", 3, "--seed", 5, "--corner", "SF", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["parameters"]["variation"]["corner"] == "SF"
    files = sorted(p.name for p in out.glob("chip*.json"))
    assert files == ["chip000.json", "chip001.json", "chip002.json"]
    chip = load_chip(out / "chip001.json")
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
    spec = load_spec(spec_path)
    assert spec.k == 5
    assert spec.bits_per_region == (8, 7, 6, 7, 8)
    manifest = json.loads((tmp_path / "spec.json.manifest.json").read_text())
    assert manifest["parameters"]["n_samples"] == 20000


def test_fit_quantizer_uniform_splits_at_midpoint(tmp_path):
    raw = tmp_path / "uniform.txt"
    raw.write_text("\n".join(str(i * 1.8 / 2000) for i in range(2001)) + "\n")
    spec_path = tmp_path / "k2.json"
    assert run("fit-quantizer", "--samples", raw, "--k", 2, "--out", spec_path) == 0
    spec = load_spec(spec_path)
    assert spec.k == 2
    assert spec.bits_per_region == (8, 8)
    assert abs(spec.boundaries[1] - 0.9) < 1e-3


def test_fit_quantizer_bits_mismatch_errors(tmp_path, capsys):
    raw = tmp_path / "s.txt"
    raw.write_text("0.1\n0.9\n1.7\n")
    code = run("fit-quantizer", "--samples", raw, "--k", 2, "--bits", "8,8,8", "--out", tmp_path / "x.json")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_a_quantizer_wider_than_the_word_is_refused(tmp_path, capsys):
    raw = tmp_path / "s.txt"
    raw.write_text("\n".join(str(i * 1.8 / 200) for i in range(201)) + "\n")
    wide = "bits_per_region must be <= 8, the response word's code width, got 9"
    for option, message in (
        (["--k", 8], "the response word holds at most 7 regions, got k=8"),
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
    jsonl_path = tmp_path / "ds.jsonl"
    assert run("crps", "--chips", 1, "--challenges", 16, "--out", jsonl_path) == 0
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == 17  # metadata line plus 16 records
    manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
    assert manifest["parameters"]["quantizer"]["bits_per_region"] == [8, 7, 6, 7, 8]


def test_crps_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["crps", "--chips", 2, "--seed", 9, "--noise-sigma", 0.003, "--out"]
    assert run(*args, a) == 0
    assert run(*args, b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == (
        tmp_path / "b.csv.manifest.json"
    ).read_bytes()


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
        lines = path.read_text().splitlines()  # header or metadata, then records 1..4
        lines[2] = edit(lines[2])
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
        (broken("listed.jsonl", lambda line: json.dumps(json.loads(line) | {"code": [1]})),
         "code: int() argument must be"),
        # a null field is a missing one, not the chip 'None'
        (broken("null.jsonl", lambda line: json.dumps(json.loads(line) | {"chip_id": None})),
         "row 2 has no 'chip_id' field"),
    ]
    for path, message in cases:
        assert run(command, "--in", path, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


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

    model = TransferModel(reduced_headroom_mirror(), naive_switching())
    spec, adc_config = load_spec(spec_path), AdcConfig()
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
    for model, given, spelled in (
        ("lr", ("--epochs", 7), ("--epochs", 7, "--learning-rate", 50.0, "--l2", 1e-6,
                                 "--encoding", "cell")),
        ("es", ("--parents", 3, "--generations", 20),
         ("--parents", 3, "--population", 40, "--generations", 20)),
    ):
        a, b = tmp_path / f"{model}_a.csv", tmp_path / f"{model}_b.csv"
        assert run("attack", "--in", ds, "--model", model, *given, "--out", a) == 0
        assert run("attack", "--in", ds, "--model", model, *spelled, "--out", b) == 0
        for suffix in ("", ".manifest.json"):
            assert (tmp_path / (a.name + suffix)).read_bytes() == (
                tmp_path / (b.name + suffix)
            ).read_bytes()


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_a_dataset_without_records_is_refused(tmp_path, capsys, suffix):
    # a header-only CSV, or a JSONL file holding only its metadata, with a manifest
    ds = tmp_path / f"ds{suffix}"
    assert run("crps", "--chips", 2, "--challenges", 4, "--out", ds) == 0
    ds.write_text(ds.read_text().splitlines()[0] + "\n")
    out = tmp_path / "out"
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


def test_energy_table(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert run("energy", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "TV-PUF" in printed
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
        assert f"need at least 1 Monte Carlo sample, got {n}" in capsys.readouterr().err
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
    assert run("crps", "--chips", 2, "--challenges", 300, "--out", tmp_path / "ds.csv") == 1
    assert "error: challenge must be in [0, 255], got 256" in capsys.readouterr().err


def test_negative_noise_seed_fails_even_without_noise(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    assert run("crps", "--chips", 1, "--noise-seed", -1, "--out", ds) == 1
    assert "error: expected non-negative integer" in capsys.readouterr().err
    assert run("crps", "--chips", 2, "--out", ds) == 0
    args = ("metrics", "--in", ds, "--temps", "0", "--seed", -1, "--out", tmp_path / "m.json")
    assert run(*args) == 1
    assert "error: expected non-negative integer" in capsys.readouterr().err


def test_metrics_refuses_merged_temperatures(tmp_path, capsys):
    # the same chips read at 0 degC and at 90 degC in one file: every
    # (chip, challenge) has two reads and no metric can pick one
    for temp in (0, 90):
        assert run("crps", "--chips", 2, "--challenges", 8, "--temp", temp,
                   "--out", tmp_path / f"t{temp}.csv") == 0
    cold, hot = ((tmp_path / f"t{t}.csv").read_text().splitlines() for t in (0, 90))
    merged = tmp_path / "merged.csv"
    merged.write_text("\n".join(cold + hot[1:]) + "\n")
    for command in ("metrics", "attack --chip-id chip000"):
        assert run(*command.split(), "--in", merged, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert "chip 'chip000' has more than one read of challenge 0" in err
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("vdd", [3.3, 1.2])
def test_quantizer_for_another_vdd_is_refused(tmp_path, capsys, vdd):
    spec = tmp_path / "q.json"
    save_spec(lloyd_max(EmpiricalDistribution(np.linspace(0.0, vdd, 2001), vdd), 2), spec)
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
    "MirrorConfig.gain": lambda v: replace(wide_swing_mirror(), gain=v),
    "MirrorConfig.bias_current": lambda v: replace(wide_swing_mirror(), bias_current=v),
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
}


@pytest.mark.parametrize("name", NAN_REFUSERS)
def test_nan_is_refused_by_name(name):
    field = name.split(".")[1]
    with pytest.raises(ValueError, match=f"^{field} must be .*, got nan$"):
        NAN_REFUSERS[name](math.nan)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("crps", "--noise-sigma", "nan"), "noise_sigma must be >= 0, got nan"),
        (("crps", "--gain", "nan"), "gain must be > 0, got nan"),
        (("energy", "--power", "nan"), "power must be >= 0, got nan"),
        (("mc", "--sigma-vth", "-0.01"), "sigma_vth must be >= 0, got -0.01"),
    ],
)
def test_bad_options_fail_before_any_file_is_written(tmp_path, capsys, argv, message):
    assert run(*argv, "--out", tmp_path / "out.csv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["model"]["mirror"].pop("gain"), "MirrorConfig has no 'gain' field"),
        # a null field is a missing one
        (lambda p: p["conditions"].update(noise_sigma=None), "Conditions has no 'noise_sigma' field"),
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


def test_a_quantizer_spec_without_centroids_is_reported(tmp_path, capsys):
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"boundaries": [0.0, 0.9, 1.8], "bits_per_region": [8, 8]}))
    ds = tmp_path / "ds.csv"
    assert run("crps", "--quantizer", spec, "--out", ds) == 1
    assert capsys.readouterr().err == f"error: {spec}: QuantizerSpec has no 'centroids' field\n"
    assert not ds.exists()

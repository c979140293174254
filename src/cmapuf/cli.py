"""Command-line front end.

An option that sets a parameter is parsed under the name of the field it fills (``--temp``
as ``temperature``) in ``VariationConfig``, ``default_model()`` or its mirror, ``Conditions``,
``AdcConfig``, ``LrHyper`` or ``EsHyper``.  ``_record`` fills each from its default instance,
so an option left out takes its record's default.  An option that names a table entry
(``--corner``, ``--mirror``, ``--switching``, ``--encoding``) is parsed into the entry.

Each command writes its output, prints its summary and returns the parameters it ran
with; ``main`` then writes them as the manifest next to the output (``<out>.manifest.json``,
or ``manifest.json`` inside a directory).  A manifest holds every parameter except
``metrics --seed`` (the reliability re-reads' noise seed) and ``attack``'s options from
``LrHyper`` and ``EsHyper`` other than ``--encoding``.  ``codec`` writes and reads them field
by field.  Manifests and outputs
contain no timestamps; the same invocation produces byte-identical files.
``metrics --temps`` and ``attack --model es`` take how a dataset was read
from its ``crps`` manifest, not from options of their own.  No output or output
manifest may land on an input, an input's manifest or the other output
(``_refuse_overwrites``).
"""

from __future__ import annotations

import argparse
import functools
import sys
import typing
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import adc, analog, attack, cellarray, codec, crp, quantizer, variation

# ``mc --samples-out`` formats this many voltages per write, so memory stays bounded.
SAMPLES_CHUNK = 8192


class _Entry(argparse.Action):
    """Holds the entry of its ``choices`` table that argparse has checked the option names."""

    def __call__(self, parser, namespace, name, option_string=None):
        setattr(namespace, self.dest, self.choices[name])


def _add_variation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma-vth", type=float, help="mismatch sigma in volts")
    corners = {c.value.lower(): c for c in variation.ProcessCorner}
    p.add_argument("--corner", type=str.lower, choices=corners, action=_Entry)


def _add_mirror_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mirror", choices=dict(sorted(analog.MIRRORS.items())), action=_Entry)
    p.add_argument("--gain", type=float, help="override the mirror preset gain")


def _add_read_args(p: argparse.ArgumentParser) -> None:
    """Chips, cell model and conditions: what ``mc`` and ``crps`` read cells with."""
    _add_variation_args(p)
    _add_mirror_args(p)
    p.add_argument("--switching", choices=dict(sorted(analog.SWITCHING.items())), action=_Entry)
    p.add_argument("--temp-coeff", type=float)
    p.add_argument("--temp", type=float, dest="temperature", metavar="TEMP",
                   help="read temperature in degC")
    p.add_argument("--noise-sigma", type=float)


def _add_adc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clock", type=float, dest="clock_freq", metavar="CLOCK",
                   help="converter clock in Hz")
    p.add_argument("--power", type=float, help="converter power in W")


def _record(record, args: argparse.Namespace, **given):
    """``record`` with each field that an option, or ``given``, holds replaced."""
    names = {f.name for f in fields(record)}
    return replace(record, **{k: v for k, v in (vars(args) | given).items() if k in names})


def _model(args: argparse.Namespace) -> analog.TransferModel:
    """``default_model()`` with the options' mirror, its gain, switching and temp_coeff."""
    model = analog.default_model()
    mirror = _record(getattr(args, "mirror", model.mirror), args)  # the preset, then its gain
    return _record(model, args, mirror=mirror)


@dataclass(frozen=True)
class CrpsParameters:
    """How every record of a ``crps`` dataset was read, as its manifest records it.

    The challenge words are [0, challenges), within the array's 256 cells, and the
    quantizer must span the [0, vdd] the cell and converter run at.
    """

    variation: variation.VariationConfig
    chips: int
    challenges: int
    model: analog.TransferModel
    quantizer: quantizer.QuantizerSpec
    adc: adc.AdcConfig
    conditions: analog.Conditions

    def __post_init__(self) -> None:
        codec.check_range("chips", self.chips, 1, integer=True)
        codec.check_range("challenges", self.challenges, 1, 1 << cellarray.CHALLENGE_BITS,
                          integer=True)
        if not self.quantizer.vdd == self.model.vdd == self.adc.vdd:
            raise ValueError(
                f"the quantizer spans [0, {self.quantizer.vdd}] V, but the cell runs at "
                f"vdd {self.model.vdd} V and the converter at {self.adc.vdd} V"
            )


@dataclass(frozen=True)
class CrpsManifest:
    command: str
    parameters: CrpsParameters


def _split(text: str | None, parse, option: str, needs: str, count: int | None = None):
    """``text``'s comma-separated values, or None for None; a bad one or count names ``option``."""
    if text is None:
        return None
    try:
        values = [parse(x) for x in text.split(",")]
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        raise ValueError(f"{option} needs {needs}, got {text!r}")
    return values


def _manifest(path: str | Path) -> Path:
    """The manifest of the file or directory ``path``."""
    path = Path(path)
    return path / "manifest.json" if path.is_dir() else Path(str(path) + ".manifest.json")


def _refuse_overwrites(args: argparse.Namespace, inputs: dict[str, str | Path | None]) -> None:
    """Refuse, before any work, an output that would replace a file the command reads or
    writes: ``--out``, its manifest and any ``--samples-out`` must each resolve to none of
    ``inputs`` (option to path, None where not given), their manifests and each other.
    The error names both options."""
    files = [(option, path) for option, path in inputs.items() if path is not None]
    files += [(f"{option}'s manifest", _manifest(path)) for option, path in files]
    owners = {Path(path).resolve(): option for option, path in files}
    outputs = [("--out", args.out), ("--out's manifest", _manifest(args.out))]
    outputs += [("--samples-out", args.samples_out)] if getattr(args, "samples_out", None) else []
    for option, path in outputs:
        owner = owners.setdefault(Path(path).resolve(), option)
        if owner != option:
            raise ValueError(f"{option} would overwrite {owner}: both are {path}")


def _crps_parameters(infile: str) -> CrpsParameters:
    """How the dataset ``infile`` was read, from the manifest ``crps`` wrote next to it."""
    path = _manifest(infile)
    if not path.exists():
        raise ValueError(f"{infile} has no crps manifest: {path} is missing")
    return codec.read_json(path, CrpsManifest).parameters


def cmd_synth(args: argparse.Namespace) -> dict:
    config = _record(variation.VariationConfig(), args)
    chips = variation.synth_population(config, args.chips)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for chip in chips:
        name = f"{chip.chip_id}.json"
        codec.write_json(out / name, chip)
        names.append(name)
    print(f"synthesized {len(chips)} chips at corner {config.corner.value} into {out}")
    return {"variation": config, "chips": args.chips, "files": names}


def cmd_mc(args: argparse.Namespace) -> dict:
    _refuse_overwrites(args, {})
    codec.check_range("samples", args.samples, 1)
    codec.check_range("bins", args.bins, 2)
    config = _record(variation.VariationConfig(), args)
    model = _model(args)
    cond = _record(analog.Conditions(), args)
    rng = np.random.default_rng(config.seed)
    dvth = rng.normal(0.0, config.sigma_vth, size=(args.samples, 4))
    noise = None
    if cond.noise_sigma > 0.0:
        noise = rng.normal(0.0, cond.noise_sigma, size=args.samples)
    offset = model.switching.offset(config.corner)
    with np.errstate(over="ignore", invalid="ignore"):  # a finite option can still overflow
        delta = analog.effective_mismatch(model, dvth, offset, cond.temperature, noise)
        volts = analog.transfer_array(model, delta)
    codec.check_range("v_out", volts)

    counts, edges = np.histogram(volts, bins=args.bins, range=(0.0, model.vdd))
    centers = 0.5 * (edges[:-1] + edges[1:])
    codec.write_csv(args.out, ("bin_center", "count"), zip(centers.tolist(), counts.tolist()))
    if args.samples_out:
        with open(args.samples_out, "w", encoding="utf-8") as fh:
            for start in range(0, volts.size, SAMPLES_CHUNK):
                chunk = volts[start : start + SAMPLES_CHUNK].tolist()
                fh.write("\n".join(map(repr, chunk)) + "\n")
    lo_rail = float((volts < 0.1 * model.vdd).mean())
    hi_rail = float((volts > 0.9 * model.vdd).mean())
    print(
        f"{args.samples} samples: {100 * lo_rail:.1f}% in the bottom decile, "
        f"{100 * hi_rail:.1f}% in the top decile"
    )
    return {
        "model": model,
        "conditions": cond,
        "corner": config.corner,
        "sigma_vth": config.sigma_vth,
        "seed": config.seed,
        "samples": args.samples,
        "bins": args.bins,
    }


def cmd_fit_quantizer(args: argparse.Namespace) -> dict:
    _refuse_overwrites(args, {"--samples": args.samples})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data": refused below
        try:
            samples = np.loadtxt(args.samples, ndmin=1, encoding="utf-8")
        except ValueError as exc:  # numpy's message names the row, not the file
            raise ValueError(f"{args.samples}: {exc}") from None
    if not samples.size:
        raise ValueError(f"{args.samples} holds no samples")
    dist = quantizer.EmpiricalDistribution(samples=samples, vdd=analog.VDD_DEFAULT)
    bits = _split(args.bits, int, "--bits", "comma-separated integers")
    spec = quantizer.lloyd_max(
        dist, args.k, tol=args.tol, max_iter=args.max_iter, bits_per_region=bits
    )
    codec.write_json(args.out, spec)
    pretty = ", ".join(f"{b:.4f}" for b in spec.boundaries)
    print(f"fitted {spec.k} regions: boundaries [{pretty}]")
    return {
        "samples": str(args.samples),
        "n_samples": int(samples.size),
        "k": args.k,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "vdd": analog.VDD_DEFAULT,
        "spec": spec,
    }


def cmd_crps(args: argparse.Namespace) -> CrpsParameters:
    _refuse_overwrites(args, {"--quantizer": args.quantizer})
    params = CrpsParameters(
        variation=_record(variation.VariationConfig(), args),
        chips=args.chips,
        challenges=args.challenges,
        model=_model(args),
        quantizer=(
            codec.read_json(args.quantizer, quantizer.QuantizerSpec)
            if args.quantizer
            else quantizer.default_regions()
        ),
        adc=_record(adc.AdcConfig(), args),
        conditions=_record(analog.Conditions(), args),
    )
    chips = variation.synth_population(params.variation, params.chips)
    words = list(range(params.challenges))
    dataset = crp.generate(
        chips, params.model, params.quantizer, params.adc, words, params.conditions
    )
    out = Path(args.out)
    (crp.save_jsonl if out.suffix == ".jsonl" else crp.save_csv)(dataset, out)
    print(f"wrote {len(dataset)} records ({args.chips} chips x {args.challenges} challenges)")
    return params


def _load_dataset(path: Path) -> crp.CrpDataset:
    return crp.load_jsonl(path) if path.suffix == ".jsonl" else crp.load_csv(path)


def cmd_metrics(args: argparse.Namespace) -> dict:
    _refuse_overwrites(args, {"--in": args.infile})
    temps = _split(args.temps, float, "--temps", "comma-separated degC")
    dataset = _load_dataset(Path(args.infile))
    multi = len(dataset.chip_ids) >= 2
    uniq = crp.uniqueness(dataset) if multi else None
    uniq_code = crp.uniqueness(dataset, code_bits=True) if multi else None
    aliasing = tuple(crp.bit_aliasing(dataset).tolist()) if multi else None
    uniformities = crp.uniformity(dataset)

    reliabilities: dict[str, float] = {}
    if temps is not None:
        params = _crps_parameters(args.infile)
        chips = variation.synth_population(params.variation, params.chips)
        conds = [replace(params.conditions, temperature=t, noise_seed=args.seed) for t in temps]
        chips = [chip for chip in chips if chip.chip_id in uniformities]
        if chips:
            values = crp.reliability(chips, params.model, params.quantizer, params.adc, conds)
            reliabilities = {chip.chip_id: v for chip, v in zip(chips, values)}
    report = crp.MetricsReport(
        uniqueness=uniq,
        uniformity=uniformities,
        bit_aliasing=aliasing,
        reliability=reliabilities,
        uniqueness_code_bits=uniq_code,
    )
    codec.write_json(args.out, report)
    if uniq is not None:
        print(f"uniqueness {uniq:.4f} over {len(uniformities)} chips")
    print(f"mean uniformity {float(np.mean(list(uniformities.values()))):.4f}")
    if reliabilities:
        print(f"mean reliability {float(np.mean(list(reliabilities.values()))):.4f}")
    return {"infile": str(args.infile), "temps": args.temps}


# Each attacker's record: each field is an option of that attacker alone, but ``seed``,
# which ``attack --seed`` fills.  An option left out is absent from ``args``.
ATTACKER_OPTIONS = {"lr": attack.LrHyper, "es": attack.EsHyper}


def _refuse_other_attackers_options(args: argparse.Namespace) -> None:
    """Refuse an option given to the attacker that ``--model`` does not name."""
    for model, record in ATTACKER_OPTIONS.items():
        given = [f.name for f in fields(record) if f.name != "seed" and f.name in args]
        if model != args.model and given:
            flag = "--" + given[0].replace("_", "-")
            raise ValueError(f"{flag} is an option of --model {model}, not of --model {args.model}")


def cmd_attack(args: argparse.Namespace) -> dict:
    _refuse_overwrites(args, {"--in": args.infile})
    _refuse_other_attackers_options(args)
    dataset = _load_dataset(Path(args.infile))
    ids = dataset.chip_ids
    chip_id = args.chip_id
    if chip_id is None:
        if len(ids) != 1:
            raise ValueError(f"dataset has chips {ids}; pick one with --chip-id")
        chip_id = ids[0]
    single = dataset.take(dataset.chip_id == chip_id)
    if not len(single):
        raise ValueError(f"no records for chip {chip_id!r}")
    train, test = attack.split(single, args.train_frac, seed=args.seed)

    hyper = _record(ATTACKER_OPTIONS[args.model](), args)  # --seed seeds the split and ES
    if args.model == "lr":
        fitted = attack.lr_train(train, hyper)
        predict = lambda words: attack.lr_predict(fitted, words)
        detail = {"encoding": hyper.encoding.value, "final_loss": fitted.loss_history[-1].tolist()}
    else:
        params = _crps_parameters(args.infile)
        model, spec, adc_config = params.model, params.quantizer, params.adc
        clone = attack.es_fit(train, model, spec, adc_config, hyper)
        predict = lambda words: attack.clone_bits(clone.params, model, spec, adc_config, words)
        detail = {"fitness": clone.fitness}
    report = attack.attack_report(train, test, predict)

    accuracies = (report.train_bit_accuracy, report.test_bit_accuracy, report.chance_bit_accuracy)
    rows = ((i, *row) for i, row in enumerate(zip(*accuracies)))
    codec.write_csv(args.out, ("bit_index", "train_acc", "test_acc", "chance"), rows)
    print(
        f"{args.model} on {chip_id} ({len(train)} train / {len(test)} test records): "
        f"word accuracy train {report.train_word_accuracy:.4f}, "
        f"test {report.test_word_accuracy:.4f} "
        f"(mean bit acc {report.mean_test_bit_accuracy:.4f}, "
        f"chance {report.mean_chance_bit_accuracy:.4f})"
    )
    return {
        "infile": str(args.infile),
        "chip_id": chip_id,
        "model": args.model,
        "encoding": detail.get("encoding"),
        "train_frac": args.train_frac,
        "seed": args.seed,
        "detail": detail,
        "report": report,
    }


def cmd_energy(args: argparse.Namespace) -> dict:
    adc_config = _record(adc.AdcConfig(), args)
    header = ("name", "power_w", "clock_hz", "quoted_energy_j", "computed_energy_j", "consistent")
    rows = [
        (row.name, row.power_w, row.clock_hz, row.quoted_energy_j, row.computed_energy_j,
         "true" if row.consistent else "false")
        for row in adc.COMPARISON_ROWS
    ]
    codec.write_csv(args.out, header, rows)
    for bits in sorted(set(quantizer.DEFAULT_BITS)):
        e = adc.conversion_energy(adc_config, bits)
        print(f"{bits}-bit conversion: {adc.conversion_cycles(bits)} cycles, {e * 1e12:.3f} pJ")
    on, idle = (cellarray.static_power(analog.default_model(), w) for w in (0, None))
    print(f"array static power: {on * 1e6:.2f} uW with a cell selected, {idle:g} W idle")
    flagged = [row.name for row in adc.COMPARISON_ROWS if not row.consistent]
    if flagged:
        print(f"quoted figures inconsistent with power/clock: {', '.join(flagged)}")
    return {"clock": adc_config.clock_freq, "power": adc_config.power}


def cmd_curve(args: argparse.Namespace) -> dict:
    model = _model(args)
    lo, hi = _split(args.range, float, "--range", "lo,hi in volts", 2)
    # an overflowing hi - lo makes the first delta, and so its volts, NaN
    with np.errstate(over="ignore", invalid="ignore"):
        deltas, volts = analog.transfer_curve(model, lo, hi, args.points)
    codec.check_range("v_out", volts)
    codec.write_csv(args.out, ("delta_v", "v_out"), zip(deltas.tolist(), volts.tolist()))
    print(f"wrote {args.points} curve points for gain {model.mirror.gain:g}")
    return {"model": model, "range": [lo, hi], "points": args.points}


@functools.cache  # built once per process: each parse starts from a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmapuf",
        description="Simulate and analyse a current-mirror-array analog PUF.",
    )
    # an option left out leaves no attribute, so its record keeps its own default; options
    # are spelled out, so a prefix such as `attack --gen 10` is refused
    add_parser = functools.partial(
        parser.add_subparsers(dest="command", required=True).add_parser,
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )

    p = add_parser("synth", help="synthesize chip mismatch files")
    _add_variation_args(p)
    p.add_argument("--chips", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = add_parser("mc", help="Monte Carlo histogram of cell output voltages")
    _add_read_args(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--out", required=True, help="histogram CSV")
    p.add_argument("--samples-out", default=None, help="also dump raw samples, one per line")
    p.set_defaults(func=cmd_mc)

    p = add_parser("fit-quantizer", help="fit region boundaries to a sample file")
    p.add_argument("--samples", required=True, help="text file, one voltage per line")
    p.add_argument("--k", type=int, default=len(quantizer.DEFAULT_BITS))
    p.add_argument(
        "--bits",
        default=None,
        help="comma-separated bits per region (default: the 8,7,6,7,8 table "
        "for k=5, 8 bits everywhere otherwise)",
    )
    p.add_argument("--tol", type=float, default=quantizer.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=quantizer.DEFAULT_MAX_ITER)
    p.add_argument("--out", required=True, help="quantizer spec JSON")
    p.set_defaults(func=cmd_fit_quantizer)

    p = add_parser("crps", help="generate a challenge-response dataset")
    _add_read_args(p)
    p.add_argument("--noise-seed", type=int, help="base of every record's noise seed")
    _add_adc_args(p)
    p.add_argument("--quantizer", type=Path, default=None, help="quantizer spec JSON")
    p.add_argument("--chips", type=int, default=1)
    p.add_argument("--challenges", type=int, default=1 << cellarray.CHALLENGE_BITS,
                   help="use challenge words [0, N)")
    p.add_argument("--out", required=True, help=".csv or .jsonl")
    p.set_defaults(func=cmd_crps)

    p = add_parser("metrics", help="quality metrics of a dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--temps", default=None, help="comma-separated degC for reliability")
    p.add_argument("--seed", type=int, default=analog.Conditions.noise_seed,
                   help="noise seed for reliability re-reads")
    p.add_argument("--out", required=True, help="report JSON")
    p.set_defaults(func=cmd_metrics)

    p = add_parser("attack", help="model one chip from its dataset (es reads its manifest)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chip-id", default=None)
    p.add_argument("--model", choices=list(ATTACKER_OPTIONS), default="lr")
    p.add_argument("--train-frac", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    for model, record in ATTACKER_OPTIONS.items():
        kinds = typing.get_type_hints(record)
        for f in (f for f in fields(record) if f.name != "seed"):
            kind, default = kinds[f.name], getattr(f.default, "value", f.default)
            parse = ({"choices": {e.value: e for e in kind}, "action": _Entry}
                     if issubclass(kind, Enum) else {"type": kind})
            p.add_argument("--" + f.name.replace("_", "-"), **parse,
                           help=f"{model} only (default {default})")
    p.add_argument("--out", required=True, help="report CSV")
    p.set_defaults(func=cmd_attack)

    p = add_parser("energy", help="per-cycle energy comparison table")
    _add_adc_args(p)
    p.add_argument("--out", required=True, help="comparison CSV")
    p.set_defaults(func=cmd_energy)

    p = add_parser("curve", help="transfer characteristic samples")
    _add_mirror_args(p)
    p.add_argument("--range", default="-0.05,0.05", help="imbalance range lo,hi in volts")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", required=True, help="curve CSV")
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parameters = args.func(args)
        codec.write_json(_manifest(args.out), {"command": args.command, "parameters": parameters})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

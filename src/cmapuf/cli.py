"""Command-line front end.

Every writing command drops a manifest next to its output (``<out>.manifest.json``,
or ``manifest.json`` inside a directory) holding the fully resolved
parameters, so any output file can be regenerated from its manifest alone.
``codec`` writes and reads them field by field.  Manifests and outputs
contain no timestamps; the same invocation produces byte-identical files.
``metrics --temps`` and ``attack --model es`` take how a dataset was read
from its ``crps`` manifest, not from options of their own.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import adc, analog, attack, codec, crp, quantizer, variation

MIRRORS = {
    "wide": analog.wide_swing_mirror,
    "reduced": analog.reduced_headroom_mirror,
    "simple": analog.simple_cascode_mirror,
}


def _add_variation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-vth", type=float, default=0.030, help="mismatch sigma in volts")
    p.add_argument(
        "--corner",
        type=str.lower,
        choices=[c.value.lower() for c in variation.ProcessCorner],
        default="tt",
    )


def _add_mirror_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mirror", choices=sorted(MIRRORS), default="wide")
    p.add_argument("--gain", type=float, default=None, help="override the mirror preset gain")


def _add_read_args(p: argparse.ArgumentParser) -> None:
    """Chips, cell model and conditions: what ``mc`` and ``crps`` read cells with."""
    _add_variation_args(p)
    _add_mirror_args(p)
    p.add_argument("--switching", choices=["gated", "naive"], default="gated")
    p.add_argument("--temp-coeff", type=float, default=analog.DEFAULT_TEMP_COEFF)
    p.add_argument("--temp", type=float, default=25.0, help="read temperature in degC")
    p.add_argument("--noise-sigma", type=float, default=0.0)


def _add_adc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clock", type=float, default=6.4e9, help="converter clock in Hz")
    p.add_argument("--power", type=float, default=306.54e-6, help="converter power in W")


def _variation_config(args: argparse.Namespace) -> variation.VariationConfig:
    return variation.VariationConfig(
        sigma_vth=args.sigma_vth,
        corner=variation.ProcessCorner(args.corner.upper()),
        seed=args.seed,
    )


def _mirror(args: argparse.Namespace) -> analog.MirrorConfig:
    mirror = MIRRORS[args.mirror]()
    return mirror if args.gain is None else replace(mirror, gain=args.gain)


def _model(args: argparse.Namespace) -> analog.TransferModel:
    switching = (
        analog.naive_switching() if args.switching == "naive" else analog.power_gated_switching()
    )
    return analog.TransferModel(_mirror(args), switching, temp_coeff=args.temp_coeff)


def _conditions(args: argparse.Namespace, noise_seed: int = 0) -> analog.Conditions:
    return analog.Conditions(
        temperature=args.temp, noise_sigma=args.noise_sigma, noise_seed=noise_seed
    )


def _adc_config(args: argparse.Namespace) -> adc.AdcConfig:
    return adc.AdcConfig(clock_freq=args.clock, power=args.power)


@dataclass(frozen=True)
class CrpsParameters:
    """How every record of a ``crps`` dataset was read, as its manifest records it.

    The quantizer must span the [0, vdd] the cell and converter run at.
    """

    variation: variation.VariationConfig
    chips: int
    challenges: int
    model: analog.TransferModel
    quantizer: quantizer.QuantizerSpec
    adc: adc.AdcConfig
    conditions: analog.Conditions

    def __post_init__(self) -> None:
        if not self.quantizer.vdd == self.model.vdd == self.adc.vdd:
            raise ValueError(
                f"the quantizer spans [0, {self.quantizer.vdd}] V, but the cell runs at "
                f"vdd {self.model.vdd} V and the converter at {self.adc.vdd} V"
            )


@dataclass(frozen=True)
class CrpsManifest:
    command: str
    parameters: CrpsParameters


def _write_manifest(out: Path, command: str, parameters: dict | CrpsParameters) -> None:
    target = out / "manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")
    codec.write_json(target, {"command": command, "parameters": parameters})


def _crps_parameters(infile: str) -> CrpsParameters:
    """How the dataset ``infile`` was read, from the manifest ``crps`` wrote next to it."""
    path = Path(str(infile) + ".manifest.json")
    if not path.exists():
        raise ValueError(f"{infile} has no crps manifest: {path} is missing")
    return codec.read_json(path, CrpsManifest).parameters


def cmd_synth(args: argparse.Namespace) -> int:
    config = _variation_config(args)
    chips = variation.synth_population(config, args.chips)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for chip in chips:
        name = f"{chip.chip_id}.json"
        variation.save_chip(chip, out / name)
        names.append(name)
    _write_manifest(
        out, "synth", {"variation": config, "chips": args.chips, "files": names}
    )
    print(f"synthesized {len(chips)} chips at corner {config.corner.value} into {out}")
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"need at least 1 Monte Carlo sample, got {args.samples}")
    if args.bins < 2:
        raise ValueError(f"need at least 2 histogram bins, got {args.bins}")
    config = _variation_config(args)
    model = _model(args)
    cond = _conditions(args)
    rng = np.random.default_rng(config.seed)
    dvth = rng.normal(0.0, config.sigma_vth, size=(args.samples, 4))
    noise = None
    if cond.noise_sigma > 0.0:
        noise = rng.normal(0.0, cond.noise_sigma, size=args.samples)
    offset = model.switching.offset(config.corner)
    delta = analog.effective_mismatch(model, dvth, offset, cond.temperature, noise)
    volts = analog.transfer_array(model, delta)

    counts, edges = np.histogram(volts, bins=args.bins, range=(0.0, model.vdd))
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("bin_center,count\n")
        for c, n in zip(centers, counts):
            fh.write(f"{float(c)!r},{int(n)}\n")
    if args.samples_out:
        with open(args.samples_out, "w") as fh:
            for v in volts:
                fh.write(f"{float(v)!r}\n")
    _write_manifest(
        out,
        "mc",
        {
            "model": model,
            "conditions": cond,
            "corner": config.corner,
            "sigma_vth": config.sigma_vth,
            "seed": config.seed,
            "samples": args.samples,
            "bins": args.bins,
        },
    )
    lo_rail = float((volts < 0.1 * model.vdd).mean())
    hi_rail = float((volts > 0.9 * model.vdd).mean())
    print(
        f"{args.samples} samples: {100 * lo_rail:.1f}% in the bottom decile, "
        f"{100 * hi_rail:.1f}% in the top decile"
    )
    return 0


def cmd_fit_quantizer(args: argparse.Namespace) -> int:
    samples = np.loadtxt(args.samples, ndmin=1)
    dist = quantizer.EmpiricalDistribution(samples=samples, vdd=analog.VDD_DEFAULT)
    if args.bits:
        bits = tuple(int(b) for b in args.bits.split(","))
        if len(bits) != args.k:
            raise ValueError(f"--bits needs {args.k} comma-separated entries, got {args.bits!r}")
    else:
        bits = tuple(quantizer.DEFAULT_BITS) if args.k == 5 else None
    spec = quantizer.lloyd_max(
        dist, args.k, tol=args.tol, max_iter=args.max_iter, bits_per_region=bits
    )
    out = Path(args.out)
    quantizer.save_spec(spec, out)
    _write_manifest(
        out,
        "fit-quantizer",
        {
            "samples": str(args.samples),
            "n_samples": int(samples.size),
            "k": args.k,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "vdd": analog.VDD_DEFAULT,
            "spec": spec,
        },
    )
    pretty = ", ".join(f"{b:.4f}" for b in spec.boundaries)
    print(f"fitted {spec.k} regions: boundaries [{pretty}]")
    return 0


def cmd_crps(args: argparse.Namespace) -> int:
    params = CrpsParameters(
        variation=_variation_config(args),
        chips=args.chips,
        challenges=args.challenges,
        model=_model(args),
        quantizer=(
            quantizer.load_spec(args.quantizer) if args.quantizer else quantizer.default_regions()
        ),
        adc=_adc_config(args),
        conditions=_conditions(args, args.noise_seed),
    )
    chips = variation.synth_population(params.variation, params.chips)
    words = list(range(params.challenges))
    dataset = crp.generate(
        chips, params.model, params.quantizer, params.adc, words, params.conditions
    )
    out = Path(args.out)
    if out.suffix == ".jsonl":
        crp.save_jsonl(dataset, out)
    else:
        crp.save_csv(dataset, out)
    _write_manifest(out, "crps", params)
    print(f"wrote {len(dataset)} records ({args.chips} chips x {args.challenges} challenges)")
    return 0


def _load_dataset(path: Path) -> crp.CrpDataset:
    if path.suffix == ".jsonl":
        return crp.load_jsonl(path)
    return crp.load_csv(path)


def cmd_metrics(args: argparse.Namespace) -> int:
    dataset = _load_dataset(Path(args.infile))
    ids = dataset.chip_ids
    multi = len(ids) >= 2
    uniq = crp.uniqueness(dataset) if multi else None
    code_positions = list(range(adc.REGION_FIELD_BITS, adc.WORD_BITS))
    uniq_code = crp.uniqueness(dataset, bit_positions=code_positions) if multi else None
    aliasing = tuple(crp.bit_aliasing(dataset).tolist()) if multi else None
    uniformities = {c: crp.uniformity(dataset, c) for c in ids}

    reliabilities: dict[str, float] = {}
    if args.temps:
        params = _crps_parameters(args.infile)
        chips = variation.synth_population(params.variation, params.chips)
        conds = [
            replace(params.conditions, temperature=float(t), noise_seed=args.seed)
            for t in args.temps.split(",")
        ]
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
    out = Path(args.out)
    codec.write_json(out, report)
    _write_manifest(out, "metrics", {"infile": str(args.infile), "temps": args.temps})
    if uniq is not None:
        print(f"uniqueness {uniq:.4f} over {len(ids)} chips")
    mean_unif = float(np.mean(list(uniformities.values())))
    print(f"mean uniformity {mean_unif:.4f}")
    if reliabilities:
        print(f"mean reliability {float(np.mean(list(reliabilities.values()))):.4f}")
    return 0


# Each attacker's own options, by argparse dest.  They default to None: one
# not given takes its hyperparameter's default.
ATTACKER_OPTIONS = {
    "lr": ("encoding", "epochs", "learning_rate", "l2"),
    "es": ("generations", "population", "parents"),
}


def _attacker_options(args: argparse.Namespace) -> dict:
    """The options given to ``--model``'s attacker; one of the other attacker's is refused."""
    for model, names in ATTACKER_OPTIONS.items():
        given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
        if model == args.model:
            options = given
        elif given:
            flag = "--" + next(iter(given)).replace("_", "-")
            raise ValueError(f"{flag} is an option of --model {model}, not of --model {args.model}")
    return options


def cmd_attack(args: argparse.Namespace) -> int:
    options = _attacker_options(args)
    dataset = _load_dataset(Path(args.infile))
    ids = dataset.chip_ids
    chip_id = args.chip_id
    if chip_id is None:
        if len(ids) != 1:
            raise ValueError(f"dataset has chips {ids}; pick one with --chip-id")
        chip_id = ids[0]
    single = dataset.for_chip(chip_id)
    train, test = attack.split(single, args.train_frac, seed=args.seed)

    if args.model == "lr":
        encoding = options.pop("encoding", attack.FeatureEncoding.ONE_HOT_CELL.value)
        encoding = attack.FeatureEncoding(encoding)
        fitted = attack.lr_train(train, encoding, attack.LrHyper(**options))
        predict = lambda words: attack.lr_predict(fitted, words)
        detail = {"encoding": encoding.value, "final_loss": fitted.loss_history[-1].tolist()}
    else:
        params = _crps_parameters(args.infile)
        model, spec, adc_config = params.model, params.quantizer, params.adc
        hyper = attack.EsHyper(seed=args.seed, **options)
        clone = attack.es_fit(train, model, spec, adc_config, hyper)
        predict = lambda words: attack.clone_bits(clone.params, model, spec, adc_config, words)
        detail = {"fitness": clone.fitness}
    report = attack.attack_report(train, test, predict)

    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("bit_index,train_acc,test_acc,chance\n")
        for i, (tr, te, ch) in enumerate(
            zip(report.train_bit_accuracy, report.test_bit_accuracy, report.chance_bit_accuracy)
        ):
            fh.write(f"{i},{tr!r},{te!r},{ch!r}\n")
    _write_manifest(
        out,
        "attack",
        {
            "infile": str(args.infile),
            "chip_id": chip_id,
            "model": args.model,
            "encoding": detail.get("encoding"),
            "train_frac": args.train_frac,
            "seed": args.seed,
            "detail": detail,
            "report": report,
        },
    )
    print(
        f"{args.model} on {chip_id} ({len(train)} train / {len(test)} test records): "
        f"word accuracy train {report.train_word_accuracy:.4f}, "
        f"test {report.test_word_accuracy:.4f} "
        f"(mean bit acc {report.mean_test_bit_accuracy:.4f}, "
        f"chance {report.mean_chance_bit_accuracy:.4f})"
    )
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    adc_config = _adc_config(args)
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("name,power_w,clock_hz,quoted_energy_j,computed_energy_j,consistent\n")
        for row in adc.COMPARISON_ROWS:
            fh.write(
                f"{row.name},{row.power_w!r},{row.clock_hz!r},{row.quoted_energy_j!r},"
                f"{row.computed_energy_j!r},{str(row.consistent).lower()}\n"
            )
    _write_manifest(out, "energy", {"clock": args.clock, "power": args.power})
    for bits in sorted(set(quantizer.DEFAULT_BITS)):
        e = adc.conversion_energy(adc_config, bits)
        print(f"{bits}-bit conversion: {adc.conversion_cycles(bits)} cycles, {e * 1e12:.3f} pJ")
    flagged = [row.name for row in adc.COMPARISON_ROWS if not row.consistent]
    if flagged:
        print(f"quoted figures inconsistent with power/clock: {', '.join(flagged)}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    model = replace(analog.default_model(), mirror=_mirror(args))
    lo, hi = (float(x) for x in args.range.split(","))
    deltas, volts = analog.transfer_curve(model, lo, hi, args.points)
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("delta_v,v_out\n")
        for d, v in zip(deltas, volts):
            fh.write(f"{float(d)!r},{float(v)!r}\n")
    _write_manifest(
        out,
        "curve",
        {"model": model, "range": [lo, hi], "points": args.points},
    )
    print(f"wrote {args.points} curve points for gain {model.mirror.gain:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmapuf",
        description="Simulate and analyse a current-mirror-array analog PUF.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize chip mismatch files")
    _add_variation_args(p)
    p.add_argument("--chips", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mc", help="Monte Carlo histogram of cell output voltages")
    _add_read_args(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--out", required=True, help="histogram CSV")
    p.add_argument("--samples-out", default=None, help="also dump raw samples, one per line")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("fit-quantizer", help="fit region boundaries to a sample file")
    p.add_argument("--samples", required=True, help="text file, one voltage per line")
    p.add_argument("--k", type=int, default=5)
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

    p = sub.add_parser("crps", help="generate a challenge-response dataset")
    _add_read_args(p)
    p.add_argument("--noise-seed", type=int, default=0, help="base of every record's noise seed")
    _add_adc_args(p)
    p.add_argument("--quantizer", type=Path, default=None, help="quantizer spec JSON")
    p.add_argument("--chips", type=int, default=1)
    p.add_argument("--challenges", type=int, default=256, help="use challenge words [0, N)")
    p.add_argument("--out", required=True, help=".csv or .jsonl")
    p.set_defaults(func=cmd_crps)

    p = sub.add_parser("metrics", help="quality metrics of a dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--temps", default=None, help="comma-separated degC for reliability")
    p.add_argument("--seed", type=int, default=0, help="noise seed for reliability re-reads")
    p.add_argument("--out", required=True, help="report JSON")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("attack", help="model one chip from its dataset (es reads its manifest)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chip-id", default=None)
    p.add_argument("--model", choices=list(ATTACKER_OPTIONS), default="lr")
    p.add_argument("--train-frac", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    lr, es = attack.LrHyper, attack.EsHyper
    p.add_argument(
        "--encoding",
        choices=[e.value for e in attack.FeatureEncoding],
        help=f"lr only (default {attack.FeatureEncoding.ONE_HOT_CELL.value})",
    )
    p.add_argument("--epochs", type=int, help=f"lr only (default {lr.epochs})")
    p.add_argument("--learning-rate", type=float, help=f"lr only (default {lr.learning_rate})")
    p.add_argument("--l2", type=float, help=f"lr only (default {lr.l2})")
    p.add_argument("--generations", type=int, help=f"es only (default {es.generations})")
    p.add_argument("--population", type=int, help=f"es only (default {es.population})")
    p.add_argument("--parents", type=int, help=f"es only (default {es.parents})")
    p.add_argument("--out", required=True, help="report CSV")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("energy", help="per-cycle energy comparison table")
    _add_adc_args(p)
    p.add_argument("--out", required=True, help="comparison CSV")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("curve", help="transfer characteristic samples")
    _add_mirror_args(p)
    p.add_argument("--range", default="-0.05,0.05", help="imbalance range lo,hi in volts")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", required=True, help="curve CSV")
    p.set_defaults(func=cmd_curve)

    # options are spelled out: a prefix such as `attack --gen 10` is refused
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

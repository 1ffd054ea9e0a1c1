"""Command-line front end.

Exit codes: 0 success, 1 validation/usage error, 2 property violation (a
computed result contradicting a proved bound, e.g. a sum-capacity gap outside
[0, 2] or a genie reconstruction off by more than 1e-9; these must be loudly
machine-visible).

Gains come from --config JSON ({"g12":..., "g13":..., "g23":..., "power":...})
or inline flags; inline wins on conflict with a warning.  --seed falls back to
the TRIWAY_SEED environment variable, then 0; a seed must be >= 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds, experiments, region, sim
from ._version import __version__
from .model import PropertyViolationError, ValidationError, make_config

_DEFAULT_GAINS = {"g12": 1.5, "g13": 1.0, "g23": 0.5, "power": 1.0}
_GENIE_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for property
    # violations here, so usage problems are forced onto exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p: _Parser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON file with g12/g13/g23/power")
    p.add_argument("--g12", type=float, help="user1-user2 gain")
    p.add_argument("--g13", type=float, help="user1-user3 gain")
    p.add_argument("--g23", type=float, help="user2-user3 gain")
    p.add_argument("--power", type=float, help="per-user power budget P")


def _add_output_flags(p: _Parser, default_format: str | None) -> None:
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _config_number(path: str, key: str, value) -> float:
    # JSON true/false arrive as bool, a subclass of int, and strings would be
    # coerced by float(); a config value must already be a JSON number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"config {path}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"config {path}: {key} = {value} is too large") from exc


def _resolve_config(args):
    values = dict(_DEFAULT_GAINS)
    from_file = set()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_obj = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_obj, dict):
            raise ValidationError(f"config {args.config} must be a flat JSON object")
        for key in _DEFAULT_GAINS:
            if key in file_obj:
                values[key] = _config_number(args.config, key, file_obj[key])
                from_file.add(key)
    for key in _DEFAULT_GAINS:
        inline = getattr(args, key.replace("-", "_"))
        if inline is not None:
            if key in from_file:
                print(f"warning: inline --{key} overrides config file value", file=sys.stderr)
            values[key] = inline
    return make_config(values["g12"], values["g13"], values["g23"], values["power"])


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        seed, source = os.environ.get("TRIWAY_SEED", "0"), "TRIWAY_SEED"
        try:
            seed = int(seed)
        except ValueError as exc:
            raise ValidationError(f"TRIWAY_SEED must be an integer, got {seed!r}") from exc
    if seed < 0:  # numpy's seeding rejects negative entropy with a traceback
        raise ValidationError(f"{source} must be >= 0, got {seed}")
    return seed


def _emit(report, args, format: str = "json") -> None:
    """Write a report through experiments.export_report to --out or stdout."""
    text = experiments.export_report(report, format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write to {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_bounds(args) -> int:
    cfg, perm = _resolve_config(args)
    report = bounds.evaluate(cfg)
    if not (0.0 <= report.gap <= 2.0):
        raise PropertyViolationError(f"sum-capacity gap {report.gap} is outside [0, 2]")
    if args.format == "csv":
        _emit(report.as_table(), args, "csv")
    else:
        _emit({**report.as_dict(), "permutation": list(perm.mapping)}, args)
    return 0


def _cmd_region(args) -> int:
    if args.format == "csv":
        raise ValidationError("region output is JSON only")
    cfg, perm = _resolve_config(args)
    reg = region.build_region(cfg)
    sol = region.max_weighted_sum(reg, [1.0] * 6)
    _emit({"region": reg.as_dict(), "sum_rate_lp": sol.as_dict(),
           "permutation": list(perm.mapping)}, args)
    return 0


def _cmd_dof(args) -> int:
    cfg, _ = _resolve_config(args)
    spec = experiments.SweepSpec(p_lo=args.p_lo, p_hi=args.p_hi, points=args.points,
                                 gains=cfg.gains)
    grid = [float(p) for p in experiments.power_grid(spec)]
    names = ("achievable_lower", "outgoing_cutset_sum", "theorem2_upper")  # BoundReport fields
    slopes = tuple(bounds.dof_estimate(cfg.gains, grid, name) for name in names)
    table = experiments.ReportTable(
        kind="dof", header=names, rows=(slopes,),
        meta={"spec": experiments.spec_echo(spec), "version": __version__},
    )
    _emit(table, args, args.format)
    return 0


def _cmd_genie(args) -> int:
    if args.format == "csv":
        raise ValidationError("genie output is JSON only")
    cfg, _ = _resolve_config(args)
    seed = _resolve_seed(args)
    verdict = sim.genie_verdict(cfg, args.variant, args.n, seed)
    _emit(verdict, args)
    if verdict["max_rel_error"] >= _GENIE_TOL:
        raise PropertyViolationError(
            f"genie reconstruction error {verdict['max_rel_error']:.3g} >= {_GENIE_TOL}"
        )
    return 0


def _cmd_simulate(args) -> int:
    cfg, _ = _resolve_config(args)
    seed = _resolve_seed(args)
    if args.pam_order is not None and args.samples is not None:
        raise ValidationError("--pam-order and --samples are mutually exclusive")
    if args.format == "csv" and (args.pam_order is not None or args.samples is not None):
        flag = "--pam-order" if args.pam_order is not None else "--samples"
        raise ValidationError(f"simulate {flag} output is JSON only")
    if args.pam_order is not None:
        ser, throughput = sim.simulate_pnc_relay(cfg, args.pam_order, args.n, seed)
        obj = {"pam_order": args.pam_order, "n": args.n, "seed": seed,
               "ser": ser, "throughput": throughput}
        _emit(obj, args)
        return 0
    if args.samples is not None:
        estimate = sim.estimate_p2p_mi(cfg, "h3", args.samples, seed)
        obj = {"link": "h3", "samples": args.samples, "seed": seed, "estimate": estimate}
        _emit(obj, args)
        return 0
    if args.format == "json":
        raise ValidationError("trace export is CSV only")
    encoders = sim.normalize_power(sim.random_encoders(cfg, n_taps=2, seed=seed), cfg, args.n)
    trace = sim.simulate_network(encoders, cfg, args.n, seed)
    _emit(trace.as_table(), args, "csv")
    return 0


def _cmd_sweep(args) -> int:
    cfg, _ = _resolve_config(args)
    spec = experiments.SweepSpec(p_lo=args.p_lo, p_hi=args.p_hi, points=args.points,
                                 gains=cfg.gains, seed=_resolve_seed(args))
    table = experiments.sweep_snr(spec)
    _emit(table, args, args.format)
    return 0


def _cmd_gap_ensemble(args) -> int:
    spec = experiments.SweepSpec(p_lo=args.p_lo, p_hi=args.p_hi, points=args.points,
                                 ensemble=args.ensemble, seed=_resolve_seed(args))
    stats = experiments.gap_ensemble(spec)
    table = experiments.gap_statistics_table(stats, spec)
    _emit(table, args, args.format)
    if stats.violations > 0:
        raise PropertyViolationError(f"{stats.violations} gap values fell outside [0, 2]")
    return 0


def _cmd_crossover(args) -> int:
    cfg, _ = _resolve_config(args)
    result = experiments.find_crossover(cfg.gains, args.p_lo, args.p_hi)
    table = experiments.crossover_table(result, cfg.gains, args.p_lo, args.p_hi)
    _emit(table, args, args.format)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args keeps no state between calls."""
    parser = _Parser(prog="triway",
                     description="Capacity bounds, rate-region LP, and simulation "
                                 "for the three-user full-duplex Gaussian network")
    parser.add_argument("--version", action="version", version=f"triway {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("bounds", help="every closed-form bound for one configuration")
    _add_config_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("region", help="rate region constraints and the sum-rate LP")
    _add_config_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("dof", help="pre-log slopes of the sum bounds over an SNR grid")
    _add_config_flags(p)
    _add_output_flags(p, "json")
    p.add_argument("--p-lo", type=float, default=1e2)
    p.add_argument("--p-hi", type=float, default=1e8)
    p.add_argument("--points", type=int, default=9)
    p.set_defaults(handler=_cmd_dof)

    p = sub.add_parser("genie", help="verify a genie reconstruction on a simulated run")
    _add_config_flags(p)
    _add_output_flags(p, "json")
    p.add_argument("--variant", choices=("lemma1", "lemma2"), required=True)
    p.add_argument("--n", type=int, default=100, help="block length")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_genie)

    p = sub.add_parser("simulate",
                       help="trace CSV; with --pam-order a relay demo; with --samples an MI estimate")
    _add_config_flags(p)
    _add_output_flags(p, None)  # trace csv, relay and MI json
    p.add_argument("--n", type=int, default=100, help="block length / relay exchanges")
    p.add_argument("--seed", type=int)
    p.add_argument("--pam-order", type=int, help="run the two-way relay demo at this PAM order")
    p.add_argument("--samples", type=int, help="estimate strongest-link mutual information")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="bounds and gap over a log-spaced power grid")
    _add_config_flags(p)
    _add_output_flags(p, "csv")
    p.add_argument("--p-lo", type=float, default=1e2)
    p.add_argument("--p-hi", type=float, default=1e8)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("gap-ensemble", help="gap statistics over random channel draws")
    _add_output_flags(p, "json")
    p.add_argument("--ensemble", type=int, default=10000)
    p.add_argument("--p-lo", type=float, default=0.1)
    p.add_argument("--p-hi", type=float, default=1e4)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_gap_ensemble)

    p = sub.add_parser("crossover", help="power where the genie bounds beat the cut-set sum")
    _add_config_flags(p)
    _add_output_flags(p, "json")
    p.add_argument("--p-lo", type=float, default=0.1)
    p.add_argument("--p-hi", type=float, default=100.0)
    p.set_defaults(handler=_cmd_crossover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 validation/usage error, 2 property violation (a
computed result contradicting a proved bound, e.g. a sum-capacity gap outside
[0, 2] or a genie reconstruction off by more than 1e-9; these must be loudly
machine-visible).

Gains come from --config JSON ({"g12":..., "g13":..., "g23":..., "power":...};
no other key, and none twice) or inline flags; inline wins on conflict with a
warning.  --seed falls back to the TRIWAY_SEED environment variable, then 0; a
seed must be >= 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, experiments, region, sim
from ._version import __version__
from .model import PropertyViolationError, ValidationError, make_config

_DEFAULT_GAINS = {"g12": 1.5, "g13": 1.0, "g23": 0.5, "power": 1.0}
_GENIE_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the negative texts float() reads, so "--g12 -1e-05" passes a value as "--g12=-1e-05"
        # does; argparse's own pattern takes only -1 and -1.5, and no option here looks like one
        self._negative_number_matcher = re.compile(
            r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d[\d_]*)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    # argparse exits 2 on usage errors by default; 2 is reserved for property
    # violations here, so usage problems are forced onto exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _size(text: str) -> int:
    """A size flag's value: int(text), else float(text) where that is finite and integral ("1e6")."""
    with contextlib.suppress(ValueError):
        return int(text)
    with contextlib.suppress(ValueError):
        if float(text).is_integer():  # inf and nan are not
            return int(float(text))
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _config_number(path: str, key: str, value) -> float:
    # every JSON number is read as a float; true, a string or null is not a number
    if not isinstance(value, float):
        raise ValidationError(f"config {path}: {key} must be a number, got {value!r}")
    return value


def _config_object(path: str, pairs: list) -> dict:
    # json keeps the last of a repeated key; a config states each key once
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config {path}: repeated key {key!r}")
        obj[key] = value
    return obj


def _resolve_config(args):
    values, file_obj = dict(_DEFAULT_GAINS), {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                # an integer literal is float(text) too, as on the command line
                file_obj = json.load(fh, parse_int=float,
                                     object_pairs_hook=functools.partial(_config_object, args.config))
        except OSError as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        except ValidationError:  # from _config_object
            raise
        except ValueError as exc:  # JSONDecodeError, bad UTF-8
            raise ValidationError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_obj, dict):
            raise ValidationError(f"config {args.config} must be a flat JSON object")
        unknown = [key for key in file_obj if key not in _DEFAULT_GAINS]
        if unknown:  # a misspelt key would otherwise leave its default in place
            raise ValidationError(f"config {args.config}: unknown key {unknown[0]!r} "
                                  f"(expected {', '.join(_DEFAULT_GAINS)})")
        for key in _DEFAULT_GAINS:
            if key in file_obj:
                values[key] = _config_number(args.config, key, file_obj[key])
    for key in _DEFAULT_GAINS:
        inline = getattr(args, key)
        if inline is not None:
            if key in file_obj:
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


def _cmd_bounds(args, cfg, mapping) -> None:
    report = bounds.evaluate(cfg)
    if args.format == "csv":
        _emit(report.as_table(), args, "csv")
    else:
        _emit({**report.as_dict(), "permutation": list(mapping)}, args)
    if not (0.0 <= report.gap <= 2.0):
        raise PropertyViolationError(f"sum-capacity gap {report.gap} is outside [0, 2]")


def _cmd_region(args, cfg, mapping) -> None:
    reg = region.build_region(cfg)
    _emit({"region": reg.as_dict(), "sum_rate_lp": region.max_weighted_sum(reg),
           "permutation": list(mapping)}, args)


def _cmd_dof(args, cfg, _) -> None:
    spec = experiments.SweepSpec(p_lo=args.p_lo, p_hi=args.p_hi, points=args.points,
                                 gains=cfg.gains)
    table = experiments.ReportTable(
        kind="dof", header=experiments.DOF_FIELDS,
        columns=tuple(np.array([s]) for s in experiments.dof_estimate(spec)),
        meta={"spec": experiments.spec_echo(spec), "version": __version__},
    )
    _emit(table, args, args.format)


def _cmd_genie(args, cfg, _) -> None:
    verdict = sim.genie_verdict(cfg, args.variant, args.n, args.seed)
    _emit(verdict, args)
    if verdict["max_rel_error"] >= _GENIE_TOL:
        raise PropertyViolationError(
            f"genie reconstruction error {verdict['max_rel_error']:.3g} >= {_GENIE_TOL}"
        )


def _cmd_simulate(args, cfg, _) -> None:
    if args.pam_order is not None and args.samples is not None:
        raise ValidationError("--pam-order and --samples are mutually exclusive")
    if args.format == "csv" and (args.pam_order is not None or args.samples is not None):
        flag = "--pam-order" if args.pam_order is not None else "--samples"
        raise ValidationError(f"simulate {flag} output is JSON only")
    if args.pam_order is not None:
        ser, throughput = sim.simulate_pnc_relay(cfg, args.pam_order, args.n, args.seed)
        _emit({"pam_order": args.pam_order, "n": args.n, "seed": args.seed,
               "ser": ser, "throughput": throughput}, args)
    elif args.samples is not None:
        estimate = sim.estimate_p2p_mi(cfg, args.samples, args.seed)
        _emit({"link": "h3", "samples": args.samples, "seed": args.seed, "estimate": estimate}, args)
    elif args.format == "json":
        raise ValidationError("trace export is CSV only")
    else:
        _, trace = sim.simulate_network(cfg, args.n, args.seed)
        _emit(trace.as_table(), args, "csv")


def _cmd_sweep(args, cfg, _) -> None:
    spec = experiments.SweepSpec(p_lo=args.p_lo, p_hi=args.p_hi, points=args.points,
                                 gains=cfg.gains, seed=args.seed)
    _emit(experiments.sweep_snr(spec), args, args.format)


def _cmd_gap_ensemble(args, cfg, _) -> None:
    spec = experiments.SweepSpec(p_lo=args.p_lo, p_hi=args.p_hi, points=args.points,
                                 ensemble=args.ensemble, seed=args.seed)
    stats = experiments.gap_ensemble(spec)
    _emit(experiments.gap_statistics_table(stats, spec), args, args.format)
    if stats.violations > 0:
        raise PropertyViolationError(f"{stats.violations} gap values fell outside [0, 2]")


def _cmd_crossover(args, cfg, _) -> None:
    result = experiments.find_crossover(cfg.gains, args.p_lo, args.p_hi)
    _emit(experiments.crossover_table(result, cfg.gains, args.p_lo, args.p_hi), args, args.format)


def _grid(p_lo: float, p_hi: float, points: int | None = None) -> tuple:
    """--p-lo and --p-hi, then --points where it has a default."""
    flags = (("--p-lo", {"type": float, "default": p_lo, "help": "lowest power (default: %(default)s)"}),
             ("--p-hi", {"type": float, "default": p_hi, "help": "highest power (default: %(default)s)"}))
    return flags if points is None else (*flags, ("--points", {
        "type": _size, "default": points, "help": "log-spaced grid powers (default: %(default)s)"}))


class _Command(NamedTuple):
    help: str
    config: bool  # takes --config and the inline gain flags
    format: str | None  # the --format default
    only: str | None  # the one format it writes, if it writes one only
    flags: tuple  # its own (flag, add_argument keywords), in --help order
    handler: Callable[..., None]  # (args, cfg, mapping); raises to exit 1 or 2


_CONFIG_FLAGS = (
    ("--config", {"metavar": "PATH", "help": "JSON file with g12/g13/g23/power"}),
    # no argparse default: _resolve_config tells an inline value from a config file's
    *((f"--{key}", {"type": float, "help": f"{text} (default: {_DEFAULT_GAINS[key]})"})
      for key, text in (("g12", "user1-user2 gain"), ("g13", "user1-user3 gain"),
                        ("g23", "user2-user3 gain"), ("power", "per-user power budget P"))),
)
_SEED = ("--seed", {"type": int, "help": "RNG seed >= 0 (default: TRIWAY_SEED, then 0)"})
_SUBCOMMANDS = {
    "bounds": _Command("every closed-form bound for one configuration", True, "json", None, (), _cmd_bounds),
    "region": _Command("rate region constraints and the sum-rate LP", True, "json", "json", (), _cmd_region),
    "dof": _Command("pre-log slopes of the sum bounds over an SNR grid", True, "json", None,
                    _grid(1e2, 1e8, 9), _cmd_dof),
    "genie": _Command("verify a genie reconstruction on a simulated run", True, "json", "json", (
        ("--variant", {"choices": ("lemma1", "lemma2"), "required": True}),
        ("--n", {"type": _size, "default": 100, "help": "block length"}),
        _SEED), _cmd_genie),
    # trace csv, relay and MI json: _cmd_simulate checks the format against its mode
    "simulate": _Command("trace CSV; with --pam-order a relay demo; with --samples an MI estimate",
                         True, None, None, (
        ("--n", {"type": _size, "default": 100,
                 "help": "block length / relay exchanges; the trace writes CSV only"}),
        _SEED,
        ("--pam-order", {"type": int, "help": "run the two-way relay demo at this PAM order; "
                                              "writes JSON only"}),
        ("--samples", {"type": _size, "help": "estimate strongest-link mutual information; "
                                            "writes JSON only"})), _cmd_simulate),
    "sweep": _Command("bounds and gap over a log-spaced power grid", True, "csv", None,
                      (*_grid(1e2, 1e8, 9), _SEED), _cmd_sweep),
    "gap-ensemble": _Command("gap statistics over random channel draws", False, "json", None, (
        ("--ensemble", {"type": _size, "default": 10000, "help": "channel draws (default: %(default)s)"}),
        *_grid(0.1, 1e4, 6), _SEED), _cmd_gap_ensemble),
    "crossover": _Command("power where the genie bounds beat the cut-set sum", True, "json", None,
                          _grid(0.1, 100.0), _cmd_crossover),
}


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args keeps no state between calls."""
    parser = _Parser(prog="triway",
                     description="Capacity bounds, rate-region LP, and simulation "
                                 "for the three-user full-duplex Gaussian network")
    parser.add_argument("--version", action="version", version=f"triway {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, row in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        for flag, keywords in (*(_CONFIG_FLAGS if row.config else ()),
                               ("--format", {"choices": ("csv", "json"), "default": row.format,
                                             "help": row.only and f"writes {row.only.upper()} only"}),
                               ("--out", {"metavar": "PATH", "help": "write output here instead of stdout"}),
                               *row.flags):
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    row = _SUBCOMMANDS[args.subcommand]
    try:
        # this order decides which error line an input with two faults gets
        if row.only and args.format != row.only:
            raise ValidationError(f"{args.subcommand} output is {row.only.upper()} only")
        cfg, mapping = _resolve_config(args) if row.config else (None, None)
        if "seed" in args:
            args.seed = _resolve_seed(args)
        row.handler(args, cfg, mapping)
        return 0
    except (ValidationError, OSError, MemoryError) as exc:  # MemoryError: arrays of an accepted size
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded CLI invocations and the check for each output.

An operation is a short list of `Call`s made through `triway.cli.main`.
Every input comes from `default_rng([seed, salt])`, so one seed always gives
the same operations.  Each call's check compares the captured stdout with
`oracle`, which does not use triway, or with a property the method must have.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

import oracle
from oracle import CheckError, close, require

GENIE_TOL = 1e-9
# block length, ensemble size, sweep points and MI samples per size
SIZES = {
    "full": {"n": 1000, "ensemble": 20000, "points": 300, "samples": 100000},
    "tiny": {"n": 40, "ensemble": 300, "points": 24, "samples": 10000},
}
GAIN_RANGE = (0.3, 3.0)  # |gain| is log-uniform here, with a random sign
POWER_RANGE = (1.0, 1e3)  # power is log-uniform here
SWEEP_RANGE = (1e2, 1e8)  # the CLI's default sweep and dof grid
GAP_GRID = np.logspace(math.log10(0.1), math.log10(1e4), 6)  # the CLI's default gap-ensemble grid
# `crossover` on three equal gains has no crossover in [0.1, 1] and writes NaN
# into its JSON: a fault that every report-mix session meets once.
FAULTY_CROSSOVER = ["crossover", "--g12", "1", "--g13", "1", "--g23", "1", "--p-lo", "0.1", "--p-hi", "1"]


class KnownFault(CheckError):
    """The output shows the crossover fault that report-mix keeps on purpose."""


@dataclasses.dataclass
class Call:
    argv: list[str]
    check: Callable[[str], None]


@dataclasses.dataclass
class Operation:
    calls: list[Call]
    work: int  # block symbols, ensemble trials or CLI calls


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    salt: int
    unit: str
    nominal_op_s: float  # planned normalized seconds per op; fixes the op count
    reference: str  # the reference computation whose work matches this workload's
    build: Callable[[np.random.Generator, dict], Operation]

    def op_count(self, seconds: float) -> int:
        return max(3, round(seconds / self.nominal_op_s))

    def operations(self, seed: int, count: int, size: str = "full") -> list[Operation]:
        rng = np.random.default_rng([seed, self.salt])
        return [self.build(rng, SIZES[size]) for _ in range(count)]


def _config(rng) -> tuple[list[str], tuple[float, float, float], float]:
    lo, hi = (math.log10(v) for v in GAIN_RANGE)
    g = 10.0 ** rng.uniform(lo, hi, 3) * rng.choice([-1.0, 1.0], 3)
    P = float(10.0 ** rng.uniform(*(math.log10(v) for v in POWER_RANGE)))
    g12, g13, g23 = (float(v) for v in g)
    flags = [f"--g12={g12!r}", f"--g13={g13!r}", f"--g23={g23!r}", f"--power={P!r}"]
    return flags, oracle.canonical(g12, g13, g23), P


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


# ------------------------------------------------------------------- checks

_TOL_REL = 1e-12
_CSV_ABS = 6e-7  # CSV prints 6 decimals


def _check_echo(obj: dict, h, P) -> None:
    for key, want in (("g12", h[2]), ("g13", h[1]), ("g23", h[0]), ("power", P)):
        require(obj[key] == want, f"config echo {key}={obj[key]!r}, want {want!r}")


def check_bounds_json(text: str, h, P) -> None:
    obj = oracle.strict_json(text)
    f = oracle.closed_forms(*h, P)
    _check_echo(obj["config"], h, P)
    for key, value in obj["cutset"].items():
        close(value, f[key], _TOL_REL, 1e-14, f"cutset.{key}")
    for key in ("lemma1", "lemma2", "theorem2_upper", "tightened_upper", "achievable_lower",
                "gap", "relay_lattice_rate", "relay_direct_rate"):
        close(obj[key], f[key], _TOL_REL, 1e-13, key)
    require(obj["relay_improves"] is bool(f["relay_improves"]), "relay_improves disagrees")
    require(0.0 <= obj["gap"] <= 2.0, f"gap {obj['gap']} outside [0, 2]")
    require(sorted(obj["permutation"]) == [1, 2, 3], "permutation is not a relabeling")


_BOUNDS_CSV = ("g12,g13,g23,power,out1,in1,out2,in2,out3,in3,lemma1,lemma2,theorem2_upper,"
               "tightened_upper,achievable_lower,gap,relay_lattice_rate,relay_direct_rate,"
               "relay_improves").split(",")


def check_bounds_csv(text: str, h, P) -> None:
    header, rows = oracle.finite_csv(text)
    require(header == _BOUNDS_CSV and rows.shape[0] == 1, "bounds CSV layout")
    f = oracle.closed_forms(*h, P)
    f.update(g12=h[2], g13=h[1], g23=h[0], power=P)
    for key, value in zip(header, rows[0]):
        close(value, f[key], 1e-12, _CSV_ABS, f"bounds csv {key}")
    require(0.0 <= rows[0][header.index("gap")] <= 2.0, "gap outside [0, 2]")


def check_region(text: str, h, P, lp_checks: list) -> None:
    obj = oracle.strict_json(text)
    f = oracle.closed_forms(*h, P)
    cons = obj["region"]["constraints"]
    for c in cons:
        close(c["rhs"], f[c["label"].removeprefix("cutset.")], _TOL_REL, 1e-14, c["label"])
    sol = obj["sum_rate_lp"]
    require(sol["status"] == "optimal", f"LP status {sol['status']}")
    r = np.array([sol["optimizer"][k] for k in obj["region"]["rate_order"]])
    A = np.array([c["coeffs"] for c in cons])
    b = np.array([c["rhs"] for c in cons])
    require(bool(np.all(r >= -1e-9) and np.all(A @ r <= b + 1e-9)), "LP optimizer is infeasible")
    close(float(r.sum()), sol["optimal_value"], 1e-12, 1e-12, "LP value vs optimizer")
    lp_checks.append((cons, sol["optimal_value"]))  # linprog runs after the timed phase


def check_lps(lp_checks: list) -> None:
    """Every region's LP value against linprog, in one solve."""
    if lp_checks:
        values = [value for _, value in lp_checks]
        close(values, oracle.lp_max_sums([cons for cons, _ in lp_checks]), 0.0, 1e-9, "LP value vs linprog")


_SWEEP_COLS = ("out1", "out2", "out3", "outgoing_cutset_sum", "lemma1", "lemma2",
               "theorem2_upper", "tightened_upper", "achievable_lower")


def _check_sweep_rows(header, rows, h, points, rel, abs_) -> None:
    require(list(header) == ["P", *_SWEEP_COLS, "gap"], f"sweep header {header}")
    rows = np.asarray(rows, dtype=float)
    require(rows.shape[0] == points, f"sweep has {rows.shape[0]} rows, want {points}")
    grid = np.logspace(math.log10(SWEEP_RANGE[0]), math.log10(SWEEP_RANGE[1]), points)
    f = oracle.closed_forms(*h, grid)
    for key, column in zip(header, rows.T):
        close(column, f[key], rel, abs_, f"sweep {key}")
    require(bool(np.all((rows[:, -1] >= 0.0) & (rows[:, -1] <= 2.0))), "sweep gap outside [0, 2]")


def check_sweep_csv(text: str, h, points) -> None:
    header, rows = oracle.finite_csv(text)
    _check_sweep_rows(header, rows, h, points, 1e-12, _CSV_ABS)


def check_sweep_json(text: str, h, points) -> None:
    obj = oracle.strict_json(text)
    require(obj["kind"] == "sweep", "sweep kind")
    _check_sweep_rows(obj["header"], obj["rows"], h, points, _TOL_REL, 1e-13)


def check_dof(text: str, h) -> None:
    obj = oracle.strict_json(text)
    grid = [float(p) for p in np.logspace(math.log10(SWEEP_RANGE[0]), math.log10(SWEEP_RANGE[1]), 9)]
    slopes = dict(zip(obj["header"], obj["rows"][0]))
    for key, dof in (("theorem2_upper", 2.0), ("achievable_lower", 2.0), ("outgoing_cutset_sum", 3.0)):
        close(slopes[key], dof, 0.0, 0.05, f"dof slope {key}")
        close(slopes[key], oracle.dof_slope(*h, grid, key), 1e-9, 1e-9, f"dof fit {key}")


def check_crossover(text: str, h, p_lo, p_hi) -> None:
    obj = oracle.strict_json(text)
    p_star, code = obj["rows"][0][:2]
    status = obj["meta"]["status"]
    if status == "found":
        require(code == 0.0 and p_lo < p_star <= p_hi, f"crossover p* {p_star} outside bracket")
        require(oracle.crossover_margin(*h, p_star) > 0, "lemma sum does not win at p*")
        require(oracle.crossover_margin(*h, p_star * (1 - 2e-6)) <= 0, "lemma sum already wins below p*")
    elif status == "already-crossed":
        require(p_star == p_lo and oracle.crossover_margin(*h, p_lo) > 0, "false already-crossed")
    else:
        raise CheckError(f"crossover status {status!r} on a bracket that holds a crossover")


def check_faulty_crossover(text: str) -> None:
    try:
        obj = oracle.strict_json(text)
    except CheckError as exc:
        if "NaN" in str(exc):
            raise KnownFault(str(exc)) from exc
        raise
    require(obj["meta"]["status"] == "none" and obj["rows"][0][0] is None,
            "equal gains on [0.1, 1] must report no crossover")
    require(oracle.crossover_margin(1.0, 1.0, 1.0, 1.0) <= 0, "oracle finds a crossover below 1")


def check_pam(text: str, seed, n=100) -> None:
    obj = oracle.strict_json(text)
    require((obj["pam_order"], obj["n"], obj["seed"]) == (4, n, seed), "relay echo")
    ser = obj["ser"]
    errors = ser * 2 * n
    require(0.0 <= ser <= 1.0 and abs(errors - round(errors)) < 1e-6, f"symbol error rate {ser}")
    close(obj["throughput"], 2.0 * (1.0 - ser), 1e-12, 0.0, "relay throughput")


def check_mi(text: str, h, P, samples, seed) -> None:
    obj = oracle.strict_json(text)
    require((obj["samples"], obj["seed"]) == (samples, seed), "MI echo")
    close(obj["estimate"], oracle.p2p_mi(h[2], P, samples, seed), 1e-9, 1e-12, "MI vs own draws")
    close(obj["estimate"], oracle.cap(h[2] * h[2] * P), 0.0, 0.05, "MI vs cap(h3^2 P)")


def check_genie(text: str, variant, n, seed) -> None:
    obj = oracle.strict_json(text)
    require((obj["variant"], obj["n"], obj["seed"]) == (variant, n, seed), "genie echo")
    err = obj["max_rel_error"]
    require(0.0 <= err < GENIE_TOL, f"genie {variant} error {err!r} >= {GENIE_TOL}")


_TRACE_CSV = ["i", "x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3"]


def check_trace(text: str, h, P, n, seed) -> None:
    header, rows = oracle.finite_csv(text)
    require(header == _TRACE_CSV and rows.shape[0] == n, "trace CSV layout")
    require(bool(np.array_equal(rows[:, 0], np.arange(1, n + 1))), "trace step column")
    x, y, z = rows[:, 1:4].T, rows[:, 4:7].T, rows[:, 7:10].T
    h1, h2, h3 = h
    tol = _CSV_ABS * (2.0 + abs(h3) + abs(h2) + abs(h1))
    for yj, rhs in ((y[0], h3 * x[1] + h2 * x[2] + z[0]), (y[1], h3 * x[0] + h1 * x[2] + z[1]),
                    (y[2], h2 * x[0] + h1 * x[1] + z[2])):
        require(float(np.max(np.abs(yj - rhs))) <= tol, "trace violates the channel equations")
    encs = oracle.encoders(*h, seed)
    scale, power = oracle.message_scale(h, encs, n, P)
    budget = n * P
    require(bool(np.all(power <= budget * (1 + 1e-9))) and power.max() >= budget * (1 - 1e-9),
            f"expected block power {power} against budget {budget}")
    want = oracle.simulate(h, encs, scale, n, seed)
    require(bool(np.all(np.abs(z - want[6:]) <= _CSV_ABS)), "trace z columns differ from numpy's draws")
    require(bool(np.all(np.abs(rows[:, 1:7].T - want[:6]) <= 1e-6 + 1e-9 * np.abs(want[:6]))),
            "trace differs from the power-normalized causal run")


# -------------------------------------------------------------- workloads

def _genie_block(rng, size) -> Operation:
    flags, h, P = _config(rng)
    seed, n = _seed(rng), size["n"]
    common = ["--n", str(n), "--seed", str(seed), *flags]
    calls = [Call(["genie", "--variant", v, *common], lambda t, v=v: check_genie(t, v, n, seed))
             for v in ("lemma1", "lemma2")]
    calls.append(Call(["simulate", *common], lambda t: check_trace(t, h, P, n, seed)))
    return Operation(calls, work=3 * n)


def _gap_ensemble(rng, size) -> Operation:
    seed, ensemble = _seed(rng), size["ensemble"]

    def check(text: str) -> None:
        obj = oracle.strict_json(text)
        require(obj["kind"] == "gap-ensemble" and obj["meta"]["seed"] == seed, "gap-ensemble echo")
        row = dict(zip(obj["header"], obj["rows"][0]))
        require(row["ensemble"] == ensemble and row["violations"] == 0.0, "gap violations")
        require(0.0 <= row["min_gap"] <= row["mean_gap"] <= row["max_gap"] <= 2.0, "gap order")
        want = oracle.gap_ensemble(seed, ensemble, GAP_GRID)
        for key in ("min_gap", "max_gap", "mean_gap"):
            close(row[key], want[key], 1e-12, 1e-13, key)
        worst = (row["worst_g23"], row["worst_g13"], row["worst_g12"], row["worst_power"])
        close(oracle.closed_forms(*worst)["gap"], want["max_gap"], 1e-12, 1e-13, "worst config gap")
        require(row["worst_power"] == want["worst_power"], "worst config power")

    return Operation([Call(["gap-ensemble", "--ensemble", str(ensemble), "--seed", str(seed)], check)],
                     work=ensemble)


def _report_mix(rng, size, lp_checks: list) -> Operation:
    flags, h, P = _config(rng)
    seed, points, samples = _seed(rng), size["points"], size["samples"]
    sweep = ["sweep", *flags, "--points", str(points)]
    calls = [
        Call(["bounds", *flags], lambda t: check_bounds_json(t, h, P)),
        Call(["bounds", *flags, "--format", "csv"], lambda t: check_bounds_csv(t, h, P)),
        Call(["region", *flags], lambda t: check_region(t, h, P, lp_checks)),
        Call(sweep, lambda t: check_sweep_csv(t, h, points)),
        Call([*sweep, "--format", "json"], lambda t: check_sweep_json(t, h, points)),
        Call(["dof", *flags], lambda t: check_dof(t, h)),
        Call(["crossover", *flags], lambda t: check_crossover(t, h, 0.1, 100.0)),
        Call(["simulate", *flags, "--pam-order", "4", "--seed", str(seed)], lambda t: check_pam(t, seed)),
        Call(["simulate", *flags, "--samples", str(samples), "--seed", str(seed)],
             lambda t: check_mi(t, h, P, samples, seed)),
        Call(FAULTY_CROSSOVER, check_faulty_crossover),
    ]
    return Operation(calls, work=len(calls))


def workloads(lp_checks: list) -> dict[str, Workload]:
    """The three workloads; region checks append their LP to `lp_checks`."""
    return {w.name: w for w in (
        Workload("genie-block", 1, "block symbols", 0.9, "arrays", _genie_block),
        Workload("gap-ensemble", 2, "trials", 0.6, "interpreter", _gap_ensemble),
        Workload("report-mix", 3, "CLI calls", 0.07, "interpreter",
                 lambda rng, size: _report_mix(rng, size, lp_checks)),
    )}

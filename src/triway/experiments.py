"""Batch drivers: SNR sweeps, gap statistics over random channels, the
cut-set/genie crossover search, and `export_report`, the one writer that turns
every report into text.

Every driver is a pure function of (spec, seed).  Ensemble trial t draws from
its own stream default_rng([seed, t]), so statistics are identical whether
trials run serially or in parallel.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import bounds
from ._version import __version__
from .model import ChannelConfig, ChannelGains, ValidationError, canonicalize

# sweep table columns, in emission order: fields of bounds.BoundReport
BOUND_COLUMNS = ("out1", "out2", "out3", "outgoing_cutset_sum", "lemma1", "lemma2",
                 "theorem2_upper", "tightened_upper", "achievable_lower")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    p_lo: float
    p_hi: float
    points: int
    gains: ChannelGains | None = None  # None: standard-normal ensemble, canonicalized
    ensemble: int = 1
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class GapStatistics:
    ensemble: int
    min_gap: float
    max_gap: float
    mean_gap: float
    violations: int  # count of gaps outside [0, 2]; must stay 0
    worst_config: ChannelConfig


@dataclasses.dataclass(frozen=True)
class CrossoverResult:
    p_star: float | None
    status: str  # found | already-crossed | none


@dataclasses.dataclass(frozen=True)
class ReportTable:
    kind: str
    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    meta: dict


def power_grid(spec: SweepSpec) -> np.ndarray:
    for name, value in (("p_lo", spec.p_lo), ("p_hi", spec.p_hi)):
        if not math.isfinite(value):  # before np.logspace, which would warn
            raise ValidationError(f"power bound {name} must be finite, got {value!r}")
    if spec.points < 1:
        raise ValidationError("points must be >= 1")
    if not (0 < spec.p_lo and 0 < spec.p_hi):
        raise ValidationError("power bounds must be positive")
    if spec.points > 1 and not spec.p_lo < spec.p_hi:
        raise ValidationError("power grid must be strictly increasing: need p_lo < p_hi")
    if spec.ensemble < 1:
        raise ValidationError("ensemble size must be >= 1")
    if spec.points == 1:
        return np.array([spec.p_lo])
    with np.errstate(over="ignore"):  # 10**log10(p_hi) can round past the largest double
        grid = np.logspace(math.log10(spec.p_lo), math.log10(spec.p_hi), spec.points)
    if not math.isfinite(grid[-1]):
        raise ValidationError(f"power bound p_hi={spec.p_hi!r} is too large: "
                              "its log-spaced grid point overflows")
    return grid


def spec_echo(spec: SweepSpec) -> dict:
    echo = dataclasses.asdict(spec)
    echo["gains"] = None if spec.gains is None else dataclasses.asdict(spec.gains)
    echo["bounds"] = list(BOUND_COLUMNS)  # the sweep's columns
    return echo


def _meta(spec: SweepSpec) -> dict:
    return {"spec": spec_echo(spec), "seed": spec.seed, "version": __version__}


def sweep_snr(spec: SweepSpec) -> ReportTable:
    """One row per grid power: (P, the BOUND_COLUMNS, gap)."""
    if spec.gains is None:
        raise ValidationError("sweep_snr needs a fixed gain triple")
    grid = power_grid(spec)
    rows = []
    for P in grid:
        b = bounds.evaluate(ChannelConfig(gains=spec.gains, power=float(P)))
        rows.append((float(P), *(getattr(b, name) for name in BOUND_COLUMNS), b.gap))
    return ReportTable(kind="sweep", header=("P", *BOUND_COLUMNS, "gap"),
                       rows=tuple(rows), meta=_meta(spec))


def gap_ensemble(spec: SweepSpec) -> GapStatistics:
    """Sample configurations, evaluate the sum-capacity interval, aggregate gaps.

    Trial t uses gains drawn from default_rng([seed, t]) (or the fixed triple)
    and the grid power at index t mod points, so a large ensemble covers every
    grid power evenly.
    """
    grid = power_grid(spec)
    worst = None
    gaps_min, gaps_max, total, violations = math.inf, -math.inf, 0.0, 0
    for t in range(spec.ensemble):
        if spec.gains is None:
            g = np.random.default_rng([spec.seed, t]).standard_normal(3)
            gains, _ = canonicalize(g[0], g[1], g[2])
        else:
            gains = spec.gains
        cfg = ChannelConfig(gains=gains, power=float(grid[t % len(grid)]))
        _, _, gap = bounds.sum_capacity_interval(cfg)
        if gap < 0.0 or gap > 2.0:
            violations += 1
        total += gap
        gaps_min = min(gaps_min, gap)
        if gap > gaps_max:
            gaps_max, worst = gap, cfg
    return GapStatistics(ensemble=spec.ensemble, min_gap=gaps_min, max_gap=gaps_max,
                         mean_gap=total / spec.ensemble, violations=violations,
                         worst_config=worst)


def gap_statistics_table(stats: GapStatistics, spec: SweepSpec) -> ReportTable:
    cfg = stats.worst_config
    header = ("ensemble", "min_gap", "max_gap", "mean_gap", "violations",
              "worst_g12", "worst_g13", "worst_g23", "worst_power")
    row = (float(stats.ensemble), stats.min_gap, stats.max_gap, stats.mean_gap,
           float(stats.violations), cfg.gains.h3, cfg.gains.h2, cfg.gains.h1, cfg.power)
    return ReportTable(kind="gap-ensemble", header=header, rows=(row,), meta=_meta(spec))


def find_crossover(gains: ChannelGains, p_lo: float, p_hi: float) -> CrossoverResult:
    """Smallest P in [p_lo, p_hi] where the lemma sum beats the outgoing cut-set sum.

    Bisection on d(P) = outgoing cut-set sum - tightened upper, down to a
    bracket 1e-6 wide relative to its top; assumes one sign change inside the
    bracket.  d > 0 already at p_lo reports the bracket as already crossed; no
    sign change reports none.
    """
    if not (0 < p_lo < p_hi) or not (math.isfinite(p_lo) and math.isfinite(p_hi)):
        raise ValidationError(f"invalid bracket [{p_lo!r}, {p_hi!r}]")

    def margin(P: float) -> float:
        b = bounds.evaluate(ChannelConfig(gains=gains, power=P))
        return b.outgoing_cutset_sum - b.tightened_upper

    lo, hi = float(p_lo), float(p_hi)
    if margin(lo) > 0:
        return CrossoverResult(p_star=lo, status="already-crossed")
    if margin(hi) <= 0:
        return CrossoverResult(p_star=None, status="none")
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
    return CrossoverResult(p_star=hi, status="found")


def crossover_table(result: CrossoverResult, gains: ChannelGains,
                    p_lo: float, p_hi: float) -> ReportTable:
    header = ("p_star", "status_code", "g12", "g13", "g23", "p_lo", "p_hi")
    code = {"found": 0.0, "already-crossed": 1.0, "none": 2.0}[result.status]
    p_star = math.nan if result.p_star is None else result.p_star
    row = (p_star, code, gains.h3, gains.h2, gains.h1, float(p_lo), float(p_hi))
    meta = {"status": result.status, "version": __version__}
    return ReportTable(kind="crossover", header=header, rows=(row,), meta=meta)


def export_report(obj, format: str) -> str:
    """The one report writer: returns the exact text a report is written as.

    JSON takes a dict and keeps full float precision, keys sorted.  CSV takes a
    (header, rows) pair and prints a header line plus one line per row: a cell
    of type int or bool as an integer, any other cell (np.int64 included) with
    6 decimals, through one %-format built per distinct row-type signature.  A
    ReportTable is both: its kind, meta, header and rows as JSON, its header
    and rows as CSV.  Identical inputs give identical bytes.
    """
    if isinstance(obj, ReportTable):
        obj = ({"kind": obj.kind, "meta": obj.meta, "header": obj.header, "rows": obj.rows}
               if format == "json" else (obj.header, obj.rows))
    if format == "json":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if format == "csv":
        header, rows = obj
        lines = [",".join(header)]
        formats: dict[tuple[type, ...], str] = {}  # row-type signature -> row format
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = ",".join("%d" if kind in (int, bool) else "%.6f" for kind in kinds)
            lines.append(fmt % row)
        return "\n".join(lines) + "\n"
    raise ValidationError(f"format must be csv or json, got {format!r}")

"""Closed-form rate bounds for the three-user full-duplex Gaussian network.

Every bound is a closed form in (h1^2, h2^2, h3^2, P).  `evaluate` computes
all of them for one ChannelConfig, each distinct cap argument once, and the
named bound functions are views of it.  All rates are in bits per channel
use; cap(x) = 0.5*log2(1+x) fixes the unit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import ChannelConfig, ChannelGains, ValidationError

_LN2 = math.log(2.0)


def cap(x: float) -> float:
    """0.5*log2(1+x) for x >= 0.

    log1p keeps full relative accuracy for tiny x, which the near-zero
    SNR regime needs.
    """
    if math.isnan(x) or x < 0:
        raise ValidationError(f"cap argument must be >= 0, got {x!r}")
    return 0.5 * math.log1p(x) / _LN2


def _cap_of(x: float, *factors: float) -> float:
    """cap(x) for x >= 0 the product of finite factors, finite where x overflows.

    There cap(x) = 0.5 log2(x) + 0.5 log2(1 + 1/x) and the second term is
    below 1e-308, so half the sum of the factors' logs is the value.  Python
    floats, not numpy: np.log1p can differ from math.log1p in the last bit.
    """
    if x < math.inf:
        return 0.5 * math.log1p(x) / _LN2
    return 0.5 * sum(map(math.log2, factors))


@dataclasses.dataclass(frozen=True)
class CutsetBounds:
    """Pair-rate cut-set bounds; outK bounds user K's outgoing pair, inK the incoming.

    Reciprocity makes outK == inK for every user.
    """

    out1: float  # r12 + r13
    in1: float   # r21 + r31
    out2: float  # r21 + r23
    in2: float   # r12 + r32
    out3: float  # r31 + r32
    in3: float   # r13 + r23

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


# the report's scalar fields after the config echo and the cut-sets, in CSV column order
_REPORT_FIELDS = ("lemma1", "lemma2", "theorem2_upper", "tightened_upper", "achievable_lower",
                  "gap", "relay_lattice_rate", "relay_direct_rate", "relay_improves")
# One-row CSV header of the `bounds` report; floats print with 6 decimals,
# relay_improves as 0/1.
REPORT_CSV_HEADER = ",".join(("g12", "g13", "g23", "power",
                              *(f.name for f in dataclasses.fields(CutsetBounds)), *_REPORT_FIELDS))


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound of one configuration, as `evaluate` computes it.

    Reciprocity makes inK == outK, so only the outgoing cut-sets are stored.
    """

    config: ChannelConfig
    out1: float
    out2: float
    out3: float
    outgoing_cutset_sum: float
    lemma1: float
    lemma2: float
    theorem2_upper: float
    tightened_upper: float
    achievable_lower: float
    gap: float
    relay_lattice_rate: float
    relay_direct_rate: float
    relay_improves: bool

    @property
    def cutset(self) -> CutsetBounds:
        return CutsetBounds(self.out1, self.out1, self.out2, self.out2, self.out3, self.out3)

    def as_dict(self) -> dict:
        """The `bounds` JSON report: config echo in pair-gain names, cut-sets, the rest."""
        g = self.config.gains
        obj = {"config": {"g12": g.h3, "g13": g.h2, "g23": g.h1, "power": self.config.power},
               "cutset": self.cutset.as_dict()}
        obj.update((name, getattr(self, name)) for name in _REPORT_FIELDS)
        return obj

    def as_table(self) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
        """The `bounds` CSV report: REPORT_CSV_HEADER and one row."""
        g = self.config.gains
        row = (g.h3, g.h2, g.h1, self.config.power, *self.cutset.as_dict().values(),
               *(getattr(self, name) for name in _REPORT_FIELDS))
        return tuple(REPORT_CSV_HEADER.split(",")), (row,)


def evaluate(cfg: ChannelConfig) -> BoundReport:
    """Every closed-form bound of cfg, each distinct cap argument evaluated once.

    Each value follows its formula's operation order, so it is bit-identical
    to evaluating that formula alone.  h2 = 0 forces h1 = 0 by the ordering;
    the ratio term h1^2/h2^2 is then 0 by convention.  The theorem-2
    candidate exceeds the lower bound by exactly 2 in real arithmetic, so the
    gap takes it as the literal 2.0; computing fl(2c+2) - 2c can overshoot 2
    by one ulp and would falsify the gap invariant spuriously.
    """
    s1, s2, s3 = cfg.gains.squared()
    P = cfg.power
    ratio = 0.0 if s2 == 0.0 else s1 / s2
    out1 = _cap_of((s3 + s2) * P, s3 + s2, P)
    out2 = _cap_of((s3 + s1) * P, s3 + s1, P)
    out3 = _cap_of((s2 + s1) * P, s2 + s1, P)
    lemma1 = out1 + _cap_of(ratio)
    lemma2 = _cap_of(s3 * P * (1.0 + ratio), s3, P, 1.0 + ratio) + 0.5
    lower = 2.0 * _cap_of(s3 * P, s3, P)
    tightened = lemma1 + lemma2
    return BoundReport(
        config=cfg, out1=out1, out2=out2, out3=out3, outgoing_cutset_sum=out1 + out2 + out3,
        lemma1=lemma1, lemma2=lemma2, theorem2_upper=lower + 2.0, tightened_upper=tightened,
        achievable_lower=lower, gap=max(0.0, min(2.0, tightened - lower)),
        # the lattice argument is clamped at 0 where the expression goes negative
        relay_lattice_rate=_cap_of(max(0.0, s2 * P - 0.5), s2, P),
        relay_direct_rate=_cap_of(s1 * P, s1, P),
        relay_improves=s2 >= s1 + 0.5 / P,
    )


def cutset_bounds(cfg: ChannelConfig) -> CutsetBounds:
    """out1 = in1 = cap((h3^2+h2^2)P), out2 = in2 = cap((h3^2+h1^2)P), out3 = in3 = cap((h2^2+h1^2)P)."""
    return evaluate(cfg).cutset


def outgoing_cutset_sum(cfg: ChannelConfig) -> float:
    """Sum of the three outgoing cut-set bounds; scales like 3 degrees of freedom."""
    return evaluate(cfg).outgoing_cutset_sum


def lemma1_bound(cfg: ChannelConfig) -> float:
    """cap(h3^2 P + h2^2 P) + cap(h1^2/h2^2); bounds r21 + r31 + r32."""
    return evaluate(cfg).lemma1


def lemma2_bound(cfg: ChannelConfig) -> float:
    """cap(h3^2 P (1 + h1^2/h2^2)) + 1/2; bounds r12 + r13 + r23."""
    return evaluate(cfg).lemma2


def theorem2_sum_upper(cfg: ChannelConfig) -> float:
    """2 cap(h3^2 P) + 2."""
    return evaluate(cfg).theorem2_upper


def tightened_sum_upper(cfg: ChannelConfig) -> float:
    """lemma1_bound + lemma2_bound; always strictly below theorem2_sum_upper."""
    return evaluate(cfg).tightened_upper


def achievable_sum_lower(cfg: ChannelConfig) -> float:
    """2 cap(h3^2 P): the strongest pair runs a two-way exchange, user 3 stays silent."""
    return evaluate(cfg).achievable_lower


def sum_capacity_interval(cfg: ChannelConfig, lp_upper: float | None = None) -> tuple[float, float, float]:
    """(lower, upper, gap) bracketing the sum capacity.

    upper is the minimum of the closed-form sum bounds (and the rate-region LP
    value when the caller supplies one); see `evaluate` for the literal 2.0.
    """
    b = evaluate(cfg)
    lower, gap = b.achievable_lower, b.gap
    if lp_upper is not None:
        gap = max(0.0, min(2.0, b.tightened_upper - lower, lp_upper - lower))
    return lower, lower + gap, gap


def relay_rates(cfg: ChannelConfig) -> tuple[float, float, bool]:
    """Bi-directional relaying of the weak pair through user 1.

    lattice = cap(max(0, h2^2 P - 1/2)) is the structured-code rate through the
    bottleneck uplink; direct = cap(h1^2 P) is the unaided rate; improves tests
    h2^2 >= h1^2 + 1/(2P).
    """
    b = evaluate(cfg)
    return b.relay_lattice_rate, b.relay_direct_rate, b.relay_improves


def dof_estimate(gains: ChannelGains, power_grid, bound_selector) -> float:
    """Least-squares slope of bound_selector(config) against 0.5*log2(P).

    Fits only the last half of the grid: the low-SNR transient is not the
    asymptote the slope is meant to expose.  Requires >= 8 strictly increasing
    points spanning >= 4 decades.
    """
    grid = [float(p) for p in power_grid]
    if len(grid) < 8:
        raise ValidationError(f"power grid needs >= 8 points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("power grid must be strictly increasing")
    if grid[0] <= 0:
        raise ValidationError("power grid must be positive")
    if grid[-1] / grid[0] < 1e4:
        raise ValidationError("power grid must span at least 4 decades")
    xs, ys = [], []
    for P in grid:
        cfg = ChannelConfig(gains=gains, power=P)
        xs.append(0.5 * math.log2(P))
        ys.append(float(bound_selector(cfg)))
    half = len(grid) // 2
    slope, _ = np.polyfit(xs[half:], ys[half:], 1)
    return float(slope)


def bound_report(cfg: ChannelConfig) -> BoundReport:
    """The report the `bounds` command prints: `evaluate` under its report name."""
    return evaluate(cfg)

"""Closed-form rate bounds for the three-user full-duplex Gaussian network.

Every bound is a closed form in (h1^2, h2^2, h3^2, P).  `evaluate` computes
all of them for one ChannelConfig, each distinct cap argument once, and
returns them as one BoundReport; callers read its fields.  The paper's
bounds are its fields out1..out3 (pair cut-sets), lemma1, lemma2,
theorem2_upper = 2 cap(h3^2 P) + 2 and achievable_lower = 2 cap(h3^2 P).
All rates are in bits per channel use; cap(x) = 0.5*log2(1+x) fixes the unit.
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
    out1: float  # cap((h3^2 + h2^2) P)
    out2: float  # cap((h3^2 + h1^2) P)
    out3: float  # cap((h2^2 + h1^2) P)
    outgoing_cutset_sum: float  # scales like 3 degrees of freedom
    lemma1: float  # cap(h3^2 P + h2^2 P) + cap(h1^2/h2^2); bounds r21 + r31 + r32
    lemma2: float  # cap(h3^2 P (1 + h1^2/h2^2)) + 1/2; bounds r12 + r13 + r23
    theorem2_upper: float  # 2 cap(h3^2 P) + 2
    tightened_upper: float  # lemma1 + lemma2, strictly below theorem2_upper
    achievable_lower: float  # 2 cap(h3^2 P): the strongest pair exchanges, user 3 is silent
    gap: float
    # bi-directional relaying of the weak pair through user 1: the lattice rate
    # cap(max(0, h2^2 P - 1/2)) against the direct cap(h1^2 P); improves tests
    # h2^2 >= h1^2 + 1/(2P)
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


def sum_capacity_interval(cfg: ChannelConfig) -> tuple[float, float, float]:
    """(lower, upper, gap) bracketing the sum capacity.

    upper is the minimum of the closed-form sum bounds; see `evaluate` for the
    literal 2.0.
    """
    b = evaluate(cfg)
    return b.achievable_lower, b.achievable_lower + b.gap, b.gap


def dof_estimate(gains: ChannelGains, power_grid, field: str) -> float:
    """Least-squares slope of the BoundReport field `field` against 0.5*log2(P).

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
        xs.append(0.5 * math.log2(P))
        ys.append(float(getattr(evaluate(ChannelConfig(gains=gains, power=P)), field)))
    half = len(grid) // 2
    slope, _ = np.polyfit(xs[half:], ys[half:], 1)
    return float(slope)

"""Closed-form rate bounds for the three-user full-duplex Gaussian network.

Every bound is a closed form in (h1^2, h2^2, h3^2, h1^2/h2^2) and P.  The
kernel `_bound_terms` computes all of them from those five numbers; `evaluate`
wraps one float call as a BoundReport, and the sweeps and DoF fits of
`experiments` make one array call over their grid.  The paper's bounds are
its fields out1..out3 (pair cut-sets), lemma1, lemma2, theorem2_upper =
2 cap(h3^2 P) + 2 and achievable_lower = 2 cap(h3^2 P).  All rates are in bits
per channel use; cap(x) = 0.5*log2(1+x) fixes the unit.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .model import ChannelConfig

_LN2 = math.log(2.0)


def _cap_of(x: float, *factors: float) -> float:
    """cap(x) for x >= 0 the product of finite factors, finite where x overflows.

    There cap(x) = 0.5 log2(x) + 0.5 log2(1 + 1/x) and the second term is
    below 1e-308, so half the sum of the factors' logs is the value, summed left
    to right: Python 3.12's compensated sum() can differ in the last bit.  Python
    floats, not numpy: np.log1p can differ from math.log1p in the last bit.
    """
    if x < math.inf:
        return 0.5 * math.log1p(x) / _LN2
    return 0.5 * functools.reduce(float.__add__, map(math.log2, factors))


def _cap_array(x, *factors) -> np.ndarray:
    """_cap_of on each entry of x, a float64 array or a float, as a 1-D array, bit for bit:
    math.log1p mapped over x, and _cap_of's log branch with that entry's factors (floats
    or arrays of x's shape) where x overflows."""
    x = np.ravel(x)
    logs = list(map(math.log1p, x.tolist()))
    cap = 0.5 * np.array(logs) / _LN2
    if math.inf in logs:  # the log branch, only where x overflowed
        for i in np.flatnonzero(x == math.inf).tolist():
            cap[i] = _cap_of(math.inf, *(float(np.broadcast_to(f, x.shape)[i]) for f in factors))
    return cap


# the report's six cut-set names in output order, each with the BoundReport field it reads:
# reciprocity makes user K's incoming cut-set inK equal its outgoing one, outK
_CUTSETS = {name: "out" + name[-1] for name in ("out1", "in1", "out2", "in2", "out3", "in3")}


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
    # h2^2 - h1^2 >= 1/(2P), so a 1/(2P) below the last bit of h2^2 cannot round away
    relay_lattice_rate: float
    relay_direct_rate: float
    relay_improves: bool


# BoundReport's fields after config: the layout of the tuple `_bound_terms` returns
_BOUND_FIELDS = tuple(f.name for f in dataclasses.fields(BoundReport))[1:]


def _gap_terms(s1, s2, s3, ratio, P, cap=_cap_of, minimum=min) -> tuple:
    """(out1, lemma1, lemma2, lower, gap): the part of `_bound_terms` the sum-capacity interval needs."""
    out1 = cap((s3 + s2) * P, s3 + s2, P)
    lemma1 = out1 + cap(ratio)
    lemma2 = cap(s3 * P * (1.0 + ratio), s3, P, 1.0 + ratio) + 0.5
    lower = 2.0 * cap(s3 * P, s3, P)
    return out1, lemma1, lemma2, lower, minimum(2.0, lemma1 + lemma2 - lower)


def _bound_terms(s1, s2, s3, ratio, P, cap=_cap_of, minimum=min, maximum=max) -> tuple:
    """BoundReport's fields after config, in order, from ChannelGains.bound_inputs and P; see `evaluate`.
    With _cap_array, np.minimum, np.maximum and np.errstate(over="ignore"), P may be a float64
    array: each field is then an array over it, bit for bit the float call at each power."""
    out1, lemma1, lemma2, lower, gap = _gap_terms(s1, s2, s3, ratio, P, cap, minimum)
    out2 = cap((s3 + s1) * P, s3 + s1, P)
    out3 = cap((s2 + s1) * P, s2 + s1, P)
    return (out1, out2, out3, out1 + out2 + out3, lemma1, lemma2, lower + 2.0, lemma1 + lemma2,
            lower, gap,
            # the lattice argument is clamped at 0 where the expression goes negative
            cap(maximum(0.0, s2 * P - 0.5), s2, P), cap(s1 * P, s1, P), s2 - s1 >= 0.5 / P)


def evaluate(cfg: ChannelConfig) -> BoundReport:
    """Every closed-form bound of cfg: the kernel `_bound_terms` as a BoundReport.

    The kernel evaluates each distinct cap argument once, in Python floats
    with math.log1p, each value in its formula's operation order, so it is
    bit-identical to evaluating that formula alone.  h2 = 0 forces h1 = 0 by
    the ordering; the ratio term h1^2/h2^2 is then 0 by convention, and where
    h2^2 leaves the normal range it is (h1/h2)^2 (`ChannelGains.bound_inputs`).
    The theorem-2 candidate exceeds the lower bound by exactly 2 in real
    arithmetic, so the gap takes it as the literal 2.0; computing
    fl(2c+2) - 2c can overshoot 2 by one ulp and would falsify the gap
    invariant spuriously.
    """
    return BoundReport(cfg, *_bound_terms(*cfg.gains.bound_inputs(), cfg.power))


def sum_capacity_interval(inputs: tuple[float, float, float, float],
                          P: float) -> tuple[float, float, float]:
    """(lower, upper, gap) bracketing the sum capacity at power P and the gains whose
    `ChannelGains.bound_inputs` are `inputs`, bit-identical to `evaluate`'s fields.

    upper is the minimum of the closed-form sum bounds, lower + gap; see
    `evaluate` for the literal 2.0.  Only the gap's four cap terms are computed.
    """
    _, _, _, lower, gap = _gap_terms(*inputs, P)
    return lower, lower + gap, gap

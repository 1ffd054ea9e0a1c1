"""Rate region over the six per-message rates and the sum-rate LP on it.

The region is the intersection of the pair cut-set bounds and the two
triple-sum bounds, all of the form (0/1 coefficients) . r <= rhs with r >= 0.
`_SUPPORTS` states each constraint's support once, a `RateRegion` holds only
the right-hand sides, and `_coeffs` derives the 0/1 rows for the JSON report
and the LP.  The LP is a dense textbook simplex with Bland's anti-cycling
rule; at 6 variables and at most 8 rows, robustness matters and speed does not.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bounds
from .model import ChannelConfig

TOL = 1e-9

# per-message rates in bits per channel use, r12 is user1 -> user2: the column order everywhere here
RATE_ORDER = ("r12", "r13", "r21", "r23", "r31", "r32")

# each constraint's label and support (indices into RATE_ORDER), in build_region's output order
_SUPPORTS = {
    "cutset.out1": (0, 1),  # r12 + r13
    "cutset.in1": (2, 4),   # r21 + r31
    "cutset.out2": (2, 3),  # r21 + r23
    "cutset.in2": (0, 5),   # r12 + r32
    "cutset.out3": (4, 5),  # r31 + r32
    "cutset.in3": (1, 3),   # r13 + r23
    "lemma1": (2, 4, 5),    # r21 + r31 + r32
    "lemma2": (0, 1, 3),    # r12 + r13 + r23
}


def _coeffs(labels) -> np.ndarray:
    """The 0/1 coefficient row over RATE_ORDER of each constraint in `labels`."""
    return np.array([[float(j in _SUPPORTS[label]) for j in range(6)] for label in labels]).reshape(-1, 6)


@dataclasses.dataclass(frozen=True)
class RateRegion:
    """Each constraint's rhs by label, in `_SUPPORTS` order; nonnegativity of every rate is implicit."""

    rhs: dict[str, float]

    def as_dict(self) -> dict:
        return {"rate_order": list(RATE_ORDER),
                "constraints": [{"label": label, "coeffs": row, "rhs": rhs}
                                for (label, rhs), row in zip(self.rhs.items(), _coeffs(self.rhs).tolist())]}


def build_region(cfg: ChannelConfig) -> RateRegion:
    """The constraints of `_SUPPORTS`; reciprocal in/out cut-sets stay apart, so tight labels are traceable."""
    b = bounds.evaluate(cfg)
    fields = {f"cutset.{name}": field for name, field in bounds._CUTSETS.items()}  # a lemma's is its label
    return RateRegion({label: getattr(b, fields.get(label, label)) for label in _SUPPORTS})


def max_weighted_sum(region: RateRegion) -> dict:
    """The `sum_rate_lp` report: `status`, `optimal_value`, `optimizer` (each rate by name) and
    `tight_constraints` (labels), for the max of r12 + r13 + r21 + r23 + r31 + r32 over the region.

    Simplex on the slack-variable tableau, whose last row holds the reduced costs.  Every rhs of
    a built region is a capacity, so >= 0: the slack basis is feasible and needs no phase-1, and
    every rate lies in a cut-set row, so an optimum exists.  bench/test_bench.py pins the name.
    """
    A, b = _coeffs(region.rhs), np.array(list(region.rhs.values()), dtype=float)
    m, n = len(b), 6
    # rows 0..m-1 the constraints, row m the reduced costs (negative means improving)
    tableau = np.vstack([np.hstack([A, np.eye(m), b.reshape(m, 1)]),
                         np.concatenate([-np.ones(n), np.zeros(m + 1)])])
    basis = list(range(n, n + m))

    while (entering := next((j for j in range(n + m) if tableau[m, j] < -TOL), None)) is not None:
        col = tableau[:m, entering]
        # Bland: min ratio, ties broken by the smallest basic variable index
        _, _, row = min((tableau[i, -1] / col[i], basis[i], i) for i in range(m) if col[i] > TOL)
        tableau[row] = tableau[row] / tableau[row, entering]
        for i in range(m + 1):
            if i != row and tableau[i, entering] != 0.0:
                tableau[i] = tableau[i] - tableau[i, entering] * tableau[row]
        basis[row] = entering

    x = np.zeros(n + m)
    x[basis] = tableau[:m, -1]
    rates = np.where((x[:n] < 0) & (x[:n] > -TOL), 0.0, x[:n])  # rounding guard
    slack = b - A @ rates
    return {"status": "optimal",  # a region from build_region is feasible and bounded
            "optimal_value": float(rates.sum()), "optimizer": dict(zip(RATE_ORDER, rates.tolist())),
            "tight_constraints": [label for label, s in zip(region.rhs, slack) if abs(s) <= TOL]}

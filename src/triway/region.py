"""Rate region over the six per-message rates and the sum-rate LP on it.

The region is the intersection of the pair cut-set bounds and the two
triple-sum bounds, all of the form (0/1 coefficients) . r <= rhs with r >= 0.
The solver is a dense textbook simplex with Bland's anti-cycling rule; at
6 variables and at most 8 rows, robustness matters and speed does not.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bounds
from .model import ChannelConfig

TOL = 1e-9

# per-message rates in bits per channel use, r12 is user1 -> user2: the column order everywhere here
RATE_ORDER = ("r12", "r13", "r21", "r23", "r31", "r32")


@dataclasses.dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[float, float, float, float, float, float]  # on (r12, r13, r21, r23, r31, r32)
    rhs: float
    label: str


@dataclasses.dataclass(frozen=True)
class RateRegion:
    """Constraint list; nonnegativity of every rate is implicit."""

    constraints: tuple[LinearConstraint, ...]

    def as_dict(self) -> dict:
        return {
            "rate_order": list(RATE_ORDER),
            "constraints": [
                {"label": c.label, "coeffs": list(c.coeffs), "rhs": c.rhs}
                for c in self.constraints
            ],
        }


@dataclasses.dataclass(frozen=True)
class LpSolution:
    optimal_value: float
    optimizer: tuple[float, ...]  # the six rates in RATE_ORDER
    tight_constraints: tuple[str, ...]

    status = "optimal"  # a region from build_region is feasible and bounded

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "optimal_value": self.optimal_value,
            "optimizer": dict(zip(RATE_ORDER, self.optimizer)),
            "tight_constraints": list(self.tight_constraints),
        }


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


def build_region(cfg: ChannelConfig) -> RateRegion:
    """Assemble the inequality description of the rate region.

    The six cut-sets come first, then lemma1 and lemma2.  Reciprocal in/out
    duplicates are kept so tight-constraint labels stay traceable.
    """
    b = bounds.evaluate(cfg)
    rhs = {f"cutset.{name}": getattr(b, field) for name, field in bounds._CUTSETS.items()}
    rhs.update(lemma1=b.lemma1, lemma2=b.lemma2)
    return RateRegion(constraints=tuple(
        LinearConstraint(coeffs=tuple(float(j in support) for j in range(6)), rhs=rhs[label], label=label)
        for label, support in _SUPPORTS.items()))


def max_weighted_sum(region: RateRegion) -> LpSolution:
    """Maximize the sum rate r12 + r13 + r21 + r23 + r31 + r32 over the region with r >= 0.

    Simplex on the slack-variable tableau.  Every rhs of a built region is a
    capacity, so >= 0: the slack basis is feasible and no phase-1 is needed.
    Every rate lies in a cut-set row, so the sum is bounded and the LP always
    has an optimum.  Each rate carries weight 1.
    """
    m = len(region.constraints)
    A = np.array([c.coeffs for c in region.constraints], dtype=float).reshape(m, 6)
    b = np.array([c.rhs for c in region.constraints], dtype=float)
    n = 6
    tableau = np.hstack([A, np.eye(m), b.reshape(m, 1)])
    basis = list(range(n, n + m))
    red = np.concatenate([-np.ones(n), np.zeros(m)])  # reduced costs; negative means improving

    while True:
        entering = next((j for j in range(n + m) if red[j] < -TOL), None)
        if entering is None:
            break
        col = tableau[:, entering]
        candidates = [
            (tableau[i, -1] / col[i], basis[i], i) for i in range(m) if col[i] > TOL
        ]
        # Bland: min ratio, ties broken by the smallest basic variable index
        _, _, row = min(candidates, key=lambda t: (t[0], t[1]))
        pivot = tableau[row, entering]
        tableau[row] = tableau[row] / pivot
        for i in range(m):
            if i != row and tableau[i, entering] != 0.0:
                tableau[i] = tableau[i] - tableau[i, entering] * tableau[row]
        red = red - red[entering] * tableau[row, :-1]
        basis[row] = entering

    x = np.zeros(n + m)
    for i, j in enumerate(basis):
        x[j] = tableau[i, -1]
    rates = np.where((x[:n] < 0) & (x[:n] > -TOL), 0.0, x[:n])  # rounding guard
    value = float(rates.sum())
    slack = b - A @ rates
    tight = tuple(c.label for c, s in zip(region.constraints, slack) if abs(s) <= TOL)
    return LpSolution(optimal_value=value, optimizer=tuple(rates.tolist()), tight_constraints=tight)

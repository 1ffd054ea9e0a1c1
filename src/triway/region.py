"""Rate region over the six per-message rates and small LPs on it.

The region is the intersection of the pair cut-set bounds and the two
triple-sum bounds, all of the form (0/1 coefficients) . r <= rhs with r >= 0.
The solver is a dense textbook simplex with Bland's anti-cycling rule; at
6 variables and at most 8 rows, robustness matters and speed does not.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import bounds
from .model import ChannelConfig, RateTuple, ValidationError

TOL = 1e-9

# column order everywhere in this module
RATE_ORDER = RateTuple.FIELD_ORDER


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
    status: str  # optimal | unbounded | infeasible
    optimal_value: float
    optimizer: RateTuple | None
    tight_constraints: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "optimal_value": self.optimal_value,
            "optimizer": None if self.optimizer is None else dict(
                zip(RATE_ORDER, self.optimizer.as_tuple())
            ),
            "tight_constraints": list(self.tight_constraints),
        }


# supports of the constraints this module can generate, as index sets over RATE_ORDER
_PAIR_SUPPORTS = {
    "cutset.out1": (0, 1),  # r12 + r13
    "cutset.in1": (2, 4),   # r21 + r31
    "cutset.out2": (2, 3),  # r21 + r23
    "cutset.in2": (0, 5),   # r12 + r32
    "cutset.out3": (4, 5),  # r31 + r32
    "cutset.in3": (1, 3),   # r13 + r23
}
_LEMMA_SUPPORTS = {
    "lemma1": (2, 4, 5),    # r21 + r31 + r32
    "lemma2": (0, 1, 3),    # r12 + r13 + r23
}


def _unit_constraint(support: tuple[int, ...], rhs: float, label: str) -> LinearConstraint:
    coeffs = [0.0] * 6
    for j in support:
        coeffs[j] = 1.0
    return LinearConstraint(coeffs=tuple(coeffs), rhs=rhs, label=label)


def build_region(cfg: ChannelConfig) -> RateRegion:
    """Assemble the inequality description of the rate region.

    The six cut-sets come first, then lemma1 and lemma2.  Reciprocal in/out
    duplicates are kept so tight-constraint labels stay traceable.
    """
    b = bounds.evaluate(cfg)
    cons = [_unit_constraint(_PAIR_SUPPORTS[f"cutset.{name}"], rhs, f"cutset.{name}")
            for name, rhs in b.cutset.as_dict().items()]
    cons.append(_unit_constraint(_LEMMA_SUPPORTS["lemma1"], b.lemma1, "lemma1"))
    cons.append(_unit_constraint(_LEMMA_SUPPORTS["lemma2"], b.lemma2, "lemma2"))
    return RateRegion(constraints=tuple(cons))


def _check_weights(weights) -> np.ndarray:
    w = np.asarray([float(v) for v in weights], dtype=float)
    if w.shape != (6,):
        raise ValidationError(f"expected 6 weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    if not np.any(w > 0):
        raise ValidationError("weights must not be all zero")
    return w


def max_weighted_sum(region: RateRegion, weights) -> LpSolution:
    """Maximize weights . r over the region with r >= 0.

    Simplex on the slack-variable tableau.  Every built-in constraint has a
    nonnegative rhs (capacities), so the slack basis is feasible and no
    phase-1 is needed; a negative rhs on a nonnegative-coefficient row is
    reported as infeasible outright.
    """
    w = _check_weights(weights)
    m = len(region.constraints)
    A = np.array([c.coeffs for c in region.constraints], dtype=float).reshape(m, 6)
    b = np.array([c.rhs for c in region.constraints], dtype=float)
    for i in range(m):
        if b[i] < -TOL:
            if np.all(A[i] >= 0):
                return LpSolution(status="infeasible", optimal_value=math.nan,
                                  optimizer=None, tight_constraints=())
            raise ValidationError("negative rhs with mixed-sign coefficients is unsupported")

    n = 6
    tableau = np.hstack([A, np.eye(m), b.reshape(m, 1)])
    basis = list(range(n, n + m))
    red = np.concatenate([-w, np.zeros(m)])  # reduced costs; negative means improving

    while True:
        entering = next((j for j in range(n + m) if red[j] < -TOL), None)
        if entering is None:
            break
        col = tableau[:, entering]
        candidates = [
            (tableau[i, -1] / col[i], basis[i], i) for i in range(m) if col[i] > TOL
        ]
        if not candidates:
            return LpSolution(status="unbounded", optimal_value=math.inf,
                              optimizer=None, tight_constraints=())
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
    optimizer = RateTuple.from_sequence(rates)
    value = float(w @ rates)
    slack = b - A @ rates
    tight = tuple(c.label for c, s in zip(region.constraints, slack) if abs(s) <= TOL)
    return LpSolution(status="optimal", optimal_value=value,
                      optimizer=optimizer, tight_constraints=tight)

"""Domain types for the three-user full-duplex Gaussian network.

Users are labeled so that users 1 and 2 share the strongest link:
h3 is the 1-2 gain, h2 the 1-3 gain, h1 the 2-3 gain, with
|h3| >= |h2| >= |h1| after canonicalization.  Gains are real and signed;
every bound depends only on squared gains, the simulator consumes signs.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

# the longest float64 or int64 array numpy can make: its size in bytes must fit in an intp
_MAX_LENGTH = sys.maxsize // 8


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class PropertyViolationError(RuntimeError):
    """A computed result falsifies a proved property (never expected)."""


@dataclasses.dataclass(frozen=True)
class ChannelGains:
    """Canonical gains, checked when built: finite, |h3| >= |h2| >= |h1|, h3^2 + h2^2 finite."""

    h1: float  # user2-user3 link
    h2: float  # user1-user3 link
    h3: float  # user1-user2 link

    def __post_init__(self) -> None:
        for g in (self.h3, self.h2, self.h1):  # the CLI's gains g12, g13, g23 under the identity
            if not math.isfinite(g):
                raise ValidationError(f"channel gain {g!r} is not finite")
        # magnitudes, not squares: squares of gains below ~1e-162 all underflow to 0
        if not abs(self.h3) >= abs(self.h2) >= abs(self.h1):
            raise ValidationError(f"gain ordering violated: need |h3| >= |h2| >= |h1|, got {self}")
        top = self.h3 * self.h3 + self.h2 * self.h2  # the largest pairwise sum, given the ordering
        if not math.isfinite(top):
            raise ValidationError(f"squared gains overflow: h3^2 + h2^2 = {top!r} is not finite")

    def bound_inputs(self) -> tuple[float, float, float, float]:
        """The bound kernel's inputs for these gains; see `_bound_inputs`."""
        return _bound_inputs(self.h1, self.h2, self.h3)


def _bound_inputs(h1: float, h2: float, h3: float) -> tuple[float, float, float, float]:
    """(h1^2, h2^2, h3^2, h1^2/h2^2) for the bound kernel.  The ratio is 0 for h2 = 0, and
    (h1/h2)^2 where h2^2 is below the smallest normal double: it has lost bits or is 0."""
    s1, s2 = h1 * h1, h2 * h2
    if s2 >= 2.2250738585072014e-308:  # sys.float_info.min
        return s1, s2, h3 * h3, s1 / s2
    return s1, s2, h3 * h3, 0.0 if h2 == 0.0 else (h1 / h2) ** 2


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """Canonical gains and a power budget; noise variance is fixed at 1 by the model.

    Gains check themselves and construction checks the power: a finite
    positive number.  So every ChannelConfig that exists is valid.
    """

    gains: ChannelGains
    power: float  # symmetric per-user power budget P, linear scale

    def __post_init__(self) -> None:
        if not isinstance(self.power, (int, float)) or not math.isfinite(self.power):
            raise ValidationError(f"power {self.power!r} is not finite")
        if self.power <= 0:
            raise ValidationError("power must be positive")


def canonicalize(g12: float, g13: float, g23: float) -> tuple[ChannelGains, tuple[int, int, int]]:
    """Relabel users so the gain magnitudes satisfy |h3| >= |h2| >= |h1|: (gains, mapping).

    mapping[k-1] is the new label of original user k.  The users are sorted by
    the magnitude of the link that avoids them, ascending and stable, so tied
    users keep their order: of the relabelings that order the gains, the
    lexicographically smallest mapping, the identity where it is one.  A NaN
    orders under no relabeling: it keeps the identity, and ChannelGains names
    the first non-finite gain in the order g12, g13, g23.
    The squared-gain multiset is preserved; signs ride along with their pair.
    """
    opposite = (float(g23), float(g13), float(g12))  # gain of the link that avoids user k
    (h,), (order,) = _canonical_rows(np.array([opposite[::-1]]))  # the one-row case of the block sort
    return ChannelGains(*h.tolist()), tuple(order.tolist().index(k) + 1 for k in range(3))


def _canonical_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """canonicalize on each row (g12, g13, g23) of g: (the canonical rows (h1, h2, h3), order).

    order[i] lists row i's original users (0, 1, 2) by new label: the same
    stable sort on every row.  A sorted row is ordered and a non-finite gain
    sorts last, so one finiteness test of h3^2 + h2^2 finds the invalid rows.
    They are built as ChannelGains in row order, a row holding a NaN in its
    identity order, and the first raises ChannelGains' own error.
    """
    opposite = g[:, ::-1]  # gain of the link that avoids user k
    order = np.argsort(np.abs(opposite), axis=1, kind="stable")
    h = opposite[np.arange(len(g))[:, None], order]
    with np.errstate(over="ignore"):
        invalid = ~np.isfinite(h[:, 2] * h[:, 2] + h[:, 1] * h[:, 1])
    if invalid.any():
        h = np.where(np.isnan(g).any(axis=1, keepdims=True), opposite, h)
        for row in h[invalid].tolist():
            ChannelGains(*row)
    return h, order


def make_config(g12: float, g13: float, g23: float,
                power: float) -> tuple[ChannelConfig, tuple[int, int, int]]:
    """Canonicalize raw pair gains and wrap them with a validated power budget: (config, mapping)."""
    gains, mapping = canonicalize(g12, g13, g23)
    return ChannelConfig(gains=gains, power=float(power)), mapping

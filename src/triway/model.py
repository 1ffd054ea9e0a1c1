"""Domain types for the three-user full-duplex Gaussian network.

Users are labeled so that users 1 and 2 share the strongest link:
h3 is the 1-2 gain, h2 the 1-3 gain, h1 the 2-3 gain, with
|h3| >= |h2| >= |h1| after canonicalization.  Gains are real and signed;
every bound depends only on squared gains, the simulator consumes signs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class PropertyViolationError(RuntimeError):
    """A computed result falsifies a proved property (never expected)."""


@dataclasses.dataclass(frozen=True)
class ChannelGains:
    h1: float  # user2-user3 link
    h2: float  # user1-user3 link
    h3: float  # user1-user2 link

    def squared(self) -> tuple[float, float, float]:
        return (self.h1 * self.h1, self.h2 * self.h2, self.h3 * self.h3)

    def is_canonical(self) -> bool:
        # magnitudes, not squares: squares of gains below ~1e-162 all underflow to 0
        return abs(self.h3) >= abs(self.h2) >= abs(self.h1)


@dataclasses.dataclass(frozen=True)
class UserPermutation:
    """Relabeling of users; mapping[k-1] is the new label of original user k."""

    mapping: tuple[int, int, int]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != [1, 2, 3]:
            raise ValidationError(f"mapping {self.mapping} is not a bijection on {{1,2,3}}")

    @property
    def is_identity(self) -> bool:
        return self.mapping == (1, 2, 3)


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """Canonical gains and a power budget; noise variance is fixed at 1 by the model.

    Construction runs `validate`, so every ChannelConfig that exists is valid.
    """

    gains: ChannelGains
    power: float  # symmetric per-user power budget P, linear scale

    def __post_init__(self) -> None:
        validate(self)


@dataclasses.dataclass(frozen=True)
class RateTuple:
    """Six per-message rates in bits per channel use; r12 is user1 -> user2."""

    r12: float
    r13: float
    r21: float
    r23: float
    r31: float
    r32: float

    FIELD_ORDER = ("r12", "r13", "r21", "r23", "r31", "r32")

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, f) for f in self.FIELD_ORDER)

    @classmethod
    def from_sequence(cls, values) -> "RateTuple":
        vals = list(values)
        if len(vals) != 6:
            raise ValidationError(f"expected 6 rates, got {len(vals)}")
        return cls(*(float(v) for v in vals))


def canonicalize(g12: float, g13: float, g23: float) -> tuple[ChannelGains, UserPermutation]:
    """Relabel users so the gain magnitudes satisfy |h3| >= |h2| >= |h1|.

    Ties prefer the identity relabeling, then the lexicographically smallest
    mapping, so the result is deterministic: permutations() yields mappings in
    lexicographic order with the identity first, and the first valid one wins.
    The squared-gain multiset is preserved; signs ride along with their pair.
    """
    for g in (g12, g13, g23):
        if not math.isfinite(g):
            raise ValidationError(f"channel gain {g!r} is not finite")
    opposite = (float(g23), float(g13), float(g12))  # gain of the link that avoids user k
    for mapping in itertools.permutations((1, 2, 3)):
        # new user k is original user mapping.index(k) + 1 and keeps its opposite link
        h1, h2, h3 = (opposite[mapping.index(k)] for k in (1, 2, 3))
        if abs(h3) >= abs(h2) >= abs(h1):
            return ChannelGains(h1=h1, h2=h2, h3=h3), UserPermutation(mapping)
    raise AssertionError("three finite reals always have an order")


def validate(config: ChannelConfig) -> ChannelConfig:
    """Accept iff power > 0, gains finite and ordered, squared gains and their sums finite."""
    if not isinstance(config.power, (int, float)) or not math.isfinite(config.power):
        raise ValidationError(f"power {config.power!r} is not finite")
    if config.power <= 0:
        raise ValidationError("power must be positive")
    for name in ("h1", "h2", "h3"):
        g = getattr(config.gains, name)
        if not math.isfinite(g):
            raise ValidationError(f"gain {name}={g!r} is not finite")
    if not config.gains.is_canonical():
        raise ValidationError(
            f"gain ordering violated: need |h3| >= |h2| >= |h1|, got {config.gains}"
        )
    _, s2, s3 = config.gains.squared()
    if not math.isfinite(s3 + s2):  # the largest pairwise sum, given the ordering
        raise ValidationError(f"squared gains overflow: h3^2 + h2^2 = {s3 + s2!r} is not finite")
    return config


def make_config(g12: float, g13: float, g23: float, power: float) -> tuple[ChannelConfig, UserPermutation]:
    """Canonicalize raw pair gains and wrap them with a validated power budget."""
    gains, perm = canonicalize(g12, g13, g23)
    return ChannelConfig(gains=gains, power=float(power)), perm

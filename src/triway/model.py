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


# per mapping in lexicographic order: (indices into canonicalize's `opposite` of new h1, h2, h3, mapping)
_RELABELINGS = tuple((tuple(m.index(k) for k in (1, 2, 3)), m)
                     for m in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)))


def canonicalize(g12: float, g13: float, g23: float) -> tuple[ChannelGains, tuple[int, int, int]]:
    """Relabel users so the gain magnitudes satisfy |h3| >= |h2| >= |h1|: (gains, mapping).

    mapping[k-1] is the new label of original user k.  The six relabelings are
    tried in lexicographic order of mapping, identity first, and the first
    whose order holds wins, so ties are deterministic.
    The squared-gain multiset is preserved; signs ride along with their pair.
    """
    opposite = (float(g23), float(g13), float(g12))  # gain of the link that avoids user k
    mag = tuple(map(abs, opposite))
    for (i1, i2, i3), mapping in _RELABELINGS:
        if mag[i3] >= mag[i2] >= mag[i1]:
            break
    else:  # only a NaN orders under no relabeling: ChannelGains rejects it under the identity
        (i1, i2, i3), mapping = _RELABELINGS[0]
    return ChannelGains(h1=opposite[i1], h2=opposite[i2], h3=opposite[i3]), mapping


def make_config(g12: float, g13: float, g23: float,
                power: float) -> tuple[ChannelConfig, tuple[int, int, int]]:
    """Canonicalize raw pair gains and wrap them with a validated power budget: (config, mapping)."""
    gains, mapping = canonicalize(g12, g13, g23)
    return ChannelConfig(gains=gains, power=float(power)), mapping

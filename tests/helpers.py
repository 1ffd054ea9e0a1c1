"""Oracles and helpers that only the tests use.

The grid oracle cross-checks the simplex; the permutation helpers check that
a relabeling is a bijection on rates; the report readers invert the JSON the
report writer produces; the emit-driven step loop and genie rebuild are the
references for the simulator's loops.
"""

import itertools
import json
import math

import numpy as np

from triway.experiments import ReportTable
from triway.model import RateTuple, UserPermutation, ValidationError, make_config
from triway.region import _LEMMA_SUPPORTS, _PAIR_SUPPORTS, RATE_ORDER, TOL, RateRegion
from triway.sim import (
    _MSG_INDEX,
    CausalEncoder,
    TransmissionTrace,
    draw_messages,
    draw_realization,
    random_encoders,
)


def inverse(perm: UserPermutation) -> UserPermutation:
    inv = [0, 0, 0]
    for orig, new in enumerate(perm.mapping, start=1):
        inv[new - 1] = orig
    return UserPermutation(tuple(inv))


def apply_rates(perm: UserPermutation, rates: RateTuple) -> RateTuple:
    # rate from user a to user b becomes the rate from mapping[a] to mapping[b]
    out = {}
    for a, b in itertools.permutations((1, 2, 3), 2):
        na, nb = perm.mapping[a - 1], perm.mapping[b - 1]
        out[f"r{na}{nb}"] = getattr(rates, f"r{a}{b}")
    return RateTuple(**out)


def _support_caps(region: RateRegion) -> dict[tuple[int, ...], float]:
    """Min rhs per constraint support; rejects supports this oracle cannot handle."""
    known = set(_PAIR_SUPPORTS.values()) | set(_LEMMA_SUPPORTS.values())
    caps: dict[tuple[int, ...], float] = {}
    for c in region.constraints:
        support = tuple(j for j, v in enumerate(c.coeffs) if v != 0.0)
        if support not in known or any(c.coeffs[j] != 1.0 for j in support):
            raise ValidationError(f"constraint {c.label!r} has an unsupported pattern for the grid oracle")
        caps[support] = min(caps.get(support, math.inf), c.rhs)
    covered = set()
    for support in caps:
        covered.update(support)
    missing = [RATE_ORDER[j] for j in range(6) if j not in covered]
    if missing:
        raise ValidationError(f"region is unbounded: {missing} appear in no constraint")
    return caps


def oracle_max_sum(region: RateRegion, grid_step: float) -> float:
    """Best rate sum over the feasibility grid at resolution grid_step.

    Exactly equals a naive exhaustive search over all six rates on the grid,
    computed by reduction: every supported constraint couples (r13, r23) and
    (r31, r32) only through r12 and r21, and for fixed (r12, r21) the grid
    maximum of a pair with individual caps ca, cb and a joint cap cj is
    min(floor(ca) + floor(cb), floor(cj)), which is attainable on the grid.
    So a 2-D sweep over (r12, r21) reproduces the 6-D search value.
    """
    if not (grid_step > 0):
        raise ValidationError(f"grid_step must be > 0, got {grid_step!r}")
    caps = _support_caps(region)
    s = float(grid_step)

    def rhs(label: str) -> float:
        table = _PAIR_SUPPORTS | _LEMMA_SUPPORTS
        return caps.get(table[label], math.inf)

    b_out1, b_in1 = rhs("cutset.out1"), rhs("cutset.in1")
    b_out2, b_in2 = rhs("cutset.out2"), rhs("cutset.in2")
    b_out3, b_in3 = rhs("cutset.out3"), rhs("cutset.in3")
    l1, l2 = rhs("lemma1"), rhs("lemma2")

    def grid_floor(v):
        return s * np.floor((v + TOL) / s)

    def axis(cap_value: float) -> np.ndarray:
        return s * np.arange(int(np.floor((cap_value + TOL) / s)) + 1)

    a = axis(min(b_out1, b_in2, l2))   # r12 values
    c = axis(min(b_in1, b_out2, l1))   # r21 values
    A = a[:, None]
    C = c[None, :]
    # pair (r13, r23): r13 <= out1 - a, r23 <= out2 - c, sum <= min(in3, l2 - a)
    pair_x = np.minimum(grid_floor(b_out1 - A) + grid_floor(b_out2 - C),
                        grid_floor(np.minimum(b_in3, l2 - A)))
    # pair (r31, r32): r31 <= in1 - c, r32 <= in2 - a, sum <= min(out3, l1 - c)
    pair_y = np.minimum(grid_floor(b_in1 - C) + grid_floor(b_in2 - A),
                        grid_floor(np.minimum(b_out3, l1 - C)))
    total = A + C + pair_x + pair_y
    return float(total.max())


def table_from_json(text: str) -> ReportTable:
    obj = json.loads(text)
    return ReportTable(kind=obj["kind"], header=tuple(obj["header"]),
                       rows=tuple(tuple(row) for row in obj["rows"]), meta=obj["meta"])


def load_report_json(path) -> ReportTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return table_from_json(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc


PARITY_CFG, _ = make_config(1.5, -1.0, 0.5, 100.0)  # room for every triple below

_MIXED = (  # tap counts (0, 1, 3) and distinct message scales
    CausalEncoder(message_weights=(0.7, -1.2), message_scale=1.3),
    CausalEncoder(message_weights=(-0.4, 0.9), feedback_weights=(0.21,), message_scale=0.8),
    CausalEncoder(message_weights=(1.1, 0.3), feedback_weights=(-0.12, 0.07, 0.05)),
)


def _random_triple(n_taps):
    encoders = random_encoders(PARITY_CFG, n_taps, seed=7 + n_taps)
    return tuple(e.with_scale(0.6 + 0.3 * j) for j, e in enumerate(encoders))


# encoder triples the loop and power oracles are checked on, by test id
ENCODER_CASES = {**{f"taps{k}": _random_triple(k) for k in range(4)}, "taps013": _MIXED}


def emit_trace(encoders, cfg, n: int, seed: int) -> TransmissionTrace:
    """The simulator's step loop with one CausalEncoder.emit call per user and symbol.

    Same draws and channel equations as sim.simulate_network, without its
    power-budget check.
    """
    real = draw_realization(n, seed)
    messages = draw_messages(seed)
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    xs: list[list[float]] = [[], [], []]
    ys: list[list[float]] = [[], [], []]
    z = (real.z1, real.z2, real.z3)
    own = [messages[list(_MSG_INDEX[j])] for j in range(3)]
    for i in range(n):
        step = [encoders[j].emit(own[j], ys[j]) for j in range(3)]
        for j in range(3):
            xs[j].append(step[j])
        ys[0].append(h3 * step[1] + h2 * step[2] + z[0][i])
        ys[1].append(h3 * step[0] + h1 * step[2] + z[1][i])
        ys[2].append(h2 * step[0] + h1 * step[1] + z[2][i])
    return TransmissionTrace(
        x1=np.array(xs[0]), x2=np.array(xs[1]), x3=np.array(xs[2]),
        y1=np.array(ys[0]), y2=np.array(ys[1]), y3=np.array(ys[2]),
        z1=real.z1.copy(), z2=real.z2.copy(), z3=real.z3.copy(),
        messages=messages,
    )


def emit_rebuild(trace: TransmissionTrace, cfg, encoders, side) -> np.ndarray:
    """The genie rebuild of y2 (either lemma) with one emit call per symbol."""
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    enc2 = encoders[1]
    enhanced_y3 = trace.y3 + (h2 / h3 - 1.0) * trace.z3 if side.variant == "lemma2" else None
    y2hat: list[float] = []
    for i in range(trace.n):
        x2hat = enc2.emit(side.side_messages, y2hat)
        if side.variant == "lemma1":
            y2tilde = (h1 / h2) * (trace.y1[i] - h3 * x2hat) + h3 * trace.x1[i]
        else:
            y2tilde = (h3 / h2) * (enhanced_y3[i] - h1 * x2hat) + h1 * trace.x3[i]
        y2hat.append(y2tilde + side.noise_diff[i])
    return np.array(y2hat)

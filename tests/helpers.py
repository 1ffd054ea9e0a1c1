"""Oracles and helpers that only the tests use.

The grid oracle and the feasibility test cross-check the simplex, and
`sub_region` gives them regions of one or two constraint families; the
permutation helpers check that a relabeling is a bijection on rates; the
report readers invert the JSON the report writer produces, and `csv_cell` is
the per-cell rule its CSV must match; the emit-driven step loop, trace
verification and genie rebuild are the references for the simulator's loops;
the full-length power recursion is the reference for the repeat shortcut in
sim._power_parts.
"""

import itertools
import json
import math

import numpy as np

from triway.experiments import ReportTable
from triway.model import RateTuple, UserPermutation, ValidationError, make_config
from triway.region import _LEMMA_SUPPORTS, _PAIR_SUPPORTS, RATE_ORDER, TOL, RateRegion, build_region
from triway.sim import (
    _MAX_PERIOD,
    _MSG_INDEX,
    CausalEncoder,
    TransmissionTrace,
    _power_system,
    _scaled_dev,
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


def sub_region(cfg, *families: str) -> RateRegion:
    """The constraints of build_region(cfg) in the families named ("cutset",
    "lemma1", "lemma2"), kept in build_region's order, on which the simplex's
    pivot choice (Bland's rule) depends."""
    return RateRegion(tuple(c for c in build_region(cfg).constraints
                            if c.label.split(".")[0] in families))


def is_feasible(region: RateRegion, rates: RateTuple, tol: float = TOL) -> bool:
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    r = np.asarray(rates.as_tuple(), dtype=float)
    if np.any(r < -tol):
        return False
    for c in region.constraints:
        if float(np.dot(c.coeffs, r)) > c.rhs + tol:
            return False
    return True


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


def csv_cell(value) -> str:
    """The CSV writer's per-cell rule: bools are ints, both print as integers,
    every other value (np.int64 included, which is no int) with 6 decimals."""
    return str(int(value)) if isinstance(value, int) else f"{value:.6f}"


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


# _MIXED with a user 2 whose message term is -0.0 at every seed the parity
# test uses: m23 < 0 there, so -0.0 * m23 = +0.0, the sum is +0.0 and the
# scale -1 flips it.  Its first symbol is then -0.0, and adding tap * 0.0 for
# a missing lag would turn it into +0.0.
_NEG_ZERO = (_MIXED[0],
             CausalEncoder(message_weights=(0.0, -0.0), feedback_weights=(0.21,), message_scale=-1.0),
             _MIXED[2])

# encoder triples the loop and power oracles are checked on, by test id
ENCODER_CASES = {**{f"taps{k}": _random_triple(k) for k in range(4)}, "taps013": _MIXED,
                 "taps013_negzero": _NEG_ZERO}


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


def verify_trace(trace: TransmissionTrace, cfg, encoders, tol: float = 1e-9) -> tuple[float, float]:
    """Check channel-equation exactness and that every x came from its causal encoder.

    Returns (channel deviation, encoder deviation), both scale-relative, and
    rejects the trace if either exceeds tol.  A trace whose x_j(i) consults
    y_j(i) (or anything else the encoder could not have seen) fails here.
    """
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    dev_chan = max(
        _scaled_dev(trace.y1 - (h3 * trace.x2 + h2 * trace.x3 + trace.z1), trace.y1),
        _scaled_dev(trace.y2 - (h3 * trace.x1 + h1 * trace.x3 + trace.z2), trace.y2),
        _scaled_dev(trace.y3 - (h2 * trace.x1 + h1 * trace.x2 + trace.z3), trace.y3),
    )
    ys = (trace.y1, trace.y2, trace.y3)
    xs = (trace.x1, trace.x2, trace.x3)
    dev_enc = 0.0
    for j in range(3):
        msgs = trace.messages[list(_MSG_INDEX[j])]
        redone = np.array([encoders[j].emit(msgs, ys[j][:i]) for i in range(trace.n)])
        dev_enc = max(dev_enc, _scaled_dev(xs[j] - redone, xs[j]))
    if dev_chan > tol:
        raise ValidationError(f"trace violates the channel equations: deviation {dev_chan:.3g}")
    if dev_enc > tol:
        raise ValidationError(f"trace violates causal encoding: deviation {dev_enc:.3g}")
    return dev_chan, dev_enc


def emit_rebuild(trace: TransmissionTrace, cfg, encoders, side) -> np.ndarray:
    """The genie rebuild of y2 (either lemma) with one emit call per symbol."""
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    enc2 = encoders[1]
    enhanced_y3 = (h2 * trace.x1 + h1 * trace.x2 + (h2 / h3) * trace.z3
                   if side.variant == "lemma2" else None)
    y2hat: list[float] = []
    for i in range(trace.n):
        x2hat = enc2.emit(side.side_messages, y2hat)
        if side.variant == "lemma1":
            y2tilde = (h1 / h2) * (trace.y1[i] - h3 * x2hat) + h3 * trace.x1[i]
        else:
            y2tilde = (h3 / h2) * (enhanced_y3[i] - h1 * x2hat) + h1 * trace.x3[i]
        y2hat.append(y2tilde + side.noise_diff[i])
    return np.array(y2hat)


def _initial_state(d):
    S = np.zeros((2, d, d))  # slice 0 message-driven, slice 1 noise-driven
    S[0, :6, :6] = np.eye(6)
    return S


def reference_power_parts(encoders, cfg, n):
    """sim._power_parts without the repeat shortcut: all n steps of S <- F S F' + G G'."""
    a, F, GG = _power_system(encoders, cfg)
    d = F.shape[0]
    S = _initial_state(d)
    noise = S[1]  # a view: every update below writes S in place
    total = np.zeros((2, d, d))
    FS = np.empty((2, d, d))
    Ft = F.T.copy()
    for _ in range(n):  # preallocated buffers: no allocation per step
        total += S
        np.matmul(F, S, out=FS)
        np.matmul(FS, Ft, out=S)
        noise += GG
    A, C = (np.einsum("jd,de,je->j", a, part, a) for part in total)
    return A, C


def first_repeat(encoders, cfg, horizon):
    """(i, p) for the first state S_i of the full recursion that equals S_(i-p)
    bit for bit with 1 <= p <= _MAX_PERIOD, or None if none does up to S_horizon."""
    _, F, GG = _power_system(encoders, cfg)
    S = _initial_state(F.shape[0])
    FS = np.empty_like(S)
    Ft = F.T.copy()
    states = [S.tobytes()]
    for i in range(1, horizon + 1):  # the same in-place steps as the recursion
        np.matmul(F, S, out=FS)
        np.matmul(FS, Ft, out=S)
        S[1] += GG
        states.append(S.tobytes())
        for p in range(1, min(_MAX_PERIOD, i) + 1):
            if states[i] == states[i - p]:
                return i, p
    return None

"""Oracles and helpers that only the tests use.

The grid oracle and the feasibility test cross-check the simplex, and
`sub_region` gives them regions of one or two constraint families; rates
are tuples of six floats in region.RATE_ORDER, and the permutation helpers
check that canonicalize's mapping tuple relabels them as a bijection; the
report readers invert the JSON the report writer produces, and `csv_cell` is
the per-cell rule its CSV must match; `emit`, one encoder symbol at a time,
drives the step loop, trace verification and genie rebuild that are the
references for the simulator's loops;
`simulate_network` runs given encoders through a full power pass with the
budget check, then the simulator's step loop; the full-length power
recursion is the reference for the repeat shortcut in sim._power_sums;
`two_pass_simulation`, a second full power pass on the scaled encoders, is
the reference for every block it accepts, which the one-pass simulator
must reproduce;
`cap` and `reference_bound_terms`, which writes every bound from it in the
operation order bounds.evaluate documents, are the reference for the
bound kernel bounds._bound_terms, and `crossover_root`, the closed-form root
of the crossover margin, is the reference for experiments.find_crossover;
the permutation loop and the per-trial
ensemble loop are the references for the stable sort of model._canonical_rows,
which model.canonicalize runs on its one row, and for experiments.gap_ensemble.
The sweep, DoF fit and crossover search that build a ChannelConfig and call
bounds.evaluate at every grid point are the references for the drivers, which
call the bound kernel once over the grid or once per probe, and
`reference_json` and `reference_csv`, json.dumps with an indent and one
%-format per row, are the references for experiments.export_report.
"""

import dataclasses
import itertools
import json
import math

import numpy as np

from triway.bounds import evaluate
from triway.experiments import BOUND_COLUMNS, CrossoverResult, GapStatistics, ReportTable, SweepSpec, power_grid
from triway.model import ChannelConfig, ChannelGains, ValidationError, make_config
from triway.region import _SUPPORTS, RATE_ORDER, TOL, RateRegion, build_region
from triway.sim import (
    _MSG_INDEX,
    _POWER_TOL,
    CausalEncoder,
    TransmissionTrace,
    _power_sums,
    _power_system,
    _step_loop,
    genie_reconstruct_lemma1,
    genie_reconstruct_lemma2,
    random_encoders,
    reconstruction_error,
)

_LN2 = math.log(2.0)


def is_identity(mapping: tuple[int, int, int]) -> bool:
    return mapping == (1, 2, 3)


def inverse(mapping: tuple[int, int, int]) -> tuple[int, int, int]:
    inv = [0, 0, 0]
    for orig, new in enumerate(mapping, start=1):
        inv[new - 1] = orig
    return tuple(inv)


def reference_canonicalize(g12, g13, g23) -> tuple[ChannelGains, tuple[int, int, int]]:
    """model.canonicalize as a loop over itertools.permutations: the first
    mapping, in lexicographic order, whose relabeled magnitudes are ordered."""
    for g in (g12, g13, g23):
        if not math.isfinite(g):
            raise ValidationError(f"channel gain {g!r} is not finite")
    opposite = (float(g23), float(g13), float(g12))  # gain of the link that avoids user k
    for mapping in itertools.permutations((1, 2, 3)):
        # new user k is original user mapping.index(k) + 1 and keeps its opposite link
        h1, h2, h3 = (opposite[mapping.index(k)] for k in (1, 2, 3))
        if abs(h3) >= abs(h2) >= abs(h1):
            return ChannelGains(h1=h1, h2=h2, h3=h3), mapping
    raise AssertionError("three finite reals always have an order")


def reference_gap_ensemble(spec: SweepSpec) -> GapStatistics:
    """experiments.gap_ensemble trial by trial on numpy scalars, through
    reference_canonicalize and the gap field of bounds.evaluate."""
    grid = power_grid(spec)
    worst = None
    gaps_min, gaps_max, total, violations = math.inf, -math.inf, 0.0, 0
    for t in range(spec.ensemble):
        g = np.random.default_rng([spec.seed, t]).standard_normal(3)
        gains, _ = reference_canonicalize(g[0], g[1], g[2])
        cfg = ChannelConfig(gains=gains, power=float(grid[t % len(grid)]))
        gap = evaluate(cfg).gap
        if gap < 0.0 or gap > 2.0:
            violations += 1
        total += gap
        gaps_min = min(gaps_min, gap)
        if gap > gaps_max:
            gaps_max, worst = gap, cfg
    return GapStatistics(ensemble=spec.ensemble, min_gap=gaps_min, max_gap=gaps_max,
                         mean_gap=total / spec.ensemble, violations=violations,
                         worst_config=worst)


def cap(x: float) -> float:
    """0.5*log2(1+x) for x >= 0.

    log1p keeps full relative accuracy for tiny x, which the near-zero
    SNR regime needs.
    """
    if math.isnan(x) or x < 0:
        raise ValidationError(f"cap argument must be >= 0, got {x!r}")
    return 0.5 * math.log1p(x) / _LN2


def reference_bound_terms(s1: float, s2: float, s3: float, ratio: float, P: float) -> tuple:
    """bounds._bound_terms from cap, one formula per BoundReport field after config.

    Each value is its formula as bounds.evaluate documents it, in that
    formula's operation order; the gap takes the literal 2.0 where
    lemma1 + lemma2 - lower reaches it.  Valid only where every cap argument
    is finite (h^2 P does not overflow).
    """
    out1 = cap((s3 + s2) * P)
    out2 = cap((s3 + s1) * P)
    out3 = cap((s2 + s1) * P)
    lemma1 = cap((s3 + s2) * P) + cap(ratio)
    lemma2 = cap(s3 * P * (1.0 + ratio)) + 0.5
    theorem2_upper = 2.0 * cap(s3 * P) + 2.0
    lower = 2.0 * cap(s3 * P)
    return (out1, out2, out3, out1 + out2 + out3, lemma1, lemma2, theorem2_upper, lemma1 + lemma2,
            lower, min(2.0, lemma1 + lemma2 - lower), cap(max(0.0, s2 * P - 0.5)), cap(s1 * P),
            s2 >= s1 + 0.5 / P)


def reference_sweep_rows(spec: SweepSpec) -> tuple[tuple[float, ...], ...]:
    """experiments.sweep_snr's rows from one ChannelConfig and bounds.evaluate per grid power."""
    rows = []
    for P in power_grid(spec):
        b = evaluate(ChannelConfig(gains=spec.gains, power=float(P)))
        rows.append((float(P), *(getattr(b, name) for name in BOUND_COLUMNS), b.gap))
    return tuple(rows)


def reference_dof_estimate(gains: ChannelGains, grid, field: str) -> float:
    """experiments.dof_estimate's fit of one field on a valid grid, from bounds.evaluate per point."""
    grid = [float(p) for p in grid]
    xs = [0.5 * math.log2(P) for P in grid]
    ys = [float(getattr(evaluate(ChannelConfig(gains=gains, power=P)), field)) for P in grid]
    half = len(grid) // 2
    return float(np.polyfit(xs[half:], ys[half:], 1)[0])


def reference_find_crossover(gains: ChannelGains, p_lo: float, p_hi: float) -> CrossoverResult:
    """experiments.find_crossover on a valid bracket, with bounds.evaluate at every probe."""

    def margin(P: float) -> float:
        b = evaluate(ChannelConfig(gains=gains, power=P))
        return b.outgoing_cutset_sum - b.tightened_upper

    lo, hi = float(p_lo), float(p_hi)
    if margin(lo) > 0:
        return CrossoverResult(p_star=lo, status="already-crossed")
    if margin(hi) <= 0:
        return CrossoverResult(p_star=None, status="none")
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
    return CrossoverResult(p_star=hi, status="found")


def crossover_root(gains: ChannelGains) -> float | None:
    """The one P > 0 where the outgoing cut-set sum meets lemma1 + lemma2, None for h2 = 0.

    With r = h1^2/h2^2, a = h3^2 + h1^2, b = h2^2 + h1^2 and c = h3^2 (1 + r),
    the root of ab P^2 + (a + b - 2(1 + r)c) P - (1 + 2r), in the form of the
    quadratic formula that subtracts no two values of one sign.
    """
    s1, s2, s3, r = gains.bound_inputs()
    if gains.h2 == 0.0:
        return None
    a, b, c = s3 + s1, s2 + s1, s3 * (1.0 + r)
    qa, qb, qc = a * b, a + b - 2.0 * (1.0 + r) * c, -(1.0 + 2.0 * r)
    sqrt_disc = math.sqrt(qb * qb - 4.0 * qa * qc)
    if qb > 0.0:
        return 2.0 * -qc / (qb + sqrt_disc)
    return (sqrt_disc - qb) / (2.0 * qa)


def apply_rates(mapping: tuple[int, int, int], rates: tuple[float, ...]) -> tuple[float, ...]:
    # rate from user a to user b becomes the rate from mapping[a] to mapping[b]
    named = dict(zip(RATE_ORDER, rates))
    out = {}
    for a, b in itertools.permutations((1, 2, 3), 2):
        na, nb = mapping[a - 1], mapping[b - 1]
        out[f"r{na}{nb}"] = named[f"r{a}{b}"]
    return tuple(out[name] for name in RATE_ORDER)


def sub_region(cfg, *families: str) -> RateRegion:
    """The constraints of build_region(cfg) in the families named ("cutset",
    "lemma1", "lemma2"), kept in build_region's order, on which the simplex's
    pivot choice (Bland's rule) depends."""
    return RateRegion({label: rhs for label, rhs in build_region(cfg).rhs.items()
                       if label.split(".")[0] in families})


def is_feasible(region: RateRegion, rates: tuple[float, ...], tol: float = TOL) -> bool:
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    r = np.asarray(rates, dtype=float)
    if np.any(r < -tol):
        return False
    return not any(float(r[list(_SUPPORTS[label])].sum()) > rhs + tol for label, rhs in region.rhs.items())


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
    covered = {j for label in region.rhs for j in _SUPPORTS[label]}
    missing = [name for j, name in enumerate(RATE_ORDER) if j not in covered]
    if missing:
        raise ValidationError(f"region is unbounded: {missing} appear in no constraint")
    s = float(grid_step)

    def rhs(label: str) -> float:
        return region.rhs.get(label, math.inf)

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
    """The CSV writer's per-cell rule on a cell of column.tolist(): a cell of an
    integer or bool column is an int (bools are ints) and prints as an integer,
    every other cell is a float and prints with 6 decimals."""
    return str(int(value)) if isinstance(value, int) else f"{value:.6f}"


def reference_json(obj) -> str:
    """experiments.export_report's JSON text: the pure-Python indenting encoder."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_csv(header, columns) -> str:
    """experiments.export_report's CSV text for (header, columns): one %-format per
    row, %d for an integer or bool column and %.6f for any other."""
    fmt = ",".join("%d" if c.dtype.kind in "biu" else "%.6f" for c in columns) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(fmt % row for row in rows)


def table_rows(table: ReportTable) -> tuple[tuple, ...]:
    """A ReportTable's rows, as its JSON writes them: the columns' cells zipped."""
    return tuple(zip(*(c.tolist() for c in table.columns)))


def table_from_json(text: str) -> ReportTable:
    obj = json.loads(text)
    return ReportTable(kind=obj["kind"], header=tuple(obj["header"]),
                       columns=tuple(map(np.array, zip(*obj["rows"]))), meta=obj["meta"])


def load_report_json(path) -> ReportTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return table_from_json(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc


PARITY_CFG, _ = make_config(1.5, -1.0, 0.5, 100.0)  # room for every triple below

# A case id names which of the two taps are nonzero as a bit mask: bit 0 for
# the tap on y(i-1), bit 1 for the tap on y(i-2).  tapsK is a random triple at
# distinct message scales with the taps outside mask K set to 0.0; taps013
# gives its three users masks 0, 1 and 3, at distinct scales and with
# negative taps.
_MIXED = (
    CausalEncoder(message_weights=(0.7, -1.2), feedback_weights=(0.0, 0.0), message_scale=1.3),
    CausalEncoder(message_weights=(-0.4, 0.9), feedback_weights=(0.21, 0.0), message_scale=0.8),
    CausalEncoder(message_weights=(1.1, 0.3), feedback_weights=(-0.12, -0.07)),
)


def _random_triple(mask):
    encoders = random_encoders(PARITY_CFG, 2, seed=7 + mask)
    return tuple(dataclasses.replace(e, message_scale=0.6 + 0.3 * j,
                                     feedback_weights=tuple(t if mask >> k & 1 else 0.0
                                                            for k, t in enumerate(e.feedback_weights)))
                 for j, e in enumerate(encoders))


# _MIXED with a user 2 whose message term is -0.0 at every seed the parity
# test uses: m23 < 0 there, so -0.0 * m23 = +0.0, the sum is +0.0 and the
# scale -1 flips it.  Its first symbol is then -0.0, and adding tap * 0.0 for
# a missing reception would turn it into +0.0.
_NEG_ZERO = (_MIXED[0],
             CausalEncoder(message_weights=(0.0, -0.0), feedback_weights=(0.21, 0.0), message_scale=-1.0),
             _MIXED[2])

# encoder triples the loop and power oracles are checked on, by test id
ENCODER_CASES = {**{f"taps{k}": _random_triple(k) for k in range(4)}, "taps013": _MIXED,
                 "taps013_negzero": _NEG_ZERO}


def emit(encoder: CausalEncoder, messages, received) -> float:
    """The symbol the encoder sends at time i from its own messages and y(1..i-1), oldest first."""
    x = encoder.message_term(messages)
    hist = len(received)
    for k, tap in enumerate(encoder.feedback_weights):
        if k < hist:
            x += tap * float(received[hist - 1 - k])
    return x


def block_draws(n: int, seed: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A block's noise (z1, z2, z3) and its six messages, from the streams default_rng([seed, k]),
    k = 0, 1, 2 and 3, that the sim module docstring documents."""
    noise = tuple(np.random.default_rng([seed, k]).standard_normal(n) for k in range(3))
    return noise, np.random.default_rng([seed, 3]).standard_normal(6)


def emit_trace(encoders, cfg, n: int, seed: int) -> TransmissionTrace:
    """The simulator's step loop with one emit call per user and symbol.

    Same draws and channel equations as the simulator's step loop, with no
    power-budget check.
    """
    z, messages = block_draws(n, seed)
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    xs: list[list[float]] = [[], [], []]
    ys: list[list[float]] = [[], [], []]
    own = [messages[list(_MSG_INDEX[j])] for j in range(3)]
    for i in range(n):
        step = [emit(encoders[j], own[j], ys[j]) for j in range(3)]
        for j in range(3):
            xs[j].append(step[j])
        ys[0].append(h3 * step[1] + h2 * step[2] + z[0][i])
        ys[1].append(h3 * step[0] + h1 * step[2] + z[1][i])
        ys[2].append(h2 * step[0] + h1 * step[1] + z[2][i])
    return TransmissionTrace(
        x1=np.array(xs[0]), x2=np.array(xs[1]), x3=np.array(xs[2]),
        y1=np.array(ys[0]), y2=np.array(ys[1]), y3=np.array(ys[2]),
        z1=z[0].copy(), z2=z[1].copy(), z3=z[2].copy(),
        messages=messages,
    )


def _scaled_dev(delta: np.ndarray, reference: np.ndarray) -> float:
    """Peak deviation relative to the peak of the reference, floored at scale 1."""
    scale = max(1.0, float(np.max(np.abs(reference))) if len(reference) else 1.0)
    return float(np.max(np.abs(delta))) / scale if len(delta) else 0.0


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
        redone = np.array([emit(encoders[j], msgs, ys[j][:i]) for i in range(trace.n)])
        dev_enc = max(dev_enc, _scaled_dev(xs[j] - redone, xs[j]))
    if dev_chan > tol:
        raise ValidationError(f"trace violates the channel equations: deviation {dev_chan:.3g}")
    if dev_enc > tol:
        raise ValidationError(f"trace violates causal encoding: deviation {dev_enc:.3g}")
    return dev_chan, dev_enc


def emit_rebuild(trace: TransmissionTrace, cfg, encoders, variant: str) -> np.ndarray:
    """The genie rebuild of y2 (either lemma) with one emit call per symbol.

    Forms the genie's side information itself: the granted messages
    (m21, m23) and the noise difference z2 - (h1/h2) z1 (lemma1) or
    z2 - z3 (lemma2).
    """
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    side_messages = (float(trace.messages[2]), float(trace.messages[3]))
    if variant == "lemma1":
        noise_diff = trace.z2 - (h1 / h2) * trace.z1
    else:
        noise_diff = trace.z2 - trace.z3
        enhanced_y3 = h2 * trace.x1 + h1 * trace.x2 + (h2 / h3) * trace.z3
    y2hat: list[float] = []
    for i in range(trace.n):
        x2hat = emit(encoders[1], side_messages, y2hat)
        if variant == "lemma1":
            y2tilde = (h1 / h2) * (trace.y1[i] - h3 * x2hat) + h3 * trace.x1[i]
        else:
            y2tilde = (h3 / h2) * (enhanced_y3[i] - h1 * x2hat) + h1 * trace.x3[i]
        y2hat.append(y2tilde + noise_diff[i])
    return np.array(y2hat)


def _initial_state(d):
    S = np.zeros((2, d, d))  # slice 0 message-driven, slice 1 noise-driven
    S[0, :6, :6] = np.eye(6)
    return S


def reference_power_parts(encoders, cfg, n):
    """sim._power_sums without the repeat shortcut: all n steps of S <- F S F' + G G'."""
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
    """(i, p) for the first state S_i of the full recursion that equals an earlier
    S_(i-p) bit for bit, of any period p, or None if none does up to S_horizon."""
    _, F, GG = _power_system(encoders, cfg)
    S = _initial_state(F.shape[0])
    FS = np.empty_like(S)
    Ft = F.T.copy()
    seen = {S.tobytes(): 0}
    for i in range(1, horizon + 1):  # the same in-place steps as the recursion
        np.matmul(F, S, out=FS)
        np.matmul(FS, Ft, out=S)
        S[1] += GG
        earlier = seen.setdefault(S.tobytes(), i)
        if earlier < i:
            return i, i - earlier
    return None


def simulate_network(encoders, cfg, n: int, seed: int) -> TransmissionTrace:
    """The step loop for encoders the caller built, after a full power pass.

    Rejects encoder triples whose expected block power exceeds any user's
    budget (apply normalize_power first).
    """
    A, C = _power_sums(encoders, cfg, n)
    power, budget = A + C, n * cfg.power
    if np.any(power > budget * (1.0 + _POWER_TOL)):
        worst = int(np.argmax(power))
        raise ValidationError(f"user {worst + 1} expected block power {power[worst]:.6g} exceeds "
                              f"budget {budget:.6g}; apply normalize_power")
    return _step_loop(encoders, cfg, *block_draws(n, seed))


def two_pass_simulation(cfg, n: int, seed: int):
    """(encoders, trace) of random two-tap encoders, checked by a second power pass.

    The scale is chosen from one unit-scale pass as normalize_power chooses
    it; simulate_network then runs a full power pass on the scaled encoders,
    whose finiteness and budget checks reject more than the simulator does:
    their scaled covariance can overflow where the power s^2 A + C fits.
    Wherever this accepts, sim.simulate_network must give the same block.
    """
    encoders = random_encoders(cfg, n_taps=2, seed=seed)
    A, C = _power_sums(tuple(e.with_scale(1.0) for e in encoders), cfg, n)
    budget = n * cfg.power
    for j in range(3):
        if C[j] > budget * (1.0 + _POWER_TOL):
            raise ValidationError(f"user {j + 1} feedback taps alone need expected power {C[j]:.6g} "
                                  f"> budget {budget:.6g}")
    scales = [math.sqrt(max(0.0, float(budget - C[j])) / float(A[j])) for j in range(3) if A[j] > 0]
    scaled = tuple(e.with_scale(min(scales) if scales else 1.0) for e in encoders)
    return scaled, simulate_network(scaled, cfg, n, seed)


def two_pass_genie_verdict(cfg, variant: str, n: int, seed: int) -> dict:
    """sim.genie_verdict's dict on the trace of two_pass_simulation."""
    encoders, trace = two_pass_simulation(cfg, n, seed)
    rebuild = genie_reconstruct_lemma1 if variant == "lemma1" else genie_reconstruct_lemma2
    error = reconstruction_error(rebuild(trace, cfg, encoders), trace)
    return {"max_rel_error": error, "n": n, "seed": seed, "variant": variant}

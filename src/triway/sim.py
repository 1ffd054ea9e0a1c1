"""Discrete-time simulation of the three-user full-duplex Gaussian network.

Time runs i = 1..n.  Each user emits x_j(i) from its two messages and its own
past receptions y_j(1..i-1) only, then the three receptions form exactly as

    y1(i) = h3 x2(i) + h2 x3(i) + z1(i)
    y2(i) = h3 x1(i) + h1 x3(i) + z2(i)
    y3(i) = h2 x1(i) + h1 x2(i) + z3(i)

with unit-variance iid noise.  No self term appears: self-interference is
assumed perfectly cancelled.

RNG streams are derived as default_rng([seed, k]) by _streams, so results are
bit-reproducible and independent of evaluation order.  The stream ids are per
entry point: a simulated block takes k = 0,1,2 for the three noise sequences,
3 for message symbols and 4 for random encoder parameters; the MI estimate
takes 0 and 1 for its input and noise, and the relay demo 0 and 1 for the two
users' symbols and 2,3,4 for its three noise sequences.
"""

from __future__ import annotations

import array
import dataclasses
import math

import numpy as np

from .model import _MAX_LENGTH, ChannelConfig, ValidationError

_POWER_TOL = 1e-9
_MAX_CYCLE = 1024  # longest cycle of power states _power_sums replays, from a chunk of 2.4 MB at most
_CHUNK = 4096  # samples per chunk where a whole-block path works in chunks rather than whole temporaries

# which message-vector entries each user owns, in (m12, m13, m21, m23, m31, m32) order
_MSG_INDEX = ((0, 1), (2, 3), (4, 5))


@dataclasses.dataclass(frozen=True)
class CausalEncoder:
    """Affine causal map x(i) = scale*(w . messages) + a*y(i-1) + b*y(i-2), (a, b) = feedback_weights.

    The simulator accepts only this two-tap affine family: power accounting
    reads message_weights, feedback_weights and message_scale directly to
    build the exact second-moment recursion, and the step loop and the genie
    recursions apply the map from the same fields in this operation order:
    the message term, plus a*y(i-1), plus b*y(i-2).  Steps 1 and 2 skip the
    receptions that do not exist yet, rather than add tap * 0.0, which would
    turn a -0.0 message term into 0.0.
    """

    message_weights: tuple[float, float]
    feedback_weights: tuple[float, float]
    message_scale: float = 1.0  # set by normalize_power

    def __post_init__(self):
        if len(self.feedback_weights) != 2:
            raise ValidationError(f"an encoder has 2 feedback taps, got {len(self.feedback_weights)}")

    def message_term(self, messages) -> float:
        """The constant part scale*(w . messages) of every symbol this encoder sends."""
        w0, w1 = self.message_weights
        return self.message_scale * (w0 * float(messages[0]) + w1 * float(messages[1]))

    def with_scale(self, scale: float) -> "CausalEncoder":
        return dataclasses.replace(self, message_scale=float(scale))


@dataclasses.dataclass(frozen=True)
class TransmissionTrace:
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    messages: np.ndarray  # (m12, m13, m21, m23, m31, m32)


def _streams(seed: int, *ids: int) -> tuple[np.random.Generator, ...]:
    """The generators default_rng([seed, k]) for k in ids, in order; the module docstring lists the ids."""
    return tuple(np.random.default_rng([seed, k]) for k in ids)


def _check_length(n: int) -> None:
    """The one length rule of a simulated block, a power pass and the relay: 1 <= n <= _MAX_LENGTH."""
    if n < 1:
        raise ValidationError("block length must be >= 1")
    if n > _MAX_LENGTH:
        raise ValidationError(f"block length must be <= {_MAX_LENGTH}, got {n}")


def random_encoders(cfg: ChannelConfig, n_taps: int, seed: int) -> tuple[CausalEncoder, ...]:
    """Random affine two-tap encoder triple (n_taps must be 2), power-normalized is the caller's job.

    Taps are drawn within +-0.5/(2 * max(1, 2*max|h|)), where max|h| is |h3| by the
    canonical order; that keeps the closed feedback loop contractive so n-step
    traces stay bounded.
    """
    if n_taps != 2:
        raise ValidationError(f"n_taps must be 2, got {n_taps!r}")
    rng, = _streams(seed, 4)
    tau = 0.5 / (2 * max(1.0, 2.0 * abs(cfg.gains.h3)))
    encoders = []
    for _ in range(3):
        mw = rng.standard_normal(2)
        encoders.append(CausalEncoder(message_weights=(float(mw[0]), float(mw[1])),
                                      feedback_weights=tuple(rng.uniform(-tau, tau, 2).tolist())))
    return tuple(encoders)


def _power_system(encoders, cfg: ChannelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projections a (x_j = a_j . s), transition F and noise injection G G' of the power state.

    The 12 slots of s(i) are the 6 messages, then y_j(i-1) and y_j(i-2) of
    each user j at slots 6 + 2(j-1) and 7 + 2(j-1)."""
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    link = ((0.0, h3, h2), (h3, 0.0, h1), (h2, h1, 0.0))  # y_j = sum_k link[j][k] x_k + z_j
    a = np.zeros((3, 12))
    for j, enc in enumerate(encoders):
        a[j, list(_MSG_INDEX[j])] = np.multiply(enc.message_scale, enc.message_weights)
        a[j, 6 + 2 * j:8 + 2 * j] = enc.feedback_weights
    F = np.zeros((12, 12))
    F[:6, :6] = np.eye(6)
    GG = np.zeros((12, 12))
    for j in range(3):
        b = 6 + 2 * j  # the slot of y_j(i-1)
        F[b] = link[j] @ a
        F[b + 1, b] = 1.0
        GG[b, b] = 1.0
    return a, F, GG


def _power_sums(encoders, cfg: ChannelConfig, n: int, start: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-user block power sum_i E[x_j(i)^2] split as (A, C): its message and noise parts.

    The state s(i) holds the 6 messages and the last two receptions of each
    user, so x_j(i) = a_j . s(i) and s(i+1) = F s(i) + G z(i) with
    unit-variance noise z.  Its covariance therefore moves as
    S <- F S F' + G G', and the block power of user j is
    a_j' (sum_i S_i) a_j: O(n) time and O(1) memory in the block length.
    By superposition the message-driven part starts from S = diag(start 1_6, 0),
    messages of variance `start`, with no injection and the noise-driven part
    from S = 0 with injection; both go through the same F as one (2, 12, 12)
    stack, so one stacked pass yields both sums, and A and C are their
    projections.  A + C must be finite.

    Each stack depends only on the one before it, so once a stack equals an
    earlier one bit for bit, the stacks repeat with that period for the rest
    of the block.  Each stack is compared with the one before it (a fixed
    point) and with a checkpoint moved to steps 1, 2, 4, 8, ... (Brent's
    cycle detection), which stops within 2 max(p, steps before the cycle) + 2p
    steps on a cycle of any period p.  The loop then steps through one period,
    writing its stacks into rows 1..p of a chunk of K = p ceil(64/p) rows,
    copies them into the later whole periods of the chunk, stops the matmuls
    and adds the remaining steps' stacks by _replay, one chunk per reduction,
    so the sum stays bit-identical to the full loop (m * S would not be).
    Most configs reach a fixed point within a few dozen steps; a cycle longer
    than _MAX_CYCLE just runs the full loop.  The test compares raw bytes, so
    0.0 and -0.0 differ and an overflowed state repeats only if its NaN and
    inf bits repeat.
    """
    _check_length(n)  # for direct callers: simulate_network checks the length before it draws
    # huge gains or scales overflow the state; the projected power is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        a, F, GG = _power_system(encoders, cfg)
        S = np.zeros((2, 12, 12))  # slice 0 message-driven, slice 1 noise-driven
        S[0, :6, :6] = start * np.eye(6)
        noise = S[1]  # a view: every update below writes S in place
        total = np.zeros((2, 12, 12))
        FS = np.empty((2, 12, 12))
        Ft = F.T.copy()

        def step() -> bytes:  # preallocated buffers: no matrix allocation per step
            np.matmul(F, S, out=FS)
            np.matmul(FS, Ft, out=S)
            np.add(noise, GG, out=noise)
            return S.tobytes()

        previous = checkpoint = S.tobytes()
        mark = 0  # the step of the checkpoint
        for i in range(n):
            total += S
            state = step()  # the stack of step i + 1
            period = 1 if state == previous else i + 1 - mark if state == checkpoint else 0
            if 0 < period <= _MAX_CYCLE:  # every later stack repeats this cycle
                chunk = np.empty((period * -(-64 // period) + 1, 2, 12, 12))
                chunk[1] = S
                for k in range(2, min(period, n - 1 - i) + 1):
                    step()
                    chunk[k] = S
                chunk[1 + period:].reshape(-1, period, 2, 12, 12)[:] = chunk[1:1 + period]  # later periods
                _replay(total, chunk, n - 1 - i)
                break
            if i & (i + 1) == 0:  # i + 1 is a power of two
                checkpoint, mark = state, i + 1
            previous = state
        A, C = (np.einsum("jd,de,je->j", a, part, a) for part in total)
        if not np.all(np.isfinite(A + C)):  # A, C >= 0: finite iff both are
            raise ValidationError(f"expected block power over n={n} is not finite: "
                                  "the gains, power or message scale leave the float range")
    return A, C


def _replay(total: np.ndarray, stacks: np.ndarray, count: int) -> None:
    """total += stacks[1], stacks[2], ..., stacks[-1], stacks[1], ..., count additions in order, bit for bit.

    Each chunk copies total into the scratch row stacks[0] and reduces rows 0..m over axis 0, which
    numpy adds row by row for every entry (it sums pairwise only along a contiguous reduced axis).  The
    reduction starts from -0.0, which leaves every total as it is; numpy's +0.0 turns -0.0 into 0.0."""
    rows = len(stacks) - 1
    for done in range(0, count, rows):
        stacks[0] = total
        np.add.reduce(stacks[:min(rows, count - done) + 1], axis=0, out=total, initial=-0.0)


def expected_block_power(encoders, cfg: ChannelConfig, n: int) -> np.ndarray:
    """Per-user expected block power sum_i E[x_j(i)^2] for the encoders as given: A + C."""
    A, C = _power_sums(encoders, cfg, n)
    return A + C


def normalize_power(encoders, cfg: ChannelConfig, n: int) -> tuple[CausalEncoder, ...]:
    """Set a common message scale so every user's expected block power is <= nP.

    The encoders are affine, so by superposition power_j = s^2 A_j + C_j at
    message scale s, with A and C from one unit-scale pass of _power_sums, and
    the largest admissible common scale is min_j sqrt((nP - C_j)/A_j).  No
    second check follows: s is chosen so that every power fits the budget, and
    a trace that leaves the float range is rejected by simulate_network, where
    it is made.  Where the unit-scale pass overflows, it runs once more with
    messages of variance c^2, c = 2^-e for e the binary exponent of
    max|h| = |h3|, and A = A'/c^2: scaling by a power of two is exact.
    """
    unit = tuple(e.with_scale(1.0) for e in encoders)
    try:
        A, C = _power_sums(unit, cfg, n)
    except ValidationError:
        c2 = math.ldexp(1.0, -2 * math.frexp(cfg.gains.h3)[1])
        A, C = _power_sums(unit, cfg, n, start=c2)
        A = A / c2
    budget = n * cfg.power
    for j in range(3):
        if C[j] > budget * (1.0 + _POWER_TOL):
            raise ValidationError(f"user {j + 1} feedback taps alone need expected power {C[j]:.6g} "
                                  f"> budget {budget:.6g}")
    s = min((math.sqrt(max(0.0, float(budget - C[j])) / float(A[j])) for j in range(3) if A[j] > 0),
            default=1.0)
    return tuple(e.with_scale(s) for e in encoders)


def simulate_network(cfg: ChannelConfig, n: int,
                     seed: int) -> tuple[tuple[CausalEncoder, ...], TransmissionTrace]:
    """Random two-tap encoders scaled by normalize_power, then the step loop: (encoders, trace).

    The noise and messages are drawn first, so a block too long to hold fails at its first
    allocation, not after the O(n) power pass.  The block makes one power pass.  Its trace is
    checked here, where it is made: an x or y that left the float range is rejected, one array at
    a time, so the check holds one bool per step."""
    _check_length(n)
    streams = _streams(seed, 0, 1, 2, 3)  # z1, z2, z3 and the messages
    noise, messages = tuple(rng.standard_normal(n) for rng in streams[:3]), streams[3].standard_normal(6)
    encoders = normalize_power(random_encoders(cfg, n_taps=2, seed=seed), cfg, n)
    trace = _step_loop(encoders, cfg, noise, messages)
    if not all(np.isfinite(v).all() for v in (trace.x1, trace.x2, trace.x3, trace.y1, trace.y2, trace.y3)):
        raise ValidationError(f"simulated trace over n={n} at message scale s={encoders[0].message_scale:.6g} "
                              "is not finite: the gains or power leave the float range")
    return encoders, trace


def _step_loop(encoders, cfg: ChannelConfig, noise, messages: np.ndarray) -> TransmissionTrace:
    """Each CausalEncoder map, on the noise (z1, z2, z3), in its operation order on Python floats (whose
    products and sums round as numpy's do): the message term, plus a*y(i-1), plus b*y(i-2).

    The loop reads the noise through memoryviews and keeps only the receptions, 8 bytes each in typed
    buffers that the trace's y arrays are views of; the symbols are derived from them afterwards in
    numpy by the same operations in the same order."""
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    terms = [enc.message_term(messages[list(_MSG_INDEX[j])]) for j, enc in enumerate(encoders)]
    taps = [tuple(map(float, enc.feedback_weights)) for enc in encoders]
    (t1, t2, t3), ((a1, b1), (a2, b2), (a3, b3)) = terms, taps
    y1s, y2s, y3s = (array.array("d") for _ in range(3))
    put1, put2, put3 = y1s.append, y2s.append, y3s.append
    steps = zip(*map(memoryview, noise))
    p1 = p2 = p3 = 0.0  # y_j(i-1), read from step 2 on; q_j is y_j(i-2), read from step 3 on
    for i, (z1, z2, z3) in zip(range(2), steps):  # steps 1 and 2 skip the receptions not heard yet
        x1, x2, x3 = (t1 + a1 * p1, t2 + a2 * p2, t3 + a3 * p3) if i else terms
        q1, q2, q3 = p1, p2, p3
        p1, p2, p3 = h3 * x2 + h2 * x3 + z1, h3 * x1 + h1 * x3 + z2, h2 * x1 + h1 * x2 + z3
        put1(p1), put2(p2), put3(p3)
    for z1, z2, z3 in steps:
        x1, x2, x3 = t1 + a1 * p1 + b1 * q1, t2 + a2 * p2 + b2 * q2, t3 + a3 * p3 + b3 * q3
        q1, q2, q3 = p1, p2, p3
        p1, p2, p3 = h3 * x2 + h2 * x3 + z1, h3 * x1 + h1 * x3 + z2, h2 * x1 + h1 * x2 + z3
        put1(p1)
        put2(p2)
        put3(p3)
    ys = np.frombuffer(y1s), np.frombuffer(y2s), np.frombuffer(y3s)
    xs = tuple(np.full(len(y), t) for t, y in zip(terms, ys))
    with np.errstate(over="ignore", invalid="ignore"):  # simulate_network rejects a non-finite trace
        for x, y, (a, b) in zip(xs, ys, taps):  # x(i) = (t + a*y(i-1)) + b*y(i-2), each tap once heard
            x[1:] += a * y[:-1]
            x[2:] += b * y[:-2]
    return TransmissionTrace(*xs, *ys, *noise, messages)


def _rebuild_y2(enc2: CausalEncoder, trace: TransmissionTrace, noise_diff: np.ndarray,
               ratio: float, heard: np.ndarray, gain: float, known: np.ndarray) -> np.ndarray:
    """y2(i) = ratio * (heard(i) - gain * x2(i)) + gain * known(i) + noise_diff(i).

    x2(i) is re-derived from user 2's encoder on the y2 rebuilt so far, in
    the step loop's operation order, from the granted (m21, m23).  As in the
    step loop, the inputs are read through memoryviews and the result is a
    view of a typed buffer.
    """
    term = enc2.message_term(trace.messages[2:4])  # (m21, m23): one granted, one treated as decoded
    a, b = map(float, enc2.feedback_weights)
    y2hat = array.array("d")
    put = y2hat.append
    steps = zip(memoryview(heard), memoryview(known), memoryview(noise_diff))
    p = 0.0  # y2(i-1), read from step 2 on; q is y2(i-2), read from step 3 on
    for i, (h, k, nd) in zip(range(2), steps):  # steps 1 and 2 skip the receptions not rebuilt yet
        q, p = p, ratio * (h - gain * (term + a * p if i else term)) + gain * k + nd
        put(p)
    for h, k, nd in steps:  # x2hat(i) = term + a*p + b*q
        q, p = p, ratio * (h - gain * (term + a * p + b * q)) + gain * k + nd
        put(p)
    return np.frombuffer(y2hat)


def _check_invertible(cfg: ChannelConfig, variant: str) -> None:
    """Reject h2 = 0, which both rebuilds divide by; lemma2's h3 is nonzero since |h3| >= |h2|."""
    if cfg.gains.h2 == 0:
        raise ValidationError("singular configuration: h2 = 0"
                              + (" or h3 = 0" if variant == "lemma2" else ""))


def genie_reconstruct_lemma1(trace: TransmissionTrace, cfg: ChannelConfig, encoders) -> np.ndarray:
    """User 1 regenerates y2 from its own data plus (m21, m23) and z2 - (h1/h2) z1.

    The genie's side information is formed here, from the trace.  Recursion:
    x2(i) is re-derived from user 2's encoder on the y2 rebuilt so far;
    stripping h3 x2(i) from y1(i) leaves h2 x3(i) + z1(i), which scaled by
    h1/h2 and shifted by h3 x1(i) is h3 x1(i) + h1 x3(i) + (h1/h2) z1(i);
    adding the granted noise difference lands exactly on y2(i).
    """
    _check_invertible(cfg, "lemma1")
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    noise_diff = (h1 / h2) * trace.z1
    np.subtract(trace.z2, noise_diff, out=noise_diff)
    return _rebuild_y2(encoders[1], trace, noise_diff, h1 / h2, trace.y1, h3, trace.x1)


def genie_reconstruct_lemma2(trace: TransmissionTrace, cfg: ChannelConfig, encoders) -> np.ndarray:
    """Enhanced user 3 regenerates y2 from (m21, m23) and z2 - z3; its noise is (h2/h3) z3.

    The genie's side information is formed here, from the trace.  The enhanced
    reception is y3'(i) = h2 x1(i) + h1 x2(i) + (h2/h3) z3(i), formed from
    the channel terms.  Shifting y3 by (h2/h3 - 1) z3 instead cancels y3
    almost entirely when |h2/h3| is tiny, and the h3/h2 scaling below then
    magnifies the rounding error of that cancellation.  Stripping the
    re-derived h1 x2(i), scaling by h3/h2 and adding h1 x3(i) gives
    h3 x1(i) + h1 x3(i) + z3(i); adding z2 - z3 lands on y2(i).  y3' is
    summed in place, in that order, and the array that held its second and
    third terms then holds z2 - z3.
    """
    _check_invertible(cfg, "lemma2")
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    enhanced_y3, term = h2 * trace.x1, h1 * trace.x2
    enhanced_y3 += term
    enhanced_y3 += np.multiply(h2 / h3, trace.z3, out=term)
    noise_diff = np.subtract(trace.z2, trace.z3, out=term)
    return _rebuild_y2(encoders[1], trace, noise_diff, h3 / h2, enhanced_y3, h1, trace.x3)


def reconstruction_error(reconstructed: np.ndarray, trace: TransmissionTrace) -> float:
    """Peak |reconstructed - true y2| relative to the true sequence's peak (floor 1).

    The difference and its magnitude share one array.  The peak of |y2| is max(max y2, -min y2),
    which is exact on the finite trace simulate_network returns."""
    error = np.subtract(reconstructed, trace.y2)
    peak = float(np.abs(error, out=error).max())
    y2 = trace.y2
    return peak / max(1.0, float(max(y2.max(), -y2.min())))


def genie_verdict(cfg: ChannelConfig, variant: str, n: int, seed: int) -> dict:
    """End-to-end reconstruction check with two-tap encoders; the dict is the CLI's verdict.

    An unknown variant or singular gains are rejected before anything is simulated."""
    if variant not in ("lemma1", "lemma2"):
        raise ValidationError(f"unknown genie variant {variant!r}")
    _check_invertible(cfg, variant)
    encoders, trace = simulate_network(cfg, n, seed)
    rebuild = genie_reconstruct_lemma1 if variant == "lemma1" else genie_reconstruct_lemma2
    error = reconstruction_error(rebuild(trace, cfg, encoders), trace)
    if not math.isfinite(error):  # NaN would also slip past the caller's error < tol test
        raise ValidationError(f"genie {variant} reconstruction is not finite: the gain "
                              "ratio it scales by leaves the float range")
    return {
        "max_rel_error": error,
        "n": int(n),
        "seed": int(seed),
        "variant": variant,
    }


def estimate_p2p_mi(cfg: ChannelConfig, sample_count: int, seed: int) -> float:
    """Monte Carlo mutual information of link h3: Gaussian input at power P, unit noise.

    Uses the Gaussian closed form on raw sample second moments,
    -0.5 log2(1 - rho^2); converges to cap(h3^2 P).

    The input and noise draws are the only whole-sample arrays: x is scaled in place, and
    y = h x + z is formed in the noise draw's buffer, _CHUNK samples at a time, as z + h x, which
    is the same sum bit for bit.  The three moments are whole-array BLAS dots.
    """
    if sample_count < 10 ** 4:
        raise ValidationError(f"sample_count must be >= 1e4, got {sample_count}")
    if sample_count > _MAX_LENGTH:
        raise ValidationError(f"sample_count must be <= {_MAX_LENGTH}, got {sample_count}")
    h = cfg.gains.h3
    x, z = (rng.standard_normal(sample_count) for rng in _streams(seed, 0, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments are rejected below
        x *= math.sqrt(cfg.power)
        y = z  # y = h x + z, as z + h x
        for i in range(0, sample_count, _CHUNK):
            y[i:i + _CHUNK] += h * x[i:i + _CHUNK]
        ns = float(sample_count)
        sxx, syy, sxy = float(x @ x) / ns, float(y @ y) / ns, float(x @ y) / ns
    if not (math.isfinite(sxx * syy) and sxx * syy > 0.0):
        raise ValidationError(f"link h3: sample second moments at P={cfg.power!r} "
                              "leave the float range")
    rho2 = sxy * sxy / (sxx * syy)
    if not rho2 < 1.0:
        raise ValidationError(f"link h3: h^2 P = {h * h * cfg.power:.6g} is too strong for a "
                              f"{sample_count}-sample estimate, the sample correlation rounds to 1")
    return -0.5 * math.log1p(-rho2) / math.log(2.0)


def _pam_index(statistic: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """The PAM decision rint(statistic) mod q into the int64 array out, for statistics an int64
    holds exactly; statistic is rounded in place."""
    if not np.all(np.abs(statistic) < 2.0 ** 53):  # also False for inf and NaN
        raise ValidationError("relay decision statistic leaves the float range: gain h2 "
                              "and power are too extreme for the PAM exchange")
    np.copyto(out, np.rint(statistic, out=statistic), casting="unsafe")
    out %= q
    return out


def _pnc_exchange(cfg: ChannelConfig, q: int, a: np.ndarray, b: np.ndarray, z_relay: np.ndarray,
                  z_user2: np.ndarray, z_user3: np.ndarray) -> tuple[float, float]:
    """simulate_pnc_relay's exchange of indices a (user 2) and b (user 3) under the given noise.

    The statistics are formed in place in two float arrays, by the operations of the formulas
    below in their order, and the decisions in one int64 array.  The inputs are only read, so one
    array may be passed as several of them."""
    h2 = cfg.gains.h2
    alpha = math.sqrt(12.0 * cfg.power / (q * q - 1.0))  # unit-power PAM spacing
    offset = (q - 1) / 2.0
    index = np.empty(len(a), dtype=np.int64)
    errors = 0
    with np.errstate(all="ignore"):  # _pam_index rejects statistics that left the float range
        # the relay hears h2 (alpha (a - offset) + alpha (b - offset)) + z_relay
        s, t = np.subtract(a, offset), np.subtract(b, offset)
        s *= alpha
        s += np.multiply(t, alpha, out=t)
        s *= h2
        s += z_relay
        s /= h2 * alpha
        s += q - 1
        # it decodes u = (a + b) mod q and sends alpha (u - offset); each user hears h2 times that
        np.subtract(_pam_index(s, q, index), offset, out=s)
        s *= alpha
        s *= h2
        for z_user, own, other in ((z_user2, a, b), (z_user3, b, a)):  # (s + z_user) / (h2 alpha) + offset
            np.add(s, z_user, out=t)
            t /= h2 * alpha
            t += offset
            estimate = _pam_index(t, q, index)
            estimate -= own  # each user removes its own index to get the other's
            estimate %= q
            errors += int(np.count_nonzero(estimate != other))
    ser = errors / (2.0 * len(a))
    return ser, math.log2(q) * (1.0 - ser)


def simulate_pnc_relay(cfg: ChannelConfig, pam_order: int, n: int, seed: int) -> tuple[float, float]:
    """Scalar modulo-PAM exchange of users 2 and 3 through user 1.

    A desk-scale stand-in for nested-lattice relaying: both hops run at gain
    h2 (the bottleneck uplink that sets the closed-form lattice rate).  The
    relay decodes the modulo-q sum of the two PAM indices, rebroadcasts it,
    and each end subtracts its own index.  Returns (symbol error rate over
    both directions, log2(q) * (1 - SER)).
    """
    q = pam_order
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 2 or q % 2 != 0:
        raise ValidationError(f"pam_order must be an even integer >= 2, got {pam_order!r}")
    q = int(q)
    if cfg.gains.h2 == 0:
        raise ValidationError("relay links run at gain h2, which must be nonzero")
    _check_length(n)
    streams = _streams(seed, 0, 1, 2, 3, 4)  # users 2 and 3's indices, then the relay's and their noise
    a, b = (rng.integers(0, q, n) for rng in streams[:2])
    return _pnc_exchange(cfg, q, a, b, *(rng.standard_normal(n) for rng in streams[2:]))

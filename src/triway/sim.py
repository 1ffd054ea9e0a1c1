"""Discrete-time simulation of the three-user full-duplex Gaussian network.

Time runs i = 1..n.  Each user emits x_j(i) from its two messages and its own
past receptions y_j(1..i-1) only, then the three receptions form exactly as

    y1(i) = h3 x2(i) + h2 x3(i) + z1(i)
    y2(i) = h3 x1(i) + h1 x3(i) + z2(i)
    y3(i) = h2 x1(i) + h1 x2(i) + z3(i)

with unit-variance iid noise.  No self term appears: self-interference is
assumed perfectly cancelled.

RNG streams are derived as default_rng([seed, k]): k = 0,1,2 for the three
noise sequences, 3 for message symbols, 4 for random encoder parameters, so
results are bit-reproducible and independent of evaluation order.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from collections.abc import Iterator

import numpy as np

from .model import ChannelConfig, ValidationError

_POWER_TOL = 1e-9
_MAX_PERIOD = 4  # longest cycle of power states _power_parts detects

TRACE_CSV_HEADER = "i,x1,x2,x3,y1,y2,y3,z1,z2,z3"

# which message-vector entries each user owns, in (m12, m13, m21, m23, m31, m32) order
_MSG_INDEX = ((0, 1), (2, 3), (4, 5))


@dataclasses.dataclass(frozen=True)
class CausalEncoder:
    """Affine causal map x(i) = scale*(w . messages) + sum_k tap_k * y(i-1-k).

    The simulator accepts only this affine family: power accounting reads
    message_weights, feedback_weights and message_scale directly to build the
    exact second-moment recursion, and the step loop and the genie recursions
    redo emit's arithmetic from the same fields.  An object that merely has
    the same emit signature is not enough.
    """

    message_weights: tuple[float, float]
    feedback_weights: tuple[float, ...] = ()
    message_scale: float = 1.0  # set by normalize_power

    def message_term(self, messages) -> float:
        """The constant part scale*(w . messages) of every symbol this encoder sends."""
        w0, w1 = self.message_weights
        return self.message_scale * (w0 * float(messages[0]) + w1 * float(messages[1]))

    def emit(self, messages, received) -> float:
        """Transmit symbol at time i given own messages and y(1..i-1), oldest first."""
        x = self.message_term(messages)
        hist = len(received)
        for k, tap in enumerate(self.feedback_weights):
            if k < hist:
                x += tap * float(received[hist - 1 - k])
        return x

    def with_scale(self, scale: float) -> "CausalEncoder":
        return dataclasses.replace(self, message_scale=float(scale))


@dataclasses.dataclass(frozen=True)
class ChannelRealization:
    n: int
    seed: int
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray


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

    @property
    def n(self) -> int:
        return len(self.x1)

    def as_table(self) -> tuple[tuple[str, ...], Iterator[tuple]]:
        """The trace CSV: step i from 1, then x, y and z of every user at step i."""
        columns = (self.x1, self.x2, self.x3, self.y1, self.y2, self.y3, self.z1, self.z2, self.z3)
        return tuple(TRACE_CSV_HEADER.split(",")), zip(range(1, self.n + 1), *(c.tolist() for c in columns))


@dataclasses.dataclass(frozen=True)
class GenieSideInfo:
    variant: str  # "lemma1" | "lemma2"
    side_messages: tuple[float, float]  # (m21, m23): one granted, one treated as decoded
    noise_diff: np.ndarray  # lemma1: z2 - (h1/h2) z1 ; lemma2: z2 - z3


def draw_realization(n: int, seed: int) -> ChannelRealization:
    if n < 1:
        raise ValidationError(f"block length must be >= 1, got {n}")
    z1, z2, z3 = (np.random.default_rng([int(seed), k]).standard_normal(int(n)) for k in range(3))
    return ChannelRealization(n=int(n), seed=int(seed), z1=z1, z2=z2, z3=z3)


def draw_messages(seed: int) -> np.ndarray:
    return np.random.default_rng([int(seed), 3]).standard_normal(6)


def random_encoders(cfg: ChannelConfig, n_taps: int, seed: int) -> tuple[CausalEncoder, ...]:
    """Random affine encoder triple, power-normalized is the caller's job.

    Taps are drawn within +-0.5/(n_taps * max(1, 2*max|h|)); that keeps the
    closed feedback loop contractive so n-step traces stay bounded.
    """
    if n_taps < 0:
        raise ValidationError("n_taps must be >= 0")
    rng = np.random.default_rng([int(seed), 4])
    hmax = max(abs(cfg.gains.h1), abs(cfg.gains.h2), abs(cfg.gains.h3))
    tau = 0.5 / (max(1, n_taps) * max(1.0, 2.0 * hmax))
    encoders = []
    for _ in range(3):
        mw = rng.standard_normal(2)
        taps = tuple(rng.uniform(-tau, tau, n_taps)) if n_taps else ()
        encoders.append(CausalEncoder(message_weights=(float(mw[0]), float(mw[1])),
                                      feedback_weights=taps))
    return tuple(encoders)


def _power_system(encoders, cfg: ChannelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projections a (x_j = a_j . s), transition F and noise injection G G' of the power state."""
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    link = ((0.0, h3, h2), (h3, 0.0, h1), (h2, h1, 0.0))  # y_j = sum_k link[j][k] x_k + z_j
    lags = [len(enc.feedback_weights) for enc in encoders]
    base = [6 + sum(lags[:j]) for j in range(3)]  # first (newest) lag slot of y_j
    d = 6 + sum(lags)
    a = np.zeros((3, d))
    for j, enc in enumerate(encoders):
        a[j, list(_MSG_INDEX[j])] = np.multiply(enc.message_scale, enc.message_weights)
        a[j, base[j]:base[j] + lags[j]] = enc.feedback_weights
    F = np.zeros((d, d))
    F[:6, :6] = np.eye(6)
    GG = np.zeros((d, d))
    for j in range(3):
        if lags[j]:
            b = base[j]
            F[b] = link[j] @ a
            for k in range(1, lags[j]):
                F[b + k, b + k - 1] = 1.0
            GG[b, b] = 1.0
    return a, F, GG


def _power_parts(encoders, cfg: ChannelConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user block power sum_i E[x_j(i)^2] split as (A, C): messages, noise.

    The state s(i) holds the 6 unit-variance messages and the last K_j
    receptions of each user, so x_j(i) = a_j . s(i) and
    s(i+1) = F s(i) + G z(i) with unit-variance noise z.  Its covariance
    therefore moves as S <- F S F' + G G', and the block power of user j is
    a_j' (sum_i S_i) a_j: O(n) time and O(1) memory in the block length.
    By superposition the message-driven part starts from S = diag(1_6, 0)
    with no injection and the noise-driven part from S = 0 with injection;
    both go through the same F as one (2, d, d) stack, so one stacked pass
    yields A and C, and A + C is the full expected power.

    Each stack depends only on the one before it, so once the stack equals,
    bit for bit, one of the last _MAX_PERIOD stacks, the states repeat with
    that period for the rest of the block.  The loop then stops the matmuls
    and replays the cycle into the total one addition per remaining step,
    in order, so the sum stays bit-identical to the full loop (m * S would
    not be).  Most configs reach such a fixed point or short cycle within a
    few dozen steps.  The test compares raw bytes, so 0.0 and -0.0 differ
    and an overflowed state repeats only if its NaN and inf bits repeat.
    """
    # huge gains or scales overflow the state; the result is checked instead
    with np.errstate(over="ignore", invalid="ignore"):
        a, F, GG = _power_system(encoders, cfg)
        d = F.shape[0]
        S = np.zeros((2, d, d))  # slice 0 message-driven, slice 1 noise-driven
        S[0, :6, :6] = np.eye(6)
        noise = S[1]  # a view: every update below writes S in place
        total = np.zeros((2, d, d))
        FS = np.empty((2, d, d))
        Ft = F.T.copy()
        state = S.tobytes()
        recent: collections.deque[bytes] = collections.deque(maxlen=_MAX_PERIOD)
        for i in range(n):  # preallocated buffers: no matrix allocation per step
            total += S
            recent.append(state)
            np.matmul(F, S, out=FS)
            np.matmul(FS, Ft, out=S)
            noise += GG
            state = S.tobytes()
            if state in recent:  # S repeats bit for bit: so does every later state
                cycle = [np.frombuffer(b).reshape(S.shape)
                         for b in itertools.islice(recent, recent.index(state), None)]
                for k in range(n - 1 - i):  # the loop's own additions, in its order
                    total += cycle[k % len(cycle)]
                break
        A, C = (np.einsum("jd,de,je->j", a, part, a) for part in total)
        if not np.all(np.isfinite(A + C)):  # A, C >= 0: finite iff both are
            raise ValidationError(f"expected block power over n={n} is not finite: "
                                  "the gains, power or message scale leave the float range")
    return A, C


def expected_block_power(encoders, cfg: ChannelConfig, n: int) -> np.ndarray:
    """Per-user expected block power sum_i E[x_j(i)^2] for the encoders as given."""
    if n < 1:
        raise ValidationError("block length must be >= 1")
    A, C = _power_parts(encoders, cfg, n)
    return A + C


def normalize_power(encoders, cfg: ChannelConfig, n: int) -> tuple[CausalEncoder, ...]:
    """Set a common message scale so every user's expected block power is <= nP.

    By superposition the message response scales with s and the noise-driven
    response does not, so power_j = s^2 A_j + C_j and the largest admissible
    common scale is sqrt(min_j (nP - C_j)/A_j); one stacked pass of
    _power_parts at unit scale yields A and C.
    """
    if n < 1:
        raise ValidationError("block length must be >= 1")
    unit = tuple(e.with_scale(1.0) for e in encoders)
    A, C = _power_parts(unit, cfg, n)
    budget = n * cfg.power
    scales = []
    for j in range(3):
        if C[j] > budget * (1.0 + _POWER_TOL):
            raise ValidationError(
                f"user {j + 1} feedback taps alone need expected power {C[j]:.6g} > budget {budget:.6g}"
            )
        if A[j] > 0:  # Python floats: an overflow gives inf, which simulate_network rejects
            scales.append(math.sqrt(max(0.0, float(budget - C[j])) / float(A[j])))
    s = min(scales) if scales else 1.0
    return tuple(e.with_scale(s) for e in encoders)


def _lag_schedule(taps: tuple[float, ...]) -> Iterator[tuple[tuple[float, int], ...]]:
    """Per step i = 1, 2, ...: the (tap, lag) pairs an encoder applies, lag -1 first.

    Lag -k reads the k-th newest reception by negative index.  In the first
    K = len(taps) steps only i - 1 receptions exist, so the tuple is cut to
    them: a missing lag is skipped, as CausalEncoder.emit skips it, not added
    as tap * 0.0, which would turn a -0.0 message term into 0.0.  Taps become
    Python floats, whose products and sums round as numpy's do.
    """
    lagged = tuple(zip(map(float, taps), range(-1, -len(taps) - 1, -1)))
    return itertools.chain((lagged[:i] for i in range(len(lagged))), itertools.repeat(lagged))


def simulate_network(encoders, cfg: ChannelConfig, n: int, seed: int) -> TransmissionTrace:
    """Time-stepped run of the three encoders through the channel equations.

    Rejects encoder triples whose expected block power exceeds any user's
    budget (apply normalize_power first).  The loop computes what
    CausalEncoder.emit computes, in the same operation order: each user's
    message term once, then its taps over its own receptions, newest first,
    each read by its lag from _lag_schedule.
    """
    if n < 1:
        raise ValidationError(f"block length must be >= 1, got {n}")
    expected = expected_block_power(encoders, cfg, n)
    budget = n * cfg.power
    if np.any(expected > budget * (1.0 + _POWER_TOL)):
        worst = int(np.argmax(expected))
        raise ValidationError(
            f"user {worst + 1} expected block power {expected[worst]:.6g} exceeds "
            f"budget {budget:.6g}; apply normalize_power"
        )
    real = draw_realization(n, seed)
    messages = draw_messages(seed)
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    x1s: list[float] = []
    x2s: list[float] = []
    x3s: list[float] = []
    y1s: list[float] = []
    y2s: list[float] = []
    y3s: list[float] = []
    t1, t2, t3 = (enc.message_term(messages[list(_MSG_INDEX[j])]) for j, enc in enumerate(encoders))
    schedule = zip(*(_lag_schedule(enc.feedback_weights) for enc in encoders))
    for z1, z2, z3, (p1, p2, p3) in zip(real.z1.tolist(), real.z2.tolist(), real.z3.tolist(), schedule):
        x1 = t1
        for tap, lag in p1:
            x1 += tap * y1s[lag]
        x2 = t2
        for tap, lag in p2:
            x2 += tap * y2s[lag]
        x3 = t3
        for tap, lag in p3:
            x3 += tap * y3s[lag]
        x1s.append(x1)
        x2s.append(x2)
        x3s.append(x3)
        y1s.append(h3 * x2 + h2 * x3 + z1)
        y2s.append(h3 * x1 + h1 * x3 + z2)
        y3s.append(h2 * x1 + h1 * x2 + z3)
    return TransmissionTrace(
        x1=np.array(x1s), x2=np.array(x2s), x3=np.array(x3s),
        y1=np.array(y1s), y2=np.array(y2s), y3=np.array(y3s),
        z1=real.z1, z2=real.z2, z3=real.z3,
        messages=messages,
    )


def _scaled_dev(delta: np.ndarray, reference: np.ndarray) -> float:
    """Peak deviation relative to the peak of the reference, floored at scale 1."""
    scale = max(1.0, float(np.max(np.abs(reference))) if len(reference) else 1.0)
    return float(np.max(np.abs(delta))) / scale if len(delta) else 0.0


def make_genie_side_info(trace: TransmissionTrace, cfg: ChannelConfig, variant: str) -> GenieSideInfo:
    """Side information the converse proofs grant: (m21, m23) plus a noise difference."""
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    if variant == "lemma1":
        if h2 == 0:
            raise ValidationError("singular configuration: h2 = 0")
        noise_diff = trace.z2 - (h1 / h2) * trace.z1
    elif variant == "lemma2":
        if h2 == 0 or h3 == 0:
            raise ValidationError("singular configuration: h2 = 0 or h3 = 0")
        noise_diff = trace.z2 - trace.z3
    else:
        raise ValidationError(f"unknown genie variant {variant!r}")
    side_messages = (float(trace.messages[2]), float(trace.messages[3]))  # (m21, m23)
    return GenieSideInfo(variant=variant, side_messages=side_messages, noise_diff=noise_diff)


def _rebuild_y2(enc2: CausalEncoder, side: GenieSideInfo, ratio: float,
               heard: np.ndarray, gain: float, known: np.ndarray) -> np.ndarray:
    """y2(i) = ratio * (heard(i) - gain * x2(i)) + gain * known(i) + noise_diff(i).

    x2(i) is re-derived from user 2's encoder on the y2 rebuilt so far, as
    CausalEncoder.emit computes it and in the same operation order.
    """
    term = enc2.message_term(side.side_messages)
    y2hat: list[float] = []
    for h, k, nd, pairs in zip(heard.tolist(), known.tolist(), side.noise_diff.tolist(),
                               _lag_schedule(enc2.feedback_weights)):
        x2hat = term
        for tap, lag in pairs:
            x2hat += tap * y2hat[lag]
        y2hat.append(ratio * (h - gain * x2hat) + gain * k + nd)
    return np.array(y2hat)


def genie_reconstruct_lemma1(trace: TransmissionTrace, cfg: ChannelConfig,
                             encoders, side: GenieSideInfo) -> np.ndarray:
    """User 1 regenerates y2 from its own data plus (m21, m23) and z2 - (h1/h2) z1.

    Recursion: x2(i) is re-derived from user 2's encoder on the y2 rebuilt so
    far; stripping h3 x2(i) from y1(i) leaves h2 x3(i) + z1(i), which scaled
    by h1/h2 and shifted by h3 x1(i) is h3 x1(i) + h1 x3(i) + (h1/h2) z1(i);
    adding the granted noise difference lands exactly on y2(i).
    """
    if side.variant != "lemma1":
        raise ValidationError(f"side info variant {side.variant!r} does not match lemma1")
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    if h2 == 0:
        raise ValidationError("singular configuration: h2 = 0")
    return _rebuild_y2(encoders[1], side, h1 / h2, trace.y1, h3, trace.x1)


def genie_reconstruct_lemma2(trace: TransmissionTrace, cfg: ChannelConfig,
                             encoders, side: GenieSideInfo) -> np.ndarray:
    """Enhanced user 3 regenerates y2; its noise is replaced by (h2/h3) z3.

    The enhanced reception is y3'(i) = h2 x1(i) + h1 x2(i) + (h2/h3) z3(i),
    formed from the channel terms.  Shifting y3 by (h2/h3 - 1) z3 instead
    cancels y3 almost entirely when |h2/h3| is tiny, and the h3/h2 scaling
    below then magnifies the rounding error of that cancellation.
    Stripping the re-derived h1 x2(i), scaling by h3/h2 and adding h1 x3(i)
    gives h3 x1(i) + h1 x3(i) + z3(i); adding z2 - z3 lands on y2(i).
    """
    if side.variant != "lemma2":
        raise ValidationError(f"side info variant {side.variant!r} does not match lemma2")
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    if h2 == 0 or h3 == 0:
        raise ValidationError("singular configuration: h2 = 0 or h3 = 0")
    enhanced_y3 = h2 * trace.x1 + h1 * trace.x2 + (h2 / h3) * trace.z3
    return _rebuild_y2(encoders[1], side, h3 / h2, enhanced_y3, h1, trace.x3)


def reconstruction_error(reconstructed: np.ndarray, trace: TransmissionTrace) -> float:
    """Peak |reconstructed - true y2| relative to the true sequence's peak (floor 1)."""
    return _scaled_dev(np.asarray(reconstructed) - trace.y2, trace.y2)


def genie_verdict(cfg: ChannelConfig, variant: str, n: int, seed: int) -> dict:
    """End-to-end reconstruction check with two-tap encoders; the dict is the CLI's verdict."""
    encoders = normalize_power(random_encoders(cfg, n_taps=2, seed=seed), cfg, n)
    trace = simulate_network(encoders, cfg, n, seed)
    side = make_genie_side_info(trace, cfg, variant)
    if variant == "lemma1":
        rebuilt = genie_reconstruct_lemma1(trace, cfg, encoders, side)
    else:
        rebuilt = genie_reconstruct_lemma2(trace, cfg, encoders, side)
    error = reconstruction_error(rebuilt, trace)
    if not math.isfinite(error):  # NaN would also slip past the caller's error < tol test
        raise ValidationError(f"genie {variant} reconstruction is not finite: the gain "
                              "ratio it scales by leaves the float range")
    return {
        "max_rel_error": error,
        "n": int(n),
        "seed": int(seed),
        "variant": variant,
    }


def estimate_p2p_mi(cfg: ChannelConfig, link: str, sample_count: int, seed: int) -> float:
    """Monte Carlo mutual information of one link: Gaussian input at power P, unit noise.

    Uses the Gaussian closed form on raw sample second moments,
    -0.5 log2(1 - rho^2); converges to cap(h^2 P).
    """
    if link not in ("h1", "h2", "h3"):
        raise ValidationError(f"link must be one of h1, h2, h3, got {link!r}")
    if sample_count < 10 ** 4:
        raise ValidationError(f"sample_count must be >= 1e4, got {sample_count}")
    h = getattr(cfg.gains, link)
    x = np.random.default_rng([int(seed), 0]).standard_normal(int(sample_count))
    z = np.random.default_rng([int(seed), 1]).standard_normal(int(sample_count))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments are rejected below
        x = x * math.sqrt(cfg.power)
        y = h * x + z
        ns = float(sample_count)
        sxx, syy, sxy = float(x @ x) / ns, float(y @ y) / ns, float(x @ y) / ns
    if not (math.isfinite(sxx * syy) and sxx * syy > 0.0):
        raise ValidationError(f"link {link}: sample second moments at P={cfg.power!r} "
                              "leave the float range")
    rho2 = sxy * sxy / (sxx * syy)
    if not rho2 < 1.0:
        raise ValidationError(f"link {link}: h^2 P = {h * h * cfg.power:.6g} is too strong for a "
                              f"{sample_count}-sample estimate, the sample correlation rounds to 1")
    return -0.5 * math.log1p(-rho2) / math.log(2.0)


def _pam_index(statistic: np.ndarray, q: int) -> np.ndarray:
    """The PAM decision rint(statistic) mod q, for statistics an int64 holds exactly."""
    if not np.all(np.abs(statistic) < 2.0 ** 53):  # also False for inf and NaN
        raise ValidationError("relay decision statistic leaves the float range: gain h2 "
                              "and power are too extreme for the PAM exchange")
    return np.rint(statistic).astype(int) % q


def simulate_pnc_relay(cfg: ChannelConfig, pam_order: int, n: int, seed: int,
                       noise_free: bool = False, symbol_pairs=None) -> tuple[float, float]:
    """Scalar modulo-PAM exchange of users 2 and 3 through user 1.

    A desk-scale stand-in for nested-lattice relaying: both hops run at gain
    h2 (the bottleneck uplink that sets the closed-form lattice rate).  The
    relay decodes the modulo-q sum of the two PAM indices, rebroadcasts it,
    and each end subtracts its own index.  Returns (symbol error rate over
    both directions, log2(q) * (1 - SER)).

    symbol_pairs, when given as (a, b) index arrays, replaces the random
    message draw; with noise_free this makes exhaustive checks possible.
    """
    q = pam_order
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 2 or q % 2 != 0:
        raise ValidationError(f"pam_order must be an even integer >= 2, got {pam_order!r}")
    q = int(q)
    h2 = cfg.gains.h2
    if h2 == 0:
        raise ValidationError("relay links run at gain h2, which must be nonzero")
    if symbol_pairs is not None:
        a = np.asarray(symbol_pairs[0], dtype=int)
        b = np.asarray(symbol_pairs[1], dtype=int)
        if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
            raise ValidationError("symbol_pairs must be two equal-length 1-D index arrays")
        if np.any((a < 0) | (a >= q)) or np.any((b < 0) | (b >= q)):
            raise ValidationError("symbol indices must lie in [0, pam_order)")
        n = len(a)
    else:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        a = np.random.default_rng([int(seed), 0]).integers(0, q, int(n))
        b = np.random.default_rng([int(seed), 1]).integers(0, q, int(n))
    if noise_free:
        z_relay = z_user2 = z_user3 = np.zeros(n)
    else:
        z_relay = np.random.default_rng([int(seed), 2]).standard_normal(n)
        z_user2 = np.random.default_rng([int(seed), 3]).standard_normal(n)
        z_user3 = np.random.default_rng([int(seed), 4]).standard_normal(n)

    alpha = math.sqrt(12.0 * cfg.power / (q * q - 1.0))  # unit-power PAM spacing
    offset = (q - 1) / 2.0
    with np.errstate(all="ignore"):  # _pam_index rejects statistics that left the float range
        y_relay = h2 * (alpha * (a - offset) + alpha * (b - offset)) + z_relay
        u = _pam_index(y_relay / (h2 * alpha) + (q - 1), q)  # (a + b) mod q
        s_relay = alpha * (u - offset)
        u2 = _pam_index((h2 * s_relay + z_user2) / (h2 * alpha) + offset, q)
        u3 = _pam_index((h2 * s_relay + z_user3) / (h2 * alpha) + offset, q)
    b_hat = (u2 - a) % q  # user 2 removes its own index to get user 3's
    a_hat = (u3 - b) % q
    errors = int(np.count_nonzero(b_hat != b)) + int(np.count_nonzero(a_hat != a))
    ser = errors / (2.0 * n)
    return ser, math.log2(q) * (1.0 - ser)

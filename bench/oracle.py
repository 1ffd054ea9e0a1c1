"""Independent reference values for the benchmark's output checks.

Nothing here imports triway.  The closed forms are written out from the
paper's statements, elementwise, so a whole sweep is checked at once.  The
sum-rate LP goes to `scipy.optimize.linprog`.  Random draws are redone from
the documented `default_rng([seed, stream])` scheme.  Expected block power
comes from a second-moment (Lyapunov) recursion: O(n) time and O(1) memory,
where triway's coefficient expansion is O(n^2).  `numpy.random.default_rng`
is bound at import, before the traced run wraps it, so checks never show up
in the trace.
"""

from __future__ import annotations

import json
import math

import numpy as np

_rng = np.random.default_rng
_LOG2E = 1.0 / math.log(2.0)


class CheckError(AssertionError):
    """An output disagrees with its independent reference or a proved property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(got, want, rel: float, abs_: float, what: str) -> None:
    """|got - want| <= abs_ + rel |want| everywhere; got and want may be arrays."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = ~(np.abs(got - want) <= abs_ + rel * np.abs(want))  # NaN in got counts as bad
    if bad.any():
        raise CheckError(f"{what}: got {got[bad] if got.ndim else got}, want {want[bad] if want.ndim else want}")


def strict_json(text: str):
    """Parse JSON that may not hold NaN or Infinity (Python's json accepts both)."""

    def reject(token):
        raise CheckError(f"non-finite JSON token {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def finite_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    try:
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]], dtype=float)
    except ValueError as exc:
        raise CheckError(f"CSV cell is not a number: {exc}") from exc
    require(rows.ndim == 2 and rows.shape[1] == len(header), "CSV rows do not match the header")
    require(bool(np.all(np.isfinite(rows))), "CSV holds a non-finite cell")
    return header, rows


# ---------------------------------------------------------------- closed forms

def cap(x):
    return 0.5 * np.log2(1.0 + x)


def canonical(g12: float, g13: float, g23: float) -> tuple[float, float, float]:
    """(h1, h2, h3): the pair gains ordered by square, signs kept."""
    h1, h2, h3 = sorted((g12, g13, g23), key=lambda g: g * g)
    return h1, h2, h3


def closed_forms(h1, h2, h3, P) -> dict:
    """Every closed-form bound; P may be an array, giving arrays."""
    s1, s2, s3 = h1 * h1, h2 * h2, h3 * h3
    ratio = s1 / s2 if s2 > 0 else 0.0
    b1, b2, b3 = cap((s3 + s2) * P), cap((s3 + s1) * P), cap((s2 + s1) * P)
    lemma1 = cap((s3 + s2) * P) + cap(ratio)
    lemma2 = cap(s3 * P * (1.0 + ratio)) + 0.5
    lower = 2.0 * cap(s3 * P)
    return {
        "P": P,
        "out1": b1, "in1": b1, "out2": b2, "in2": b2, "out3": b3, "in3": b3,
        "outgoing_cutset_sum": b1 + b2 + b3,
        "lemma1": lemma1,
        "lemma2": lemma2,
        "theorem2_upper": 2.0 * cap(s3 * P) + 2.0,
        "tightened_upper": lemma1 + lemma2,
        "achievable_lower": lower,
        "gap": np.clip(lemma1 + lemma2 - lower, 0.0, 2.0),
        "relay_lattice_rate": cap(np.maximum(0.0, s2 * P - 0.5)),
        "relay_direct_rate": cap(s1 * P),
        "relay_improves": s2 >= s1 + 0.5 / P,
    }


def crossover_margin(h1: float, h2: float, h3: float, P: float) -> float:
    """Outgoing cut-set sum minus the lemma sum; positive once the lemmas win."""
    f = closed_forms(h1, h2, h3, P)
    return f["outgoing_cutset_sum"] - f["tightened_upper"]


def dof_slope(h1: float, h2: float, h3: float, grid, key: str) -> float:
    high = np.asarray(grid[len(grid) // 2:])
    return float(np.polyfit(0.5 * np.log2(high), closed_forms(h1, h2, h3, high)[key], 1)[0])


def lp_max_sums(regions: list[list[dict]]) -> np.ndarray:
    """Sum-rate LP of each region, solved by scipy's HiGHS as one block-diagonal LP.

    The blocks share no variable, so the joint optimum is optimal in every
    block and each block's sum is that region's LP value.
    """
    from scipy.optimize import linprog  # the only scipy use; loaded after the timed phase
    from scipy.sparse import block_diag

    A = block_diag([np.array([c["coeffs"] for c in cons], dtype=float) for cons in regions])
    b = np.concatenate([[c["rhs"] for c in cons] for cons in regions])
    k = 6 * len(regions)
    res = linprog(-np.ones(k), A_ub=A, b_ub=b, bounds=[(0, None)] * k, method="highs")
    require(res.status == 0, f"linprog failed: {res.message}")
    return res.x.reshape(len(regions), 6).sum(axis=1)


# ------------------------------------------------------------ random ensembles

def gap_ensemble(seed: int, ensemble: int, grid) -> dict:
    """min/max/mean gap over trials t drawing gains from default_rng([seed, t])."""
    g = np.array([_rng([seed, t]).standard_normal(3) for t in range(ensemble)])
    s1, s2, s3 = np.sort(g * g, axis=1).T
    P = np.asarray(grid, dtype=float)[np.arange(ensemble) % len(grid)]
    ratio = np.divide(s1, s2, out=np.zeros_like(s1), where=s2 > 0)
    tightened = cap((s3 + s2) * P) + cap(ratio) + cap(s3 * P * (1.0 + ratio)) + 0.5
    gaps = np.clip(tightened - 2.0 * cap(s3 * P), 0.0, 2.0)
    worst = int(np.argmax(gaps))
    return {"min_gap": float(gaps.min()), "max_gap": float(gaps[worst]),
            "mean_gap": math.fsum(gaps) / ensemble, "worst_power": float(P[worst])}


def p2p_mi(h: float, P: float, samples: int, seed: int) -> float:
    x = _rng([seed, 0]).standard_normal(samples) * math.sqrt(P)
    z = _rng([seed, 1]).standard_normal(samples)
    y = h * x + z
    rho2 = float(x @ y) ** 2 / (float(x @ x) * float(y @ y))
    return -0.5 * math.log1p(-rho2) * _LOG2E


# ---------------------------------------------------------- causal simulation

def encoders(h1: float, h2: float, h3: float, seed: int, n_taps: int = 2):
    """Message weights and feedback taps as drawn from default_rng([seed, 4])."""
    rng = _rng([seed, 4])
    hmax = max(abs(h1), abs(h2), abs(h3))
    tau = 0.5 / (max(1, n_taps) * max(1.0, 2.0 * hmax))
    out = []
    for _ in range(3):
        w = rng.standard_normal(2)
        taps = rng.uniform(-tau, tau, n_taps)
        out.append((w, taps))
    return out


_OWN = ((0, 1), (2, 3), (4, 5))  # message entries (m12, m13, m21, m23, m31, m32) per user
_GAIN = ((None, 2, 1), (2, None, 0), (1, 0, None))  # _GAIN[j][k]: index into (h1,h2,h3) of link j-k


def block_power(h: tuple[float, float, float], encs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, C): per-user sum_i E[x_j(i)^2] from unit-scale messages alone and noise alone.

    The state is the 6 messages plus the last K receptions of each user; each
    step adds a_j' S a_j to user j's power and moves S to F S F' + G G'.
    """
    K = len(encs[0][1])
    d = 6 + 3 * K
    a = np.zeros((3, d))  # x_j = a_j . state
    for j, (w, taps) in enumerate(encs):
        a[j, _OWN[j][0]], a[j, _OWN[j][1]] = w[0], w[1]
        for k in range(K):
            a[j, 6 + j * K + k] = taps[k]
    F = np.zeros((d, d))
    F[:6, :6] = np.eye(6)
    G = np.zeros((d, 3))
    for j in range(3):
        base = 6 + j * K
        for k in range(K - 1, 0, -1):
            F[base + k, base + k - 1] = 1.0  # older lags shift down
        for src in range(3):
            if src != j:
                F[base] += h[_GAIN[j][src]] * a[src]  # y_j = sum_k h_jk x_k + z_j
        G[base, j] = 1.0
    GG = G @ G.T
    out = []
    for S in (np.diag([1.0] * 6 + [0.0] * (d - 6)), np.zeros((d, d))):
        noise = not S.any()
        power = np.zeros(3)
        for _ in range(n):
            power += np.einsum("jd,de,je->j", a, S, a)
            S = F @ S @ F.T
            if noise:
                S += GG
        out.append(power)
    return out[0], out[1]


def message_scale(h, encs, n: int, P: float) -> tuple[float, np.ndarray]:
    """Largest common message scale keeping every user within n*P, and the powers it gives."""
    A, C = block_power(h, encs, n)
    budget = n * P
    s = math.sqrt(min((budget - C[j]) / A[j] for j in range(3)))
    return s, s * s * A + C


def simulate(h, encs, scale: float, n: int, seed: int) -> np.ndarray:
    """Columns x1..x3, y1..y3, z1..z3 of an n-step run, rebuilt from the channel equations."""
    z = np.stack([_rng([seed, k]).standard_normal(n) for k in range(3)])
    m = _rng([seed, 3]).standard_normal(6)
    x = np.zeros((3, n))
    y = np.zeros((3, n))
    for i in range(n):
        for j, (w, taps) in enumerate(encs):
            v = scale * (w[0] * m[_OWN[j][0]] + w[1] * m[_OWN[j][1]])
            for k, tap in enumerate(taps):
                if i - 1 - k >= 0:
                    v += tap * y[j, i - 1 - k]
            x[j, i] = v
        for j in range(3):
            y[j, i] = z[j, i] + sum(h[_GAIN[j][k]] * x[k, i] for k in range(3) if k != j)
    return np.vstack([x, y, z])

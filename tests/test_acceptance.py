"""Acceptance gate: nine criteria, one test and one [PASS]/[FAIL] line each.

Every tolerance and runtime budget is pinned in the assertion; run with
`pytest tests/test_acceptance.py` (the -s default makes the verdict lines
visible in the log).
"""

import dataclasses
import math
import time

import numpy as np

from helpers import cap, is_feasible, oracle_max_sum, simulate_network, table_row
from triway.bounds import evaluate, sum_capacity_interval
from triway.experiments import SweepSpec, bounds_report, dof_estimate, find_crossover
from triway.model import ChannelConfig, ChannelGains, canonicalize
from triway.region import build_region, max_weighted_sum
from triway.sim import (
    _pnc_exchange,
    estimate_p2p_mi,
    genie_reconstruct_lemma1,
    genie_verdict,
    normalize_power,
    random_encoders,
    reconstruction_error,
)

SYM = ChannelGains(1.0, 1.0, 1.0)


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def _random_config(stream_key: int, t: int, p_lo=0.1, p_hi=100.0):
    rng = np.random.default_rng([stream_key, t])
    gains, _ = canonicalize(*rng.standard_normal(3))
    power = 10.0 ** rng.uniform(math.log10(p_lo), math.log10(p_hi))
    return ChannelConfig(gains=gains, power=power)


def test_criterion_1_interval_gap_bounded():
    grid = (0.1, 1.0, 10.0, 100.0, 1e4)
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    for t in range(10_000):
        gains, _ = canonicalize(*np.random.default_rng([101, t]).standard_normal(3))
        cfg = ChannelConfig(gains=gains, power=grid[t % len(grid)])
        lower, upper, gap = sum_capacity_interval(cfg.gains.bound_inputs(), cfg.power)
        worst = max(worst, gap)
        if not (0.0 <= gap <= 2.0 and abs((upper - lower) - gap) < 1e-12):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(1, "sum-capacity gap in [0, 2] bits over 1e4 random configs",
            ok, f"violations={violations}, max gap={worst:.6f}, {elapsed:.2f}s < 10s")


def test_criterion_2_pre_log_slopes():
    start = time.perf_counter()
    spec = SweepSpec(p_lo=1e2, p_hi=1e8, points=9, gains=SYM)  # the grid np.logspace(2, 8, 9)
    slope_lower, slope_cut, slope_upper = table_row(dof_estimate(spec)).values()
    elapsed = time.perf_counter() - start
    ok = (abs(slope_lower - 2.0) <= 0.05 and abs(slope_upper - 2.0) <= 0.05
          and abs(slope_cut - 3.0) <= 0.05 and elapsed < 1.0)
    _report(2, "bound slopes vs half-log2(P): lower and upper 2 +- 0.05, cut-set sum 3 +- 0.05",
            ok, f"lower={slope_lower:.4f}, upper={slope_upper:.4f}, "
                f"cutset={slope_cut:.4f}, {elapsed:.3f}s < 1s")


def test_criterion_3_upper_bound_chain():
    violations = 0
    for t in range(10_000):
        cfg = _random_config(103, t, p_lo=0.01, p_hi=1e4)
        ceiling = cap(2.0 * cfg.gains.h3 ** 2 * cfg.power) + 0.5
        b = evaluate(cfg)
        if b.lemma1 > ceiling + 1e-12:
            violations += 1
        if b.lemma2 > ceiling + 1e-12:
            violations += 1
        if not b.tightened_upper < b.theorem2_upper:
            violations += 1
    ok = violations == 0
    _report(3, "lemma bounds below cap(2 h3^2 P) + 1/2 and tightened sum strictly "
               "below the additive-2 bound over 1e4 configs",
            ok, f"violations={violations}, slack 1e-12")


def test_criterion_4_genie_reconstruction():
    cfg = ChannelConfig(gains=ChannelGains(0.5, 1.0, 1.5), power=2.0)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        for variant in ("lemma1", "lemma2"):
            verdict = genie_verdict(cfg, variant, n=100, seed=seed)
            worst = max(worst, verdict["max_rel_error"])
    encoders = normalize_power(random_encoders(cfg, 2, 0), cfg, 100)
    trace = simulate_network(encoders, cfg, 100, 0)
    bent_z2 = trace.z2.copy()
    bent_z2[0] += 1e-3  # bends the side info's noise difference z2 - (h1/h2) z1
    diverged = reconstruction_error(
        genie_reconstruct_lemma1(dataclasses.replace(trace, z2=bent_z2), cfg, encoders), trace)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and diverged > 1e-6 and elapsed < 5.0
    _report(4, "both genie reconstructions exact to 1e-9 over 100 encoder triples; "
               "perturbed side info diverges",
            ok, f"max error={worst:.3g}, perturbed error={diverged:.3g}, "
                f"{elapsed:.2f}s < 5s")


def test_criterion_5_lp_matches_grid_oracle():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for t in range(50):
        cfg = _random_config(105, t)
        reg = build_region(cfg)
        sol = max_weighted_sum(reg)
        grid_val = oracle_max_sum(reg, 0.01)
        worst = max(worst, abs(sol["optimal_value"] - grid_val))
        if sol["status"] != "optimal" or abs(sol["optimal_value"] - grid_val) > 0.06:
            ok = False
        if not is_feasible(reg, tuple(sol["optimizer"].values()), tol=1e-9):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(5, "simplex sum-rate within 0.06 bits of the 0.01-step grid oracle on "
               "50 configs, optimizer feasible at 1e-9",
            ok, f"max |LP - grid|={worst:.4f}, {elapsed:.2f}s < 60s")


def test_criterion_6_mi_estimates():
    gains = ChannelGains(0.5, 0.75, 1.0)  # h3 = 1, so h^2 P sweeps with P
    start = time.perf_counter()
    worst = 0.0
    for k, snr in enumerate((0.1, 1.0, 10.0, 100.0)):
        cfg = ChannelConfig(gains=gains, power=snr)
        est = estimate_p2p_mi(cfg, 10 ** 6, seed=k)
        worst = max(worst, abs(est - cap(snr)))
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and elapsed < 10.0
    _report(6, "1e6-sample MI estimate within 0.02 bits of cap(h^2 P) for "
               "h^2 P in {0.1, 1, 10, 100}",
            ok, f"max error={worst:.4f}, {elapsed:.2f}s < 10s")


def test_criterion_7_relay_dominance_and_noise_free_pnc():
    qualifying = 0
    violations = 0
    t = 0
    while qualifying < 10_000:
        cfg = _random_config(107, t)
        t += 1
        b = evaluate(cfg)
        if b.relay_improves:
            qualifying += 1
            if b.relay_lattice_rate < b.relay_direct_rate:
                violations += 1
    pnc_ok = True
    cfg = ChannelConfig(gains=ChannelGains(0.5, 1.0, 1.5), power=3.0)
    for q in (2, 4, 8):
        a, b = (m.ravel() for m in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
        zero = np.zeros(q * q)
        ser, _ = _pnc_exchange(cfg, q, a, b, zero, zero, zero)
        if ser != 0.0:
            pnc_ok = False
    ok = violations == 0 and pnc_ok
    _report(7, "lattice rate never below direct rate on 1e4 qualifying configs; "
               "noise-free relay exchange exact for PAM orders 2, 4, 8",
            ok, f"violations={violations}, drew {t} configs, noise-free SER zero: {pnc_ok}")


def test_criterion_8_crossover_power():
    # oracle: the margin is cap(2P) - 1, so the root solves 1 + 2P = 4, P = 1.5
    table = find_crossover(SYM, 0.1, 100.0)
    p_star, status = table_row(table)["p_star"], table.meta["status"]
    rel_err = abs(p_star - 1.5) / 1.5 if status == "found" else math.inf
    ok = status == "found" and rel_err <= 1e-6
    _report(8, "equal-gain crossover power equals 1.5 within 1e-6 relative",
            ok, f"status={status}, p_star={p_star}, rel err={rel_err:.2e}")


def test_criterion_9_scale_invariance():
    fields = ("lemma1", "lemma2", "theorem2_upper", "tightened_upper",
              "achievable_lower", "gap", "relay_lattice_rate", "relay_direct_rate")

    def cut(report):  # the cut-sets of the `bounds` JSON report
        return bounds_report(report, (1, 2, 3), "json")["cutset"]

    violations = 0
    for t in range(1_000):
        rng = np.random.default_rng([109, t])
        gains, _ = canonicalize(*rng.standard_normal(3))
        power = 10.0 ** rng.uniform(-1, 2)
        alpha = 10.0 ** rng.uniform(-1, 1) * (1.0 if rng.random() < 0.5 else -1.0)
        base = evaluate(ChannelConfig(gains=gains, power=power))
        scaled_gains = ChannelGains(alpha * gains.h1, alpha * gains.h2, alpha * gains.h3)
        scaled = evaluate(ChannelConfig(gains=scaled_gains,
                                                     power=power / alpha ** 2))
        same = all(
            math.isclose(getattr(base, f), getattr(scaled, f), rel_tol=1e-12, abs_tol=1e-12)
            for f in fields)
        same = same and all(
            math.isclose(cut(base)[f], cut(scaled)[f], rel_tol=1e-12, abs_tol=1e-12)
            for f in ("out1", "in1", "out2", "in2", "out3", "in3"))
        same = same and base.relay_improves == scaled.relay_improves
        if not same:
            violations += 1
    ok = violations == 0
    _report(9, "every bound invariant under gains x alpha, power / alpha^2 at "
               "1e-12 relative over 1e3 pairs",
            ok, f"violations={violations}")

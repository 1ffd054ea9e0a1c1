"""Closed-form bound values against an independent high-precision reference,
plus the structural properties the bounds must satisfy."""

import math

import mpmath as mp
import numpy as np
import pytest

from triway.bounds import REPORT_CSV_HEADER, cap, dof_estimate, evaluate, sum_capacity_interval
from triway.experiments import export_report
from triway.model import ChannelConfig, ChannelGains, ValidationError, canonicalize, validate

mp.mp.dps = 50


def _cfg(h1, h2, h3, power):
    return validate(ChannelConfig(gains=ChannelGains(h1=h1, h2=h2, h3=h3), power=power))


def _mp_cap(x):
    return float(mp.log(1 + mp.mpf(x), 2) / 2)


def _random_cfg(rng, p_lo=1e-2, p_hi=1e4):
    gains, _ = canonicalize(*rng.standard_normal(3))
    power = 10.0 ** rng.uniform(math.log10(p_lo), math.log10(p_hi))
    return validate(ChannelConfig(gains=gains, power=power))


def test_cap_trivial_points():
    assert cap(0.0) == 0.0
    assert cap(1.0) == pytest.approx(0.5, abs=1e-15)
    assert cap(3.0) == pytest.approx(1.0, abs=1e-15)


def test_cap_rejects_negative_and_nan():
    with pytest.raises(ValidationError):
        cap(-1e-12)
    with pytest.raises(ValidationError):
        cap(math.nan)


def test_cap_matches_high_precision_reference():
    # 1e-12 relative across many decades, including the tiny-x regime where a
    # naive log(1+x) would lose half the digits
    for x in np.logspace(-9, 9, 181):
        assert cap(x) == pytest.approx(_mp_cap(x), rel=1e-12)


def test_cap_monotone():
    xs = np.logspace(-6, 6, 100)
    vals = [cap(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cutset_symmetric_case():
    cs = evaluate(_cfg(1.0, 1.0, 1.0, 1.0)).cutset
    for v in cs.as_dict().values():
        assert v == pytest.approx(0.792481250360578, rel=1e-12)


def test_cutset_degenerate_links():
    cs = evaluate(_cfg(0.0, 0.0, 1.0, 1.0)).cutset
    assert cs.out1 == pytest.approx(0.5, abs=1e-15)
    assert cs.out3 == 0.0


def test_cutset_321():
    cs = evaluate(_cfg(1.0, 2.0, 3.0, 1.0)).cutset
    assert cs.out1 == pytest.approx(1.903677461028802, rel=1e-12)  # cap(13)
    assert cs.out2 == pytest.approx(_mp_cap(10), rel=1e-12)
    assert cs.out3 == pytest.approx(_mp_cap(5), rel=1e-12)


def test_cutset_reciprocity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cs = evaluate(_random_cfg(rng)).cutset
        assert cs.out1 == cs.in1 and cs.out2 == cs.in2 and cs.out3 == cs.in3


def test_lemma1_values():
    assert evaluate(_cfg(1.0, 1.0, 1.0, 1.0)).lemma1 == pytest.approx(1.292481250360578, rel=1e-12)
    # h2 = 0 forces h1 = 0; the ratio term is 0 by convention
    assert evaluate(_cfg(0.0, 0.0, 1.0, 7.0)).lemma1 == pytest.approx(_mp_cap(7), rel=1e-12)
    # cap(16) + cap(0.25)
    assert evaluate(_cfg(1.0, 2.0, 2.0, 2.0)).lemma1 == pytest.approx(2.204695468068851, rel=1e-12)


def test_lemma2_values():
    assert evaluate(_cfg(1.0, 1.0, 2.0, 1.0)).lemma2 == pytest.approx(2.084962500721156, rel=1e-12)
    assert evaluate(_cfg(1.0, 1.0, 1.0, 1.0)).lemma2 == pytest.approx(1.292481250360578, rel=1e-12)
    assert evaluate(_cfg(0.0, 1.0, 1.0, 1.0)).lemma2 == pytest.approx(1.0, rel=1e-12)


def test_theorem2_values():
    assert evaluate(_cfg(0.0, 0.0, 1.0, 1.0)).theorem2_upper == pytest.approx(3.0, rel=1e-12)
    assert evaluate(_cfg(0.0, 0.0, 1.0, 3.0)).theorem2_upper == pytest.approx(4.0, rel=1e-12)


def test_tightened_symmetric_equality():
    # fully symmetric case collapses to 2 cap(2P) + 1 exactly
    b = evaluate(_cfg(1.0, 1.0, 1.0, 1.0))
    assert b.tightened_upper == pytest.approx(2.584962500721156, rel=1e-12)
    assert b.tightened_upper == pytest.approx(2.0 * cap(2.0) + 1.0, abs=1e-14)


def test_achievable_lower_values():
    assert evaluate(_cfg(0.0, 0.0, 1.0, 1.0)).achievable_lower == pytest.approx(1.0, rel=1e-12)
    assert evaluate(_cfg(0.0, 0.0, 0.0, 5.0)).achievable_lower == 0.0
    assert evaluate(_cfg(0.0, 0.0, 1.0, 15.0)).achievable_lower == pytest.approx(4.0, rel=1e-12)


def test_interval_symmetric_case():
    lower, upper, gap = sum_capacity_interval(_cfg(1.0, 1.0, 1.0, 1.0))
    assert lower == pytest.approx(1.0, rel=1e-12)
    assert upper == pytest.approx(2.584962500721156, rel=1e-12)
    assert gap == pytest.approx(1.584962500721156, rel=1e-12)


def test_interval_upper_is_min_of_uppers():
    rng = np.random.default_rng(12)
    for _ in range(500):
        cfg = _random_cfg(rng)
        lower, upper, gap = sum_capacity_interval(cfg)
        b = evaluate(cfg)
        assert upper <= b.theorem2_upper + 1e-12
        assert upper <= b.tightened_upper + 1e-12
        assert lower == b.achievable_lower
        assert 0.0 <= gap <= 2.0
        assert upper - lower == pytest.approx(gap, abs=1e-12)


def test_interval_gap_never_exceeds_two_high_snr():
    # the naive difference fl(2c+2) - 2c can round above 2; the interval must not
    for exponent in range(0, 300, 7):
        cfg = _cfg(1.0, 1.0, 1.0, 10.0 ** exponent)
        _, _, gap = sum_capacity_interval(cfg)
        assert 0.0 <= gap <= 2.0


def test_relay_example():
    b = evaluate(_cfg(0.1, 1.0, 2.0, 10.0))
    assert b.relay_lattice_rate == pytest.approx(1.6961587113893801, rel=1e-12)  # cap(9.5)
    assert b.relay_direct_rate == pytest.approx(0.06875176187496745, rel=1e-12)  # cap(0.1)
    assert b.relay_improves


def test_relay_equal_gains_never_improve():
    for P in (0.1, 1.0, 10.0, 1e4):
        assert not evaluate(_cfg(1.0, 1.0, 2.0, P)).relay_improves


def test_relay_clamps_at_zero():
    b = evaluate(_cfg(0.1, 0.5, 1.0, 1.0))  # h2^2 P = 0.25 < 1/2
    assert b.relay_lattice_rate == 0.0


def test_relay_improvement_implies_dominance():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 2000:
        cfg = _random_cfg(rng, p_lo=0.1, p_hi=100.0)
        b = evaluate(cfg)
        if b.relay_improves:
            assert b.relay_lattice_rate >= b.relay_direct_rate
            checked += 1


def test_dof_slopes():
    gains = ChannelGains(h1=1.0, h2=1.0, h3=1.0)
    grid = np.logspace(2, 8, 9)
    assert dof_estimate(gains, grid, "theorem2_upper") == pytest.approx(2.0, abs=0.05)
    assert dof_estimate(gains, grid, "achievable_lower") == pytest.approx(2.0, abs=0.05)
    assert dof_estimate(gains, grid, "outgoing_cutset_sum") == pytest.approx(3.0, abs=0.05)


def test_dof_rejects_degenerate_grids():
    gains = ChannelGains(h1=1.0, h2=1.0, h3=1.0)
    with pytest.raises(ValidationError, match=">= 8 points"):
        dof_estimate(gains, np.logspace(2, 8, 7), "theorem2_upper")
    with pytest.raises(ValidationError, match="4 decades"):
        dof_estimate(gains, np.logspace(2, 4, 9), "theorem2_upper")
    with pytest.raises(ValidationError, match="strictly increasing"):
        dof_estimate(gains, [1e2] * 9, "theorem2_upper")
    with pytest.raises(ValidationError, match="positive"):
        dof_estimate(gains, [-1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6], "theorem2_upper")


def test_bounds_monotone_in_power():
    rng = np.random.default_rng(14)
    fields = ("lemma1", "lemma2", "theorem2_upper", "tightened_upper", "achievable_lower",
              "relay_lattice_rate", "relay_direct_rate")
    for _ in range(200):
        gains, _ = canonicalize(*rng.standard_normal(3))
        p1 = 10.0 ** rng.uniform(-2, 3)
        p2 = p1 * (1.0 + rng.uniform(0.01, 10.0))
        b1 = evaluate(validate(ChannelConfig(gains=gains, power=p1)))
        b2 = evaluate(validate(ChannelConfig(gains=gains, power=p2)))
        assert sum(b2.cutset.as_dict().values()) >= sum(b1.cutset.as_dict().values()) - 1e-12
        for f in fields:
            assert getattr(b2, f) >= getattr(b1, f) - 1e-12


def test_bounds_monotone_in_positive_sign_gains():
    # grow a gain where it enters a bound with positive sign, keeping the
    # canonical ordering intact, and the bound must not decrease
    rng = np.random.default_rng(15)
    for _ in range(200):
        gains, _ = canonicalize(*rng.standard_normal(3))
        P = 10.0 ** rng.uniform(-1, 2)
        base = validate(ChannelConfig(gains=gains, power=P))
        # h3 up: every sum bound is nondecreasing
        big3 = validate(ChannelConfig(
            gains=ChannelGains(gains.h1, gains.h2, gains.h3 * 1.5), power=P))
        for f in ("lemma1", "lemma2", "theorem2_upper", "achievable_lower"):
            assert getattr(evaluate(big3), f) >= getattr(evaluate(base), f) - 1e-12
        # h1 up toward h2: lemma bounds and the weak cut-sets grow
        if abs(gains.h2) > 0:
            s1, s2, _ = gains.squared()
            h1_up = ChannelGains(math.sqrt((s1 + s2) / 2.0), gains.h2, gains.h3)
            bigger1 = validate(ChannelConfig(gains=h1_up, power=P))
            b, b1 = evaluate(base), evaluate(bigger1)
            assert b1.lemma1 >= b.lemma1 - 1e-12
            assert b1.lemma2 >= b.lemma2 - 1e-12
            assert b1.cutset.out3 >= b.cutset.out3 - 1e-12


def test_theorem2_proof_chain_ensemble():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        cfg = _random_cfg(rng)
        s3 = cfg.gains.h3 ** 2
        ceiling = cap(2.0 * s3 * cfg.power) + 0.5
        b = evaluate(cfg)
        assert b.lemma1 <= ceiling + 1e-12
        assert b.lemma2 <= ceiling + 1e-12
        assert b.tightened_upper < b.theorem2_upper


def test_scale_invariance():
    rng = np.random.default_rng(17)
    fields = ("lemma1", "lemma2", "theorem2_upper", "tightened_upper", "achievable_lower",
              "relay_lattice_rate", "relay_direct_rate", "gap")
    for _ in range(200):
        cfg = _random_cfg(rng, p_lo=0.1, p_hi=100.0)
        alpha = 10.0 ** rng.uniform(-1, 1) * rng.choice([-1.0, 1.0])
        g = cfg.gains
        scaled = validate(ChannelConfig(
            gains=ChannelGains(g.h1 * alpha, g.h2 * alpha, g.h3 * alpha),
            power=cfg.power / alpha ** 2))
        b, b2 = evaluate(cfg), evaluate(scaled)
        for f in fields:
            assert getattr(b2, f) == pytest.approx(getattr(b, f), rel=1e-12, abs=1e-12)
        cs, cs2 = b.cutset, b2.cutset
        for k, v in cs.as_dict().items():
            assert cs2.as_dict()[k] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_report_invariants_and_serialization():
    report = evaluate(_cfg(0.5, 1.0, 1.5, 2.0))
    assert report.achievable_lower <= min(report.theorem2_upper, report.tightened_upper)
    assert 0.0 <= report.gap <= 2.0

    csv_text = export_report(report.as_table(), "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == len(REPORT_CSV_HEADER.split(","))
    assert cells[-1] in ("0", "1")
    # fixed 6-decimal formatting
    assert all("." in c and len(c.split(".")[1]) == 6 for c in cells[:-1])
    assert float(cells[4]) == pytest.approx(report.cutset.out1, abs=5e-7)

    obj = __import__("json").loads(export_report(report.as_dict(), "json"))
    assert obj["gap"] == report.gap  # JSON keeps full precision
    assert obj["cutset"]["out1"] == report.cutset.out1
    assert obj["config"]["g12"] == 1.5
    assert obj["relay_improves"] == report.relay_improves

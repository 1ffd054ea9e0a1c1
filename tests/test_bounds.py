"""Closed-form bound values against an independent high-precision reference,
plus the structural properties the bounds must satisfy."""

import math

import mpmath as mp
import numpy as np
import pytest

from helpers import (BOUNDS_CSV_HEADER, cap, mp_bounds, reference_bound_terms, reference_dof_estimate, table_row,
                     table_rows)
from triway import bounds
from triway.bounds import evaluate, sum_capacity_interval
from triway.experiments import DOF_FIELDS, SweepSpec, bounds_report, dof_estimate, export_report, power_grid
from triway.model import ChannelConfig, ChannelGains, ValidationError, canonicalize
from triway.region import build_region

mp.mp.dps = 50


def _cfg(h1, h2, h3, power):
    return ChannelConfig(gains=ChannelGains(h1=h1, h2=h2, h3=h3), power=power)


def _cutset(report):
    """The `cutset` object of report's `bounds` JSON report."""
    return bounds_report(report, (1, 2, 3), "json")["cutset"]


def _mp_cap(x):
    return float(mp.log(1 + mp.mpf(x), 2) / 2)


def _random_cfg(rng, p_lo=1e-2, p_hi=1e4):
    gains, _ = canonicalize(*rng.standard_normal(3))
    power = 10.0 ** rng.uniform(math.log10(p_lo), math.log10(p_hi))
    return ChannelConfig(gains=gains, power=power)


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
    cs = _cutset(evaluate(_cfg(1.0, 1.0, 1.0, 1.0)))
    for v in cs.values():
        assert v == pytest.approx(0.792481250360578, rel=1e-12)


def test_cutset_degenerate_links():
    cs = _cutset(evaluate(_cfg(0.0, 0.0, 1.0, 1.0)))
    assert cs["out1"] == pytest.approx(0.5, abs=1e-15)
    assert cs["out3"] == 0.0


def test_cutset_321():
    cs = _cutset(evaluate(_cfg(1.0, 2.0, 3.0, 1.0)))
    assert cs["out1"] == pytest.approx(1.903677461028802, rel=1e-12)  # cap(13)
    assert cs["out2"] == pytest.approx(_mp_cap(10), rel=1e-12)
    assert cs["out3"] == pytest.approx(_mp_cap(5), rel=1e-12)


def test_cutset_reciprocity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cfg = _random_cfg(rng)
        cs = _cutset(evaluate(cfg))
        assert list(cs) == ["out1", "in1", "out2", "in2", "out3", "in3"]
        assert cs["out1"] == cs["in1"] and cs["out2"] == cs["in2"] and cs["out3"] == cs["in3"]
        # the region's cut-set rows carry the same values, in the same order
        assert list(build_region(cfg).items())[:6] == \
            [(f"cutset.{name}", value) for name, value in cs.items()]


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
    cfg = _cfg(1.0, 1.0, 1.0, 1.0)
    lower, upper, gap = sum_capacity_interval(cfg.gains.bound_inputs(), cfg.power)
    assert lower == pytest.approx(1.0, rel=1e-12)
    assert upper == pytest.approx(2.584962500721156, rel=1e-12)
    assert gap == pytest.approx(1.584962500721156, rel=1e-12)


def test_interval_upper_is_min_of_uppers():
    rng = np.random.default_rng(12)
    for _ in range(500):
        cfg = _random_cfg(rng)
        lower, upper, gap = sum_capacity_interval(cfg.gains.bound_inputs(), cfg.power)
        b = evaluate(cfg)
        assert upper <= b.theorem2_upper + 1e-12
        assert upper <= b.tightened_upper + 1e-12
        assert lower == b.achievable_lower
        assert 0.0 <= gap <= 2.0
        assert upper - lower == pytest.approx(gap, abs=1e-12)
        # the gap is the difference itself, capped at 2 but not floored at 0:
        # lemma1 + lemma2 exceeds the lower bound by at least 1/2 in exact arithmetic
        difference = b.lemma1 + b.lemma2 - b.achievable_lower
        assert b.gap == min(2.0, difference)
        assert difference >= 0.5 - 1e-12


def test_interval_is_evaluate_bit_for_bit():
    rng = np.random.default_rng(13)
    cfgs = [_random_cfg(rng) for _ in range(2000)]
    cfgs += [_cfg(1.0, 1.0, 1e154, 1e300),  # h3^2 P overflows: the log-domain branch
             _cfg(0.0, 0.0, 1.0, 3.0)]  # h1 = h2 = 0: the ratio term is 0 by convention
    cfgs += [_cfg(1.0, 1.0, 1.0, 10.0 ** e) for e in range(295)]  # the gap reaches the literal 2.0
    for cfg in cfgs:
        b = evaluate(cfg)
        got = sum_capacity_interval(cfg.gains.bound_inputs(), cfg.power)
        assert got == (b.achievable_lower, b.achievable_lower + b.gap, b.gap), cfg
    # the cases reach the branches they are named for
    assert math.isinf(1e154 ** 2 * 1e300) and any(evaluate(c).gap == 2.0 for c in cfgs[-295:])


def test_bound_kernel_is_the_documented_formulas_bit_for_bit():
    # every field of the kernel against its formula written from cap, so a change in
    # the kernel's operation order (say out3 + out2 + out1) shows in the bits
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(3000):  # gains over 120 decades, powers over 200
        gains, _ = canonicalize(*(rng.standard_normal(3) * 10.0 ** rng.uniform(-60.0, 60.0, 3)))
        cases.append((*gains.bound_inputs(), 10.0 ** rng.uniform(-100.0, 100.0)))
    cases += [(0.0, 0.0, 10.0 ** e, 0.0, 10.0 ** -e) for e in range(-20, 21)]  # h2 = 0
    cases += [(1.0, 1.0, 1.0, 1.0, 10.0 ** e) for e in range(295)]  # the gap reaches the literal 2.0
    checked = 0
    for case in cases:
        s1, s2, s3, _, P = case
        if not 2.0 * (s3 + s2) * P < 1e308:  # bounds every cap argument: h^2 P stays finite
            continue
        assert repr(bounds._bound_terms(*case)) == repr(reference_bound_terms(*case)), case
        checked += 1
    assert checked > 3000 and sum(bounds._bound_terms(*c)[9] == 2.0 for c in cases[-295:]) > 100


def _array_kernel(inputs, powers):
    with np.errstate(over="ignore"):
        return bounds._bound_terms(*inputs, powers, bounds._cap_array, np.minimum, np.maximum)


def test_array_kernel_is_the_float_kernel_bit_for_bit_at_every_grid_power():
    # grids over gains of +-150 decades and powers of +-300: where every cap argument is finite
    # the oracle is the formulas written from cap, where one overflows the float kernel's log branch
    rng = np.random.default_rng(41)
    grids = []
    for _ in range(300):
        gains, _ = canonicalize(*(rng.standard_normal(3) * 10.0 ** rng.uniform(-150.0, 150.0, 3)))
        grids.append((gains.bound_inputs(), np.sort(10.0 ** rng.uniform(-300.0, 300.0, 170))))
    grids.append(((0.0, 0.0, 1.0, 0.0), 10.0 ** np.arange(-300.0, 300.0)))  # h2 = 0
    grids.append(((1.0, 1.0, 1.0, 1.0), 10.0 ** np.arange(295.0)))  # the gap reaches the literal 2.0
    counts = {"finite": 0, "overflow": 0, "clamped": 0, "gap 2.0": 0}
    for inputs, powers in grids:
        columns = _array_kernel(inputs, powers)
        assert all(len(c) == len(powers) for c in columns)
        s1, s2, s3, _ = inputs
        for P, got in zip(powers.tolist(), zip(*(c.tolist() for c in columns))):
            finite = 2.0 * (s3 + s2) * P < 1e308  # bounds every cap argument
            want = reference_bound_terms(*inputs, P) if finite else bounds._bound_terms(*inputs, P)
            assert repr(got) == repr(want), (inputs, P)
            counts["finite" if finite else "overflow"] += 1
            counts["clamped"] += s2 * P < 0.5
            counts["gap 2.0"] += got[9] == 2.0
    assert counts["finite"] + counts["overflow"] > 50000, counts
    assert min(counts["overflow"], counts["clamped"]) > 1000 and counts["gap 2.0"] > 100, counts


def test_overflow_branch_sums_the_factor_logs_left_to_right():
    # lemma2's cap argument h3^2 P (1 + h1^2/h2^2) overflows; Python 3.12's compensated sum()
    # rounds this triple's logs to another double than the sum from left to right
    gains, _ = canonicalize(1.196206627602323e+154, 6.036692963240989e+151, 5.857787243999874e+151)
    inputs, P = gains.bound_inputs(), 760.4208741644646
    factors = (inputs[2], P, 1.0 + inputs[3])
    assert math.isinf(factors[0] * factors[1] * factors[2])
    logs = [math.log2(f) for f in factors]
    assert math.fsum(logs) != (logs[0] + logs[1]) + logs[2]
    lemma2 = 0.5 * ((logs[0] + logs[1]) + logs[2]) + 0.5
    assert evaluate(ChannelConfig(gains=gains, power=P)).lemma2 == lemma2 == 517.5993454628814
    assert _array_kernel(inputs, np.array([P]))[5].tolist() == [lemma2]


def test_lemma1_keeps_the_unit_ratio_of_equal_tiny_gains():
    # h1 = h2 = eps: h1^2/h2^2 = 1, also where eps^2 is subnormal or underflows to 0
    for k in range(10, 301):
        for P in (1e-2, 1.0, 1e4):
            b = evaluate(_cfg(10.0 ** -k, 10.0 ** -k, 1.0, P))
            assert b.lemma1 == b.out1 + 0.5, (k, P)


def test_sum_bounds_match_mpmath_where_squared_gains_underflow():
    # gain magnitudes over 10^-300..10^0, half of them with h1/h2 in [0.1, 1]; squares
    # below ~1e-154 leave the normal range, the ratio h1^2/h2^2 must not
    rng = np.random.default_rng(30)
    cases = [(0.7e-155, 1e-155, 1.0, 1.0), (1e-170, 1e-170, 1e-160, 1e300), (0.0, 1e-200, 1e-200, 3.0)]
    for k in range(1000):
        h1, h2, h3 = np.sort(10.0 ** rng.uniform(-300.0, 0.0, 3)).tolist()
        if k % 2:
            h1 = h2 * rng.uniform(0.1, 1.0)
        signs = rng.choice((-1.0, 1.0), 3)
        cases.append((signs[0] * h1, signs[1] * h2, signs[2] * h3, 10.0 ** rng.uniform(-2.0, 4.0)))
    for h1, h2, h3, P in cases:
        b = evaluate(_cfg(h1, h2, h3, P))
        got = (b.lemma1, b.lemma2, b.tightened_upper, b.gap)
        want = mp_bounds(h1, h2, h3, P)
        want = tuple(want[k] for k in ("lemma1", "lemma2", "tightened_upper", "gap"))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (h1, h2, h3, P)


def test_interval_gap_never_exceeds_two_high_snr():
    # the naive difference fl(2c+2) - 2c can round above 2; the interval must not
    for exponent in range(0, 300, 7):
        cfg = _cfg(1.0, 1.0, 1.0, 10.0 ** exponent)
        _, _, gap = sum_capacity_interval(cfg.gains.bound_inputs(), cfg.power)
        assert 0.0 <= gap <= 2.0


def test_relay_example():
    b = evaluate(_cfg(0.1, 1.0, 2.0, 10.0))
    assert b.relay_lattice_rate == pytest.approx(1.6961587113893801, rel=1e-12)  # cap(9.5)
    assert b.relay_direct_rate == pytest.approx(0.06875176187496745, rel=1e-12)  # cap(0.1)
    assert b.relay_improves


def test_relay_equal_gains_never_improve():
    # also where 0.5/P falls below the last bit of h2^2 = 1 (from P ~ 1e16), in the float and
    # the array kernel: h2^2 >= h1^2 + 0.5/P rounds to true there
    powers = (0.1, 1.0, 10.0, 1e4, 1e15, 1e16, 1e308)
    for P in powers:
        assert not evaluate(_cfg(1.0, 1.0, 2.0, P)).relay_improves
    with np.errstate(over="ignore"):
        improves = bounds._bound_terms(*_cfg(1.0, 1.0, 2.0, 1.0).gains.bound_inputs(), np.array(powers),
                                       bounds._cap_array, np.minimum, np.maximum)[-1]
    assert not improves.any()


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


def _dof_spec(p_lo=1e2, p_hi=1e8, points=9):
    return SweepSpec(p_lo=p_lo, p_hi=p_hi, points=points, gains=ChannelGains(h1=1.0, h2=1.0, h3=1.0))


def test_dof_slopes():
    lower, cut, upper = table_row(dof_estimate(_dof_spec())).values()
    assert upper == pytest.approx(2.0, abs=0.05)
    assert lower == pytest.approx(2.0, abs=0.05)
    assert cut == pytest.approx(3.0, abs=0.05)


def test_dof_returns_the_slopes_in_dof_fields_order():
    # the lower bound and Theorem 2's upper bound grow with 2 DoF, the cut-set sum with 3
    assert DOF_FIELDS == ("achievable_lower", "outgoing_cutset_sum", "theorem2_upper")
    for gains in (ChannelGains(h1=1.0, h2=1.0, h3=1.0), ChannelGains(h1=0.25, h2=0.5, h3=2.0)):
        spec = SweepSpec(p_lo=1e2, p_hi=1e12, points=21, gains=gains)
        grid = power_grid(spec)
        table = dof_estimate(spec)
        assert table.header == DOF_FIELDS
        assert table_rows(table) == (tuple(reference_dof_estimate(gains, grid, f) for f in DOF_FIELDS),)
        assert [round(s) for s in table_rows(table)[0]] == [2, 3, 2]


def test_dof_rejects_degenerate_grids():
    with pytest.raises(ValidationError, match=">= 8 points"):
        dof_estimate(_dof_spec(points=7))
    with pytest.raises(ValidationError, match="4 decades"):
        dof_estimate(_dof_spec(p_hi=1e4))
    # log-spaced points this close round equal
    with pytest.raises(ValidationError, match="strictly increasing"):
        dof_estimate(_dof_spec(p_lo=1.0, p_hi=1.000000000000001))
    # the spec itself is checked once, when it is built: experiments.SweepSpec
    with pytest.raises(ValidationError, match="positive"):
        dof_estimate(_dof_spec(p_lo=-1.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="^power bound p_hi must be finite"):
            dof_estimate(_dof_spec(p_hi=bad))


def test_bounds_monotone_in_power():
    rng = np.random.default_rng(14)
    fields = ("lemma1", "lemma2", "theorem2_upper", "tightened_upper", "achievable_lower",
              "relay_lattice_rate", "relay_direct_rate")
    for _ in range(200):
        gains, _ = canonicalize(*rng.standard_normal(3))
        p1 = 10.0 ** rng.uniform(-2, 3)
        p2 = p1 * (1.0 + rng.uniform(0.01, 10.0))
        b1 = evaluate(ChannelConfig(gains=gains, power=p1))
        b2 = evaluate(ChannelConfig(gains=gains, power=p2))
        assert sum(_cutset(b2).values()) >= sum(_cutset(b1).values()) - 1e-12
        for f in fields:
            assert getattr(b2, f) >= getattr(b1, f) - 1e-12


def test_bounds_monotone_in_positive_sign_gains():
    # grow a gain where it enters a bound with positive sign, keeping the
    # canonical ordering intact, and the bound must not decrease
    rng = np.random.default_rng(15)
    for _ in range(200):
        gains, _ = canonicalize(*rng.standard_normal(3))
        P = 10.0 ** rng.uniform(-1, 2)
        base = ChannelConfig(gains=gains, power=P)
        # h3 up: every sum bound is nondecreasing
        big3 = ChannelConfig(
            gains=ChannelGains(gains.h1, gains.h2, gains.h3 * 1.5), power=P)
        for f in ("lemma1", "lemma2", "theorem2_upper", "achievable_lower"):
            assert getattr(evaluate(big3), f) >= getattr(evaluate(base), f) - 1e-12
        # h1 up toward h2: lemma bounds and the weak cut-sets grow
        if abs(gains.h2) > 0:
            s1, s2, _, _ = gains.bound_inputs()
            h1_up = ChannelGains(math.sqrt((s1 + s2) / 2.0), gains.h2, gains.h3)
            bigger1 = ChannelConfig(gains=h1_up, power=P)
            b, b1 = evaluate(base), evaluate(bigger1)
            assert b1.lemma1 >= b.lemma1 - 1e-12
            assert b1.lemma2 >= b.lemma2 - 1e-12
            assert b1.out3 >= b.out3 - 1e-12


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
        scaled = ChannelConfig(
            gains=ChannelGains(g.h1 * alpha, g.h2 * alpha, g.h3 * alpha),
            power=cfg.power / alpha ** 2)
        b, b2 = evaluate(cfg), evaluate(scaled)
        for f in fields:
            assert getattr(b2, f) == pytest.approx(getattr(b, f), rel=1e-12, abs=1e-12)
        cs, cs2 = _cutset(b), _cutset(b2)
        for k, v in cs.items():
            assert cs2[k] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_report_invariants_and_serialization():
    report = evaluate(_cfg(0.5, 1.0, 1.5, 2.0))
    assert report.achievable_lower <= min(report.theorem2_upper, report.tightened_upper)
    assert 0.0 <= report.gap <= 2.0

    csv_text = export_report(bounds_report(report, (1, 2, 3), "csv"), "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == BOUNDS_CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == len(BOUNDS_CSV_HEADER.split(","))
    assert cells[-1] in ("0", "1")
    # fixed 6-decimal formatting
    assert all("." in c and len(c.split(".")[1]) == 6 for c in cells[:-1])
    assert float(cells[4]) == pytest.approx(report.out1, abs=5e-7)

    obj = __import__("json").loads(export_report(bounds_report(report, (3, 2, 1), "json"), "json"))
    assert obj["gap"] == report.gap  # JSON keeps full precision
    assert obj["cutset"]["out1"] == report.out1
    assert obj["config"]["g12"] == 1.5
    assert obj["relay_improves"] == report.relay_improves
    assert obj["permutation"] == [3, 2, 1]

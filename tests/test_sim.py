"""Simulator invariants: exact channel equations, power accounting, causality
enforcement, genie reconstructions, Monte Carlo MI, and the modulo-PAM relay."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import ENCODER_CASES, PARITY_CFG, emit_rebuild, emit_trace, verify_trace
from triway.bounds import cap
from triway.experiments import export_report
from triway.model import ChannelConfig, ChannelGains, ValidationError, validate
from triway.sim import (
    TRACE_CSV_HEADER,
    CausalEncoder,
    GenieSideInfo,
    TransmissionTrace,
    draw_messages,
    draw_realization,
    estimate_p2p_mi,
    expected_block_power,
    genie_reconstruct_lemma1,
    genie_reconstruct_lemma2,
    genie_verdict,
    make_genie_side_info,
    normalize_power,
    random_encoders,
    reconstruction_error,
    simulate_network,
    simulate_pnc_relay,
)


def _cfg(h1, h2, h3, power):
    return validate(ChannelConfig(gains=ChannelGains(h1=h1, h2=h2, h3=h3), power=power))


def _ready_encoders(cfg, n, seed, n_taps=2):
    return normalize_power(random_encoders(cfg, n_taps, seed), cfg, n)


CFG = _cfg(0.5, 1.0, 1.5, 2.0)


def test_channel_equations_hold_exactly():
    for seed in range(5):
        enc = _ready_encoders(CFG, 60, seed)
        trace = simulate_network(enc, CFG, 60, seed)
        dev_chan, dev_enc = verify_trace(trace, CFG, enc, tol=1e-9)
        assert dev_chan < 1e-12
        assert dev_enc < 1e-12


def test_zero_weight_encoders_pass_noise_through():
    enc = tuple(CausalEncoder(message_weights=(0.0, 0.0)) for _ in range(3))
    trace = simulate_network(enc, CFG, 40, seed=3)
    for x in (trace.x1, trace.x2, trace.x3):
        assert np.array_equal(x, np.zeros(40))
    assert np.array_equal(trace.y1, trace.z1)
    assert np.array_equal(trace.y2, trace.z2)
    assert np.array_equal(trace.y3, trace.z3)


def test_single_step_matches_hand_formula():
    enc = (CausalEncoder((0.6, 0.0)), CausalEncoder((0.0, 0.7)), CausalEncoder((0.3, 0.3)))
    trace = simulate_network(enc, CFG, 1, seed=11)
    m = trace.messages  # (m12, m13, m21, m23, m31, m32)
    x1 = 0.6 * m[0]
    x2 = 0.7 * m[3]
    x3 = 0.3 * m[4] + 0.3 * m[5]
    h1, h2, h3 = CFG.gains.h1, CFG.gains.h2, CFG.gains.h3
    assert trace.x1[0] == x1 and trace.x2[0] == x2 and trace.x3[0] == x3
    assert trace.y2[0] == h3 * x1 + h1 * x3 + trace.z2[0]
    assert trace.y1[0] == h3 * x2 + h2 * x3 + trace.z1[0]
    assert trace.y3[0] == h2 * x1 + h1 * x2 + trace.z3[0]


def test_bit_exact_determinism():
    enc = _ready_encoders(CFG, 30, 7)
    t1 = simulate_network(enc, CFG, 30, 7)
    t2 = simulate_network(enc, CFG, 30, 7)
    for name in ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3", "messages"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))
    t3 = simulate_network(enc, CFG, 30, 8)
    assert not np.array_equal(t1.y1, t3.y1)


def test_block_length_validation():
    enc = _ready_encoders(CFG, 5, 0)
    with pytest.raises(ValidationError):
        simulate_network(enc, CFG, 0, 0)
    with pytest.raises(ValidationError):
        draw_realization(0, 0)


def test_normalize_power_saturates_binding_user():
    for seed in range(10):
        n = 50
        enc = _ready_encoders(CFG, n, seed)
        power = expected_block_power(enc, CFG, n)
        budget = n * CFG.power
        assert np.all(power <= budget * (1 + 1e-9))
        assert max(power) == pytest.approx(budget, rel=1e-9)


def test_simulate_rejects_over_budget_encoders():
    hot = tuple(CausalEncoder(message_weights=(10.0, 10.0)) for _ in range(3))
    with pytest.raises(ValidationError, match="apply normalize_power"):
        simulate_network(hot, CFG, 5, 0)
    # after normalization the same triple runs fine
    simulate_network(normalize_power(hot, CFG, 5), CFG, 5, 0)


def test_feedback_taps_alone_can_blow_the_budget():
    low = _cfg(0.5, 1.0, 1.5, 0.01)
    enc = (CausalEncoder((1.0, 1.0), feedback_weights=(0.9,)),
           CausalEncoder((1.0, 1.0)), CausalEncoder((1.0, 1.0)))
    with pytest.raises(ValidationError, match="feedback taps alone"):
        normalize_power(enc, low, 10)


def test_empirical_power_tracks_expectation():
    n = 20
    enc = _ready_encoders(CFG, n, 1)
    expected = expected_block_power(enc, CFG, n)
    totals = np.zeros(3)
    n_seeds = 400
    for seed in range(n_seeds):
        t = simulate_network(enc, CFG, n, seed)
        totals += [t.x1 @ t.x1, t.x2 @ t.x2, t.x3 @ t.x3]
    np.testing.assert_allclose(totals / n_seeds, expected, rtol=0.1)


def test_anticipatory_trace_is_rejected():
    # x2(i) = 0.5 y2(i) peeks at the current reception; y2 does not involve
    # x2, so the cheating trace is constructible and channel-consistent, but
    # no causal encoder can produce it
    n = 25
    real = draw_realization(n, 13)
    messages = draw_messages(13)
    enc = (CausalEncoder((0.4, 0.0)), CausalEncoder((0.2, 0.2)), CausalEncoder((0.0, 0.4)))
    h1, h2, h3 = CFG.gains.h1, CFG.gains.h2, CFG.gains.h3
    x1 = np.full(n, 0.4 * messages[0])
    x3 = np.full(n, 0.4 * messages[5])
    y2 = h3 * x1 + h1 * x3 + real.z2
    x2 = 0.5 * y2
    y1 = h3 * x2 + h2 * x3 + real.z1
    y3 = h2 * x1 + h1 * x2 + real.z3
    trace = TransmissionTrace(x1=x1, x2=x2, x3=x3, y1=y1, y2=y2, y3=y3,
                              z1=real.z1, z2=real.z2, z3=real.z3, messages=messages)
    with pytest.raises(ValidationError, match="causal"):
        verify_trace(trace, CFG, enc)


def test_channel_violation_is_rejected():
    enc = _ready_encoders(CFG, 20, 2)
    trace = simulate_network(enc, CFG, 20, 2)
    bent = dataclasses.replace(trace, y1=trace.y1 + np.eye(1, 20, 0).ravel() * 1e-3)
    with pytest.raises(ValidationError, match="channel equations"):
        verify_trace(bent, CFG, enc)


def test_genie_exact_without_feedback():
    enc = normalize_power(
        (CausalEncoder((0.5, 0.5)), CausalEncoder((0.7, -0.2)), CausalEncoder((-0.3, 0.6))),
        CFG, 50)
    trace = simulate_network(enc, CFG, 50, 4)
    for variant, rebuild in (("lemma1", genie_reconstruct_lemma1),
                             ("lemma2", genie_reconstruct_lemma2)):
        side = make_genie_side_info(trace, CFG, variant)
        rebuilt = rebuild(trace, CFG, enc, side)
        assert reconstruction_error(rebuilt, trace) < 1e-12


def test_genie_exact_with_feedback_encoders():
    for seed in range(20):
        enc = _ready_encoders(CFG, 100, seed)
        trace = simulate_network(enc, CFG, 100, seed)
        for variant, rebuild in (("lemma1", genie_reconstruct_lemma1),
                                 ("lemma2", genie_reconstruct_lemma2)):
            side = make_genie_side_info(trace, CFG, variant)
            assert reconstruction_error(rebuild(trace, CFG, enc, side), trace) < 1e-9


# every n from 1 to K + 1 = 4 for the three-tap users: each warm-up step and the first full one
_PARITY_N = [1, 2, 3, 4, 200]


@pytest.mark.parametrize("n", _PARITY_N)
@pytest.mark.parametrize("encoders", list(ENCODER_CASES.values()), ids=list(ENCODER_CASES))
def test_loops_match_emit_oracle_bit_for_bit(encoders, n):
    trace = simulate_network(encoders, PARITY_CFG, n, seed=n)
    want = emit_trace(encoders, PARITY_CFG, n, seed=n)
    for field in ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3", "messages"):
        assert np.array_equal(getattr(trace, field), getattr(want, field)), field
        assert getattr(trace, field).tobytes() == getattr(want, field).tobytes(), field  # signed zeros
    for variant, rebuild in (("lemma1", genie_reconstruct_lemma1),
                             ("lemma2", genie_reconstruct_lemma2)):
        side = make_genie_side_info(trace, PARITY_CFG, variant)
        got = rebuild(trace, PARITY_CFG, encoders, side)
        assert np.array_equal(got, emit_rebuild(trace, PARITY_CFG, encoders, side)), variant
        assert got.tobytes() == emit_rebuild(trace, PARITY_CFG, encoders, side).tobytes(), variant


@pytest.mark.parametrize("n", _PARITY_N)
def test_negzero_case_sends_negative_zero(n):
    # the premise of the taps013_negzero parity case: user 2's first symbol is -0.0
    x2 = emit_trace(ENCODER_CASES["taps013_negzero"], PARITY_CFG, n, seed=n).x2
    assert x2[0] == 0.0 and np.signbit(x2[0])


def test_genie_side_info_formulas():
    enc = _ready_encoders(CFG, 30, 6)
    trace = simulate_network(enc, CFG, 30, 6)
    h1, h2 = CFG.gains.h1, CFG.gains.h2
    s1 = make_genie_side_info(trace, CFG, "lemma1")
    assert np.array_equal(s1.noise_diff, trace.z2 - (h1 / h2) * trace.z1)
    s2 = make_genie_side_info(trace, CFG, "lemma2")
    assert np.array_equal(s2.noise_diff, trace.z2 - trace.z3)
    for s in (s1, s2):
        assert s.side_messages == (float(trace.messages[2]), float(trace.messages[3]))


def test_genie_perturbed_side_info_diverges():
    enc = _ready_encoders(CFG, 80, 9)
    trace = simulate_network(enc, CFG, 80, 9)
    side = make_genie_side_info(trace, CFG, "lemma1")
    bent_diff = side.noise_diff.copy()
    bent_diff[0] += 1e-3
    bent = dataclasses.replace(side, noise_diff=bent_diff)
    rebuilt = genie_reconstruct_lemma1(trace, CFG, enc, bent)
    assert reconstruction_error(rebuilt, trace) > 1e-6
    # the error is not confined to the tampered sample: feedback drags it forward
    later = np.abs(rebuilt - trace.y2)[1:]
    assert np.max(later) > 0.0


def test_genie_singular_configurations():
    degenerate = _cfg(0.0, 0.0, 2.0, 1.0)
    enc = _ready_encoders(degenerate, 10, 0)
    trace = simulate_network(enc, degenerate, 10, 0)
    for variant in ("lemma1", "lemma2"):
        with pytest.raises(ValidationError, match="singular"):
            make_genie_side_info(trace, degenerate, variant)
    with pytest.raises(ValidationError, match="unknown genie variant"):
        make_genie_side_info(trace, degenerate, "lemma3")


def test_genie_variant_mismatch():
    enc = _ready_encoders(CFG, 10, 0)
    trace = simulate_network(enc, CFG, 10, 0)
    side = make_genie_side_info(trace, CFG, "lemma1")
    with pytest.raises(ValidationError, match="does not match"):
        genie_reconstruct_lemma2(trace, CFG, enc, side)


def test_genie_equal_cross_gains_boundary():
    # h3 == h2 makes the lemma2 enhancement a no-op; reconstruction stays exact
    cfg = _cfg(0.5, 1.0, 1.0, 1.0)
    enc = _ready_encoders(cfg, 40, 5)
    trace = simulate_network(enc, cfg, 40, 5)
    side = make_genie_side_info(trace, cfg, "lemma2")
    assert reconstruction_error(genie_reconstruct_lemma2(trace, cfg, enc, side), trace) < 1e-12


def test_genie_verdict_shape():
    verdict = genie_verdict(CFG, "lemma1", n=100, seed=7)
    assert set(verdict) == {"max_rel_error", "n", "seed", "variant"}
    assert verdict["n"] == 100 and verdict["seed"] == 7 and verdict["variant"] == "lemma1"
    assert verdict["max_rel_error"] < 1e-9
    import json
    assert json.loads(export_report(verdict, "json")) == verdict


def test_mi_matches_closed_form():
    cfg = _cfg(0.5, 1.0, 1.0, 1.0)
    est = estimate_p2p_mi(cfg, "h3", 10 ** 6, seed=0)
    assert abs(est - 0.5) < 0.02  # cap(1)
    cfg2 = _cfg(0.5, 1.0, 2.0, 2.0)
    est2 = estimate_p2p_mi(cfg2, "h3", 10 ** 6, seed=1)
    assert abs(est2 - cap(8.0)) < 0.02
    est_h1 = estimate_p2p_mi(cfg2, "h1", 2 * 10 ** 5, seed=2)
    assert abs(est_h1 - cap(0.5)) < 0.05


def test_mi_validation():
    with pytest.raises(ValidationError, match="sample_count"):
        estimate_p2p_mi(CFG, "h3", 9999, seed=0)
    with pytest.raises(ValidationError, match="link"):
        estimate_p2p_mi(CFG, "h4", 10 ** 5, seed=0)


def test_mi_error_shrinks_with_samples():
    cfg = _cfg(0.5, 1.0, 1.0, 1.0)
    err = {k: 0.0 for k in (10 ** 4, 10 ** 6)}
    for k in err:
        for seed in range(8):
            err[k] += abs(estimate_p2p_mi(cfg, "h3", k, seed=seed) - 0.5)
    assert err[10 ** 6] < err[10 ** 4]


def test_pnc_noise_free_is_error_free_exhaustively():
    cfg = _cfg(0.5, 1.0, 1.5, 3.0)
    for q in (2, 4, 8):
        a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        ser, thr = simulate_pnc_relay(cfg, q, n=0, seed=0, noise_free=True,
                                      symbol_pairs=(a.ravel(), b.ravel()))
        assert ser == 0.0
        assert thr == math.log2(q)


def test_pnc_validation():
    cfg = _cfg(0.5, 1.0, 1.5, 3.0)
    for bad in (3, 1, 0, -2, 2.5, True):
        with pytest.raises(ValidationError, match="pam_order"):
            simulate_pnc_relay(cfg, bad, n=10, seed=0)
    with pytest.raises(ValidationError, match="h2"):
        simulate_pnc_relay(_cfg(0.0, 0.0, 2.0, 1.0), 4, n=10, seed=0)
    with pytest.raises(ValidationError, match="n must be"):
        simulate_pnc_relay(cfg, 4, n=0, seed=0)
    with pytest.raises(ValidationError, match="equal-length"):
        simulate_pnc_relay(cfg, 4, n=0, seed=0, symbol_pairs=([0, 1], [0]))
    with pytest.raises(ValidationError, match="lie in"):
        simulate_pnc_relay(cfg, 4, n=0, seed=0, symbol_pairs=([0, 4], [0, 0]))


def test_pnc_ser_falls_with_power():
    sers = []
    for p in np.logspace(0, 4, 9):
        cfg = _cfg(0.5, 1.0, 1.5, float(p))
        ser, thr = simulate_pnc_relay(cfg, 4, n=4000, seed=5)
        assert thr == pytest.approx(math.log2(4) * (1.0 - ser), rel=1e-12)
        sers.append(ser)
    for lo, hi in zip(sers[1:], sers[:-1]):
        assert lo <= hi + 0.01  # common noise seed: near-monotone improvement
    assert sers[-1] <= 0.001
    assert sers[0] > sers[-1]


def test_pnc_moderate_snr_binary():
    cfg = _cfg(0.5, 1.0, 1.5, 10.0)  # h2^2 P = 10 on both hops
    ser, _ = simulate_pnc_relay(cfg, 2, n=10 ** 5, seed=0)
    assert ser < 0.05


def test_pnc_deterministic():
    cfg = _cfg(0.5, 1.0, 1.5, 2.0)
    assert simulate_pnc_relay(cfg, 4, 1000, 9) == simulate_pnc_relay(cfg, 4, 1000, 9)


def test_trace_csv_layout():
    enc = _ready_encoders(CFG, 12, 3)
    trace = simulate_network(enc, CFG, 12, 3)
    text = export_report(trace.as_table(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_CSV_HEADER == "i,x1,x2,x3,y1,y2,y3,z1,z2,z3"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == f"{trace.x1[0]:.6f}"
    assert first[9] == f"{trace.z3[0]:.6f}"
    assert text.endswith("\n")

"""Simulator invariants: exact channel equations, power accounting, causality
enforcement, genie reconstructions, Monte Carlo MI, and the modulo-PAM relay."""

import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    ENCODER_CASES,
    PARITY_CFG,
    _scaled_dev,
    block_draws,
    cap,
    emit_rebuild,
    emit_trace,
    reference_csv,
    simulate_network,
    verify_trace,
)
from triway import sim
from triway.experiments import _CSV_BLOCK, export_report
from triway.model import _MAX_LENGTH, ChannelConfig, ChannelGains, ValidationError
from triway.sim import (
    TRACE_CSV_HEADER,
    CausalEncoder,
    TransmissionTrace,
    _pnc_exchange,
    estimate_p2p_mi,
    expected_block_power,
    genie_reconstruct_lemma1,
    genie_reconstruct_lemma2,
    genie_verdict,
    normalize_power,
    random_encoders,
    reconstruction_error,
    simulate_pnc_relay,
)


def _cfg(h1, h2, h3, power):
    return ChannelConfig(gains=ChannelGains(h1=h1, h2=h2, h3=h3), power=power)


def _ready_encoders(cfg, n, seed):
    return normalize_power(random_encoders(cfg, 2, seed), cfg, n)


def _no_feedback(*message_weights):
    return tuple(CausalEncoder(w, feedback_weights=(0.0, 0.0)) for w in message_weights)


CFG = _cfg(0.5, 1.0, 1.5, 2.0)


def test_channel_equations_hold_exactly():
    for seed in range(5):
        enc = _ready_encoders(CFG, 60, seed)
        trace = simulate_network(enc, CFG, 60, seed)
        dev_chan, dev_enc = verify_trace(trace, CFG, enc, tol=1e-9)
        assert dev_chan < 1e-12
        assert dev_enc < 1e-12


def test_zero_weight_encoders_pass_noise_through():
    enc = _no_feedback((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    trace = simulate_network(enc, CFG, 40, seed=3)
    for x in (trace.x1, trace.x2, trace.x3):
        assert np.array_equal(x, np.zeros(40))
    assert np.array_equal(trace.y1, trace.z1)
    assert np.array_equal(trace.y2, trace.z2)
    assert np.array_equal(trace.y3, trace.z3)


def test_single_step_matches_hand_formula():
    enc = _no_feedback((0.6, 0.0), (0.0, 0.7), (0.3, 0.3))
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
    with pytest.raises(ValidationError, match="block length must be >= 1"):
        simulate_network(enc, CFG, 0, 0)
    for power_call in (expected_block_power, normalize_power):
        with pytest.raises(ValidationError, match="block length must be >= 1"):
            power_call(enc, CFG, 0)
        # rejected before the power pass, whose cycle replay would add _MAX_LENGTH stacks one by one
        too_long = f"^block length must be <= {_MAX_LENGTH}, got {_MAX_LENGTH + 1}$"
        with pytest.raises(ValidationError, match=too_long):
            power_call(enc, CFG, _MAX_LENGTH + 1)


@pytest.mark.parametrize("taps", [(), (0.1,), (0.1, 0.2, 0.3)])
def test_only_two_tap_encoders_exist(taps):
    with pytest.raises(ValidationError, match=f"^an encoder has 2 feedback taps, got {len(taps)}$"):
        CausalEncoder((1.0, 1.0), feedback_weights=taps)
    for n_taps in (-1, len(taps)):
        with pytest.raises(ValidationError, match=f"^n_taps must be 2, got {n_taps}$"):
            random_encoders(CFG, n_taps, 0)


def test_normalize_power_saturates_binding_user():
    for seed in range(10):
        n = 50
        enc = _ready_encoders(CFG, n, seed)
        power = expected_block_power(enc, CFG, n)
        budget = n * CFG.power
        assert np.all(power <= budget * (1 + 1e-9))
        assert max(power) == pytest.approx(budget, rel=1e-9)


def test_simulate_rejects_over_budget_encoders():
    hot = _no_feedback((10.0, 10.0), (10.0, 10.0), (10.0, 10.0))
    with pytest.raises(ValidationError, match="apply normalize_power"):
        simulate_network(hot, CFG, 5, 0)
    # after normalization the same triple runs fine
    simulate_network(normalize_power(hot, CFG, 5), CFG, 5, 0)


def test_feedback_taps_alone_can_blow_the_budget():
    low = _cfg(0.5, 1.0, 1.5, 0.01)
    enc = (CausalEncoder((1.0, 1.0), feedback_weights=(0.9, 0.0)), *_no_feedback((1.0, 1.0), (1.0, 1.0)))
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
    (z1, z2, z3), messages = block_draws(n, 13)
    enc = _no_feedback((0.4, 0.0), (0.2, 0.2), (0.0, 0.4))
    h1, h2, h3 = CFG.gains.h1, CFG.gains.h2, CFG.gains.h3
    x1 = np.full(n, 0.4 * messages[0])
    x3 = np.full(n, 0.4 * messages[5])
    y2 = h3 * x1 + h1 * x3 + z2
    x2 = 0.5 * y2
    y1 = h3 * x2 + h2 * x3 + z1
    y3 = h2 * x1 + h1 * x2 + z3
    trace = TransmissionTrace(x1=x1, x2=x2, x3=x3, y1=y1, y2=y2, y3=y3,
                              z1=z1, z2=z2, z3=z3, messages=messages)
    with pytest.raises(ValidationError, match="causal"):
        verify_trace(trace, CFG, enc)


def test_channel_violation_is_rejected():
    enc = _ready_encoders(CFG, 20, 2)
    trace = simulate_network(enc, CFG, 20, 2)
    bent = dataclasses.replace(trace, y1=trace.y1 + np.eye(1, 20, 0).ravel() * 1e-3)
    with pytest.raises(ValidationError, match="channel equations"):
        verify_trace(bent, CFG, enc)


def test_genie_exact_without_feedback():
    enc = normalize_power(_no_feedback((0.5, 0.5), (0.7, -0.2), (-0.3, 0.6)), CFG, 50)
    trace = simulate_network(enc, CFG, 50, 4)
    for rebuild in (genie_reconstruct_lemma1, genie_reconstruct_lemma2):
        assert reconstruction_error(rebuild(trace, CFG, enc), trace) < 1e-12


def test_genie_exact_with_feedback_encoders():
    for seed in range(20):
        enc = _ready_encoders(CFG, 100, seed)
        trace = simulate_network(enc, CFG, 100, seed)
        for rebuild in (genie_reconstruct_lemma1, genie_reconstruct_lemma2):
            assert reconstruction_error(rebuild(trace, CFG, enc), trace) < 1e-9


# steps 1 and 2 skip the receptions that do not exist yet, step 3 is the first full one
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
        got = rebuild(trace, PARITY_CFG, encoders)
        assert np.array_equal(got, emit_rebuild(trace, PARITY_CFG, encoders, variant)), variant
        assert got.tobytes() == emit_rebuild(trace, PARITY_CFG, encoders, variant).tobytes(), variant
        # the genie error is the oracle's peak deviation, bit for bit
        assert repr(reconstruction_error(got, trace)) == repr(_scaled_dev(got - trace.y2, trace.y2))


@pytest.mark.parametrize("n", _PARITY_N)
def test_negzero_case_sends_negative_zero(n):
    # the premise of the taps013_negzero parity case: user 2's first symbol is -0.0
    x2 = emit_trace(ENCODER_CASES["taps013_negzero"], PARITY_CFG, n, seed=n).x2
    assert x2[0] == 0.0 and np.signbit(x2[0])


def test_genie_perturbed_side_info_diverges():
    enc = _ready_encoders(CFG, 80, 9)
    trace = simulate_network(enc, CFG, 80, 9)
    bent_z2 = trace.z2.copy()
    bent_z2[0] += 1e-3  # the side info's noise difference z2 - (h1/h2) z1 moves with it
    rebuilt = genie_reconstruct_lemma1(dataclasses.replace(trace, z2=bent_z2), CFG, enc)
    assert reconstruction_error(rebuilt, trace) > 1e-6
    assert repr(reconstruction_error(rebuilt, trace)) == repr(_scaled_dev(rebuilt - trace.y2, trace.y2))
    # the error is not confined to the tampered sample: feedback drags it forward
    later = np.abs(rebuilt - trace.y2)[1:]
    assert np.max(later) > 0.0


def test_genie_singular_configurations():
    degenerate = _cfg(0.0, 0.0, 2.0, 1.0)
    enc = _ready_encoders(degenerate, 10, 0)
    trace = simulate_network(enc, degenerate, 10, 0)
    for rebuild in (genie_reconstruct_lemma1, genie_reconstruct_lemma2):
        with pytest.raises(ValidationError, match="singular"):
            rebuild(trace, degenerate, enc)
    # the variant is checked before anything is simulated: n = 0 is never reached
    with pytest.raises(ValidationError, match="unknown genie variant 'lemma3'"):
        genie_verdict(CFG, "lemma3", n=0, seed=0)


@pytest.mark.parametrize("variant,text", [("lemma1", "h2 = 0"), ("lemma2", "h2 = 0 or h3 = 0")])
def test_singular_genie_gains_are_rejected_before_simulating(variant, text, monkeypatch):
    def unreachable(*args):
        raise AssertionError("normalize_power was reached")
    monkeypatch.setattr(sim, "normalize_power", unreachable)
    with pytest.raises(ValidationError, match=f"^singular configuration: {re.escape(text)}$"):
        genie_verdict(_cfg(0.0, 0.0, 2.0, 1.0), variant, n=10 ** 6, seed=0)


def test_genie_equal_cross_gains_boundary():
    # h3 == h2 makes the lemma2 enhancement a no-op; reconstruction stays exact
    cfg = _cfg(0.5, 1.0, 1.0, 1.0)
    enc = _ready_encoders(cfg, 40, 5)
    trace = simulate_network(enc, cfg, 40, 5)
    assert reconstruction_error(genie_reconstruct_lemma2(trace, cfg, enc), trace) < 1e-12


def test_genie_verdict_shape():
    verdict = genie_verdict(CFG, "lemma1", n=100, seed=7)
    assert set(verdict) == {"max_rel_error", "n", "seed", "variant"}
    assert verdict["n"] == 100 and verdict["seed"] == 7 and verdict["variant"] == "lemma1"
    assert verdict["max_rel_error"] < 1e-9
    import json
    assert json.loads(export_report(verdict, "json")) == verdict


def test_mi_matches_closed_form():
    cfg = _cfg(0.5, 1.0, 1.0, 1.0)
    est = estimate_p2p_mi(cfg, 10 ** 6, seed=0)
    assert abs(est - 0.5) < 0.02  # cap(1)
    cfg2 = _cfg(0.5, 1.0, 2.0, 2.0)
    est2 = estimate_p2p_mi(cfg2, 10 ** 6, seed=1)
    assert abs(est2 - cap(8.0)) < 0.02
    weak = _cfg(0.25, 0.5, 0.5, 2.0)  # h3^2 P = 0.5
    est_weak = estimate_p2p_mi(weak, 2 * 10 ** 5, seed=2)
    assert abs(est_weak - cap(0.5)) < 0.05


def test_mi_validation():
    with pytest.raises(ValidationError, match="sample_count"):
        estimate_p2p_mi(CFG, 9999, seed=0)


def test_mi_error_shrinks_with_samples():
    cfg = _cfg(0.5, 1.0, 1.0, 1.0)
    err = {k: 0.0 for k in (10 ** 4, 10 ** 6)}
    for k in err:
        for seed in range(8):
            err[k] += abs(estimate_p2p_mi(cfg, k, seed=seed) - 0.5)
    assert err[10 ** 6] < err[10 ** 4]


def test_pnc_noise_free_is_error_free_exhaustively():
    cfg = _cfg(0.5, 1.0, 1.5, 3.0)
    for q in (2, 4, 8):
        a, b = (m.ravel() for m in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
        zero = np.zeros(q * q)
        ser, thr = _pnc_exchange(cfg, q, a, b, zero, zero, zero)
        assert ser == 0.0
        assert thr == math.log2(q)


# each seeded entry point and the stream ids k of default_rng([seed, k]) that the module docstring gives it
_STREAM_TABLE = {
    "simulate_network": (lambda seed: sim.simulate_network(CFG, 5, seed), (0, 1, 2, 3, 4)),
    "random_encoders": (lambda seed: random_encoders(CFG, 2, seed), (4,)),
    "estimate_p2p_mi": (lambda seed: estimate_p2p_mi(CFG, 10 ** 4, seed), (0, 1)),
    "simulate_pnc_relay": (lambda seed: simulate_pnc_relay(CFG, 4, 5, seed), (0, 1, 2, 3, 4)),
}


@pytest.mark.parametrize("entry", _STREAM_TABLE)
def test_every_draw_takes_its_documented_stream(monkeypatch, entry):
    run, ids = _STREAM_TABLE[entry]
    real, seeded = np.random.default_rng, []

    def recording(seed=None):
        seeded.append(list(seed))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    for seed in (0, 2 ** 31 - 1, 2 ** 64 + 1):
        seeded.clear()
        run(seed)
        assert sorted(seeded) == [[seed, k] for k in ids]
    with pytest.raises(TypeError):  # numpy's: a float seed is not truncated to an int
        run(2.5)
    assert pickle.dumps(run(np.int64(7))) == pickle.dumps(run(7))  # every array and float, byte for byte


def test_pnc_validation():
    cfg = _cfg(0.5, 1.0, 1.5, 3.0)
    for bad in (3, 1, 0, -2, 2.5, True):
        with pytest.raises(ValidationError, match="pam_order"):
            simulate_pnc_relay(cfg, bad, n=10, seed=0)
    with pytest.raises(ValidationError, match="h2"):
        simulate_pnc_relay(_cfg(0.0, 0.0, 2.0, 1.0), 4, n=10, seed=0)
    with pytest.raises(ValidationError, match="^block length must be >= 1$"):
        simulate_pnc_relay(cfg, 4, n=0, seed=0)


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


@pytest.mark.parametrize("n", sorted({1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 1,
                                      4095, 4096, 4097, 3 * 4096 + 1}))
def test_trace_csv_blocks_match_the_per_row_format(n):
    _, trace = sim.simulate_network(CFG, n, 11)
    header, columns = trace.as_table()
    assert columns[0].dtype == np.int64 and all(c.dtype == np.float64 for c in columns[1:])
    assert export_report((header, columns), "csv") == reference_csv(header, columns)


def test_trace_csv_memory_is_bounded_by_its_text():
    n = 10 ** 5
    rng = np.random.default_rng(5)
    arrays = rng.standard_normal((9, n)) * np.array([3.0, 3.0, 3.0, 20.0, 20.0, 20.0, 1.0, 1.0, 1.0])[:, None]
    trace = TransmissionTrace(*arrays, messages=np.zeros(6))
    tracemalloc.start()
    try:
        text = export_report(trace.as_table(), "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == n + 1
    assert peak <= 3 * len(text)  # the block texts and their join; no per-cell objects

"""Exact power accounting: the stacked second-moment recursion in
sim._power_sums against a brute-force coefficient expansion, its repeat
shortcut against the full-length recursion, its chunked replay against a
`+=` loop, bit-exact pins of the normalization scale, the one-pass simulator
against a second full power pass on the scaled encoders, and bounded memory
at long block lengths."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    ENCODER_CASES,
    PARITY_CFG,
    first_repeat,
    reference_power_parts,
    two_pass_genie_verdict,
    two_pass_simulation,
)
from triway import cli, sim
from triway.model import ValidationError, make_config
from triway.sim import (
    _MSG_INDEX,
    _power_sums,
    genie_verdict,
    normalize_power,
    random_encoders,
    simulate_network,
)


def expanded_power(encoders, cfg, n, with_messages, with_noise):
    """Per-user sum_i E[x_j(i)^2] by exact coefficient propagation.

    Expands every x_j(i) over the 6 unit-variance messages and 3n unit-variance
    noise samples; the affine feedback loop keeps everything linear, so the
    second moment is just the squared coefficient norm.  O(n^2) time and
    memory, so only small n.
    """
    h1, h2, h3 = cfg.gains.h1, cfg.gains.h2, cfg.gains.h3
    dim = 6 + 3 * n
    y_hist = [[], [], []]
    power = np.zeros(3)
    for i in range(n):
        xs = []
        for j, enc in enumerate(encoders):
            v = np.zeros(dim)
            if with_messages:
                a, b = _MSG_INDEX[j]
                v[a] += enc.message_scale * enc.message_weights[0]
                v[b] += enc.message_scale * enc.message_weights[1]
            hist = y_hist[j]
            for k, tap in enumerate(enc.feedback_weights):
                if k < len(hist):
                    v = v + tap * hist[len(hist) - 1 - k]
            xs.append(v)
            power[j] += float(v @ v)
        y1 = h3 * xs[1] + h2 * xs[2]
        y2 = h3 * xs[0] + h1 * xs[2]
        y3 = h2 * xs[0] + h1 * xs[1]
        if with_noise:
            y1[6 + i] += 1.0
            y2[6 + n + i] += 1.0
            y3[6 + 2 * n + i] += 1.0
        y_hist[0].append(y1)
        y_hist[1].append(y2)
        y_hist[2].append(y3)
    return power


# (messages, noise) in the expansion: A alone, C alone, A + C
_FLAGS = [(True, False), (False, True), (True, True)]


@pytest.mark.parametrize("with_messages,with_noise", _FLAGS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 200])
@pytest.mark.parametrize("encoders", list(ENCODER_CASES.values()), ids=list(ENCODER_CASES))
def test_recursion_matches_expansion(encoders, n, with_messages, with_noise):
    A, C = _power_sums(encoders, PARITY_CFG, n)
    got = A + C if with_messages and with_noise else A if with_messages else C
    want = expanded_power(encoders, PARITY_CFG, n, with_messages, with_noise)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# (make_config args, seed) of normalize_power(random_encoders(cfg, 2, seed), cfg, 1000)
# whose power states repeat with the period named; periods 5, 8 and 42 come from
# bench-like draws (period 8: genie-block seed 11, op 32)
_REPEATS = {
    "fixed_point": ((1.5, 1.0, 0.5, 1.0), 0, 1),
    "period2": ((0.5, -1.25, 2, 3.5), 102, 2),
    "period3": ((1.5, -1.0, 0.5, 10.0), 15, 3),
    "period4": ((1.5, 1.0, 0.5, 1.0), 49, 4),
    "period5": ((-0.36617720194370845, 0.8057567521633754, -0.59109622602194, 230.96555594432962),
                1967034083, 5),
    "period6": ((1.5, 1.0, 0.5, 1.0), 31, 6),
    "period8": ((2.0552204890542156, 0.4695310235149481, -0.36400137460786014, 423.73327768746356),
                1314121729, 8),
    "period42": ((0.50902207046301, -1.6236420394355902, -1.1624323923715014, 440.90171205622676),
                 866037754, 42),
}


class _CountingNumpy:
    """numpy with a count of matmul calls, to see where the recursion stops."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


def _steps_run(encoders, cfg, n, monkeypatch) -> int:
    counting = _CountingNumpy()
    monkeypatch.setattr(sim, "np", counting)
    _power_sums(encoders, cfg, n)
    monkeypatch.setattr(sim, "np", np)
    return counting.matmuls // 2


@pytest.mark.parametrize("case", list(_REPEATS))
def test_repeat_shortcut_is_bit_exact(case, monkeypatch):
    config, seed, period = _REPEATS[case]
    cfg, _ = make_config(*config)
    encoders = normalize_power(random_encoders(cfg, 2, seed), cfg, 1000)
    found = first_repeat(encoders, cfg, 5000)
    stop = _steps_run(encoders, cfg, 1000, monkeypatch)
    step, p = found
    assert p == period
    start = step - p  # the first state of the cycle
    if p == 1:
        assert stop == step  # a fixed point stops at its first repeat
    else:  # a checkpoint at a power of two >= max(start, p), then one period
        assert step + p - 1 <= stop < 2 * max(start, p) + 2 * p
    assert stop < 200  # well before the block ends
    # the first repeat and the stop, 0 and 1 more steps, and a tail that is no multiple of p
    ns = [1, step - 1, step, step + 1, stop - 1, stop, stop + 1, stop + 2 * p + 1, 1000, 5000]
    # the loop's step stop - p finds the cycle and n - 1 - (stop - p) stacks are replayed:
    # one short of a chunk of _chunk_rows(p), a chunk, one past and one past three
    rows = _chunk_rows(p)
    ns += [stop - p + 1 + count for count in (rows - 1, rows, rows + 1, 3 * rows + 1)]
    for n in ns:
        got, want = _power_sums(encoders, cfg, n), reference_power_parts(encoders, cfg, n)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (n, g, w)


def _chunk_rows(period: int) -> int:
    """The stacks of one replay chunk in sim._power_sums: the whole periods that cover 64 steps."""
    return period * -(-64 // period)


def _replay_inputs(rng, period):
    """A (2, 12, 12) total and a cycle of `period` stacks, each kind of element in its own block of 48:
    -0.0 plus -0.0, NaNs of either sign and payload, infinities of either sign, sums that overflow
    near 1e308, rounding ties, and values over 40 binades."""
    total, cycle = np.empty(288), np.empty((period, 288))
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF800000000BEEF], dtype=np.uint64).view(float)
    zero, nan, inf, huge, tie, wide = (slice(48 * k, 48 * (k + 1)) for k in range(6))
    total[zero], cycle[:, zero] = -0.0, -0.0
    total[nan] = np.where(rng.random(48) < 0.1, rng.choice(nans, 48), rng.standard_normal(48))
    cycle[:, nan] = np.where(rng.random((period, 48)) < 0.1, rng.choice(nans, (period, 48)),
                             rng.standard_normal((period, 48)))
    total[inf] = rng.choice([np.inf, -np.inf, 1.0], 48)
    cycle[:, inf] = rng.choice([np.inf, -np.inf, 0.5, -0.0], (period, 48), p=[0.05, 0.05, 0.45, 0.45])
    total[huge] = rng.choice([-1.0, 1.0], 48) * rng.uniform(1.5e308, 1.79e308, 48)
    cycle[:, huge] = rng.choice([-1.0, 1.0], (period, 48)) * rng.uniform(0.0, 1e307, (period, 48))
    total[tie] = np.ldexp(rng.integers(2 ** 52, 2 ** 53, 48).astype(float), rng.integers(-60, 60, 48))
    cycle[:, tie] = (rng.integers(-3, 3, (period, 48)) + 0.5) * np.spacing(total[tie])  # ties to even
    total[wide] = rng.standard_normal(48) * 10.0 ** rng.uniform(-20, 20, 48)
    cycle[:, wide] = rng.standard_normal((period, 48)) * 10.0 ** rng.uniform(-20, 20, (period, 48))
    return total.reshape(2, 12, 12), cycle.reshape(period, 2, 12, 12)


@pytest.mark.parametrize("period", [1, 3, 42])
def test_replay_matches_the_addition_loop(period):
    rng, rows = np.random.default_rng(period), _chunk_rows(period)
    for count in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 1):
        for _ in range(4):
            total, cycle = _replay_inputs(rng, period)
            chunk = np.empty((rows + 1, 2, 12, 12))
            chunk[1:] = np.tile(cycle, (rows // period, 1, 1, 1))
            got, want = total.copy(), total.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                sim._replay(got, chunk, count)
                for stack in itertools.islice(itertools.cycle(cycle), count):
                    want += stack
            assert got.tobytes() == want.tobytes(), (period, count)


def test_a_cycle_longer_than_the_cap_runs_the_full_loop(monkeypatch):
    config, seed, _ = _REPEATS["period42"]
    cfg, _ = make_config(*config)
    encoders = normalize_power(random_encoders(cfg, 2, seed), cfg, 1000)
    monkeypatch.setattr(sim, "_MAX_CYCLE", 41)  # keeps no cycle of 42 stacks
    assert _steps_run(encoders, cfg, 300, monkeypatch) == 300
    got, want = _power_sums(encoders, cfg, 300), reference_power_parts(encoders, cfg, 300)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


# normalize_power(random_encoders(cfg, taps, seed), cfg, 1000)[0].message_scale, the
# first three captured before the message and noise passes were stacked into one,
# the last three before the step loop and the power state were fixed at two taps
_SCALE_PINS = [
    ((1.5, 1.0, 0.5, 1.0), 2, 0, "0.8391262899300307"),
    ((1.5, 1.0, 0.5, 1.0), 2, 1, "0.41770242931170737"),
    ((1.5, 1.0, 0.5, 1.0), 2, 41, "0.6604300152906191"),
    ((0.5, -1.25, 2, 3.5), 2, 5, "4.159314184703563"),
    ((0.5, -1.25, 2, 3.5), 2, 17, "0.8008583255948187"),
    ((2.0, 0.3, 0.9, 100.0), 2, 8, "5.31607582522765"),
]


@pytest.mark.parametrize("config,taps,seed,scale", _SCALE_PINS)
def test_normalization_scale_is_bit_exact(config, taps, seed, scale):
    cfg, _ = make_config(*config)
    scaled = normalize_power(random_encoders(cfg, taps, seed), cfg, 1000)
    assert repr(scaled[0].message_scale) == scale


def _outcome(simulate, cfg, n, seed):
    """The error text, or the encoders and the raw bytes of every trace array."""
    try:
        encoders, trace = simulate(cfg, n, seed)
    except ValidationError as exc:
        return str(exc)
    return encoders, [getattr(trace, f.name).tobytes() for f in dataclasses.fields(trace)]


# the parity config, equal gains, mixed signs, and a power so low the taps alone exceed it
_PIPELINE_CFGS = [PARITY_CFG] + [make_config(*args)[0] for args in
                                 [(1.0, 1.0, 1.0, 1.0), (0.5, -1.25, 2, 3.5), (2.0, 0.3, 0.9, 1e-3)]]


@pytest.mark.parametrize("n", [1, 2, 3, 40, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_one_power_pass_matches_the_two_pass_oracle(seed, n):
    for cfg in _PIPELINE_CFGS:
        got = _outcome(simulate_network, cfg, n, seed)
        assert got == _outcome(two_pass_simulation, cfg, n, seed)
        if isinstance(got, str):
            continue
        for variant in ("lemma1", "lemma2"):
            want = two_pass_genie_verdict(cfg, variant, n, seed)
            assert repr(genie_verdict(cfg, variant, n, seed)) == repr(want)


def _message_variance(cfg):
    """c^2 for c = 2^-e, e the binary exponent of the largest |gain|."""
    return math.ldexp(1.0, -2 * math.frexp(max(abs(h) for h in dataclasses.astuple(cfg.gains)))[1])


def _assert_fits(cfg, n, seed):
    """A block the two-pass oracle rejects and the simulator accepts: finite, within
    budget by s^2 A + C, and rebuilt exactly by both genies.  A and C come from a
    pass with messages of variance c^2, whose message part is c^2 A."""
    encoders, trace = simulate_network(cfg, n, seed)
    assert all(np.isfinite(getattr(trace, f.name)).all() for f in dataclasses.fields(trace))
    s, c2 = encoders[0].message_scale, _message_variance(cfg)
    A, C = _power_sums(tuple(e.with_scale(1.0) for e in encoders), cfg, n, start=c2)
    assert np.all(s * (s * (A / c2)) + C <= n * cfg.power * (1.0 + 1e-9)), (s, A, C)
    for variant in ("lemma1", "lemma2"):
        assert genie_verdict(cfg, variant, n, seed)["max_rel_error"] < 1e-9, variant


def test_extreme_inputs_get_the_two_pass_verdict():
    # huge gains and powers: where the oracle's second pass accepts, the block
    # is the same; where only its scaled covariance overflows, the one pass
    # either runs a block that fits or names the trace that left the float range
    rng = np.random.default_rng(2026)
    example = (8.044855908597946e+44, -0.7973781289047944, -9975978.12592365, 6.107726244812748e+256)
    cases = [(example, 2, 200)]
    for _ in range(400):
        gains = rng.choice((-1.0, 1.0), 3) * 10.0 ** rng.uniform(-160, 154, 3)
        cases.append(((*gains, 10.0 ** rng.uniform(-300, 308)),
                      int(rng.choice([1, 2, 5, 40, 200, 1000])), int(rng.integers(10 ** 6))))
    texts = []
    for args, n, seed in cases:
        cfg, _ = make_config(*args)
        got, want = _outcome(simulate_network, cfg, n, seed), _outcome(two_pass_simulation, cfg, n, seed)
        if got != want:
            assert isinstance(want, str) and want.startswith(f"expected block power over n={n} is not finite"), \
                (args, n, seed)
            if isinstance(got, str):
                assert got.startswith(f"simulated trace over n={n} at message scale s="), (args, n, seed)
            else:
                _assert_fits(cfg, n, seed)
                got = "newly accepted"
        texts.append(got if isinstance(got, str) else "accepted")
    assert texts[0] == "newly accepted"
    assert min(texts.count("accepted"), texts.count("newly accepted")) > 50


@pytest.mark.parametrize("n", [1, 3, 1000])
@pytest.mark.parametrize("config", [(1.5, 1.0, 0.5, 1.0), (0.5, -1.25, 2, 3.5), (2.0, 0.3, 0.9, 100.0)])
def test_message_part_scales_exactly_by_a_power_of_two(config, n):
    cfg, _ = make_config(*config)
    encoders, c2 = random_encoders(cfg, 2, seed=n), _message_variance(cfg)
    A, C = _power_sums(encoders, cfg, n)
    A_scaled, C_scaled = _power_sums(encoders, cfg, n, start=c2)
    assert (c2 * A).tobytes() == A_scaled.tobytes() and C.tobytes() == C_scaled.tobytes()


def test_unit_pass_overflow_reruns_at_a_smaller_message_variance():
    # at message scale 1 the lag-slot covariance, about h3^2 summed over the block, overflows
    cfg, _ = make_config(-1.5756138151472337e-53, -2.1087631507908876e+153, -1.7500511935262854e-157,
                         1.852320202902048e+25)
    encoders = random_encoders(cfg, 2, seed=977577)
    with pytest.raises(ValidationError, match="expected block power over n=200 is not finite"):
        _power_sums(encoders, cfg, 200)
    scaled = normalize_power(encoders, cfg, 200)
    assert scaled[0].message_scale == pytest.approx(2.215e12, rel=1e-3)
    _assert_fits(cfg, 200, 977577)


# the unit-scale pass of normalize_power reaches a fixed point, and a cycle of period 7
@pytest.mark.parametrize("case", ["fixed_point", "period42"])
def test_normalize_power_memory_is_bounded(case):
    n = 20000
    config, seed, _ = _REPEATS[case]
    cfg, _ = make_config(*config)
    encoders = random_encoders(cfg, 2, seed)
    tracemalloc.start()
    try:
        normalize_power(encoders, cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_genie_cli_long_block(capsys):
    code = cli.main(["genie", "--variant", "lemma1", "--n", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["max_rel_error"] < 1e-9

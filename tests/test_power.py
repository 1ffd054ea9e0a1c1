"""Exact power accounting: the stacked second-moment recursion in
sim._power_parts against a brute-force coefficient expansion, its repeat
shortcut against the full-length recursion, bit-exact pins of the
normalization scale, and bounded memory at long block lengths."""

import json
import tracemalloc

import numpy as np
import pytest

from helpers import ENCODER_CASES, PARITY_CFG, first_repeat, reference_power_parts
from triway import cli, sim
from triway.model import make_config
from triway.sim import _MSG_INDEX, _power_parts, normalize_power, random_encoders


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
@pytest.mark.parametrize("n", [1, 2, 3, 200])
@pytest.mark.parametrize("encoders", list(ENCODER_CASES.values()), ids=list(ENCODER_CASES))
def test_recursion_matches_expansion(encoders, n, with_messages, with_noise):
    A, C = _power_parts(encoders, PARITY_CFG, n)
    got = A + C if with_messages and with_noise else A if with_messages else C
    want = expanded_power(encoders, PARITY_CFG, n, with_messages, with_noise)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# (make_config args, taps, seed) of normalize_power(random_encoders(...), cfg, 1000)
# whose power states repeat with the period named, or never within 5000 steps
_REPEATS = {
    "fixed_point": ((1.5, 1.0, 0.5, 1.0), 2, 0, 1),
    "period2": ((0.5, -1.25, 2, 3.5), 1, 9, 2),
    "period3": ((1.5, -1.0, 0.5, 10.0), 2, 15, 3),
    "period4": ((1.5, 1.0, 0.5, 1.0), 1, 39, 4),
    "never": ((1.5, 1.0, 0.5, 1.0), 2, 31, None),
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


@pytest.mark.parametrize("case", list(_REPEATS))
def test_repeat_shortcut_is_bit_exact(case, monkeypatch):
    config, taps, seed, period = _REPEATS[case]
    cfg, _ = make_config(*config)
    encoders = normalize_power(random_encoders(cfg, taps, seed), cfg, 1000)
    found = first_repeat(encoders, cfg, 5000)
    if period is None:
        assert found is None
        step, ns = 1000, [1, 2, 1000, 5000]
    else:
        step, p = found
        assert p == period
        # detection at step - 1, 0 and 1 more steps, and a tail that is no multiple of p
        ns = [1, step - 1, step, step + 1, step + 2 * p + 1, 1000]
    for n in ns:
        got, want = _power_parts(encoders, cfg, n), reference_power_parts(encoders, cfg, n)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (n, g, w)
    counting = _CountingNumpy()
    monkeypatch.setattr(sim, "np", counting)
    _power_parts(encoders, cfg, 1000)
    assert counting.matmuls == 2 * step  # the loop stops where the states repeat


# normalize_power(random_encoders(cfg, taps, seed), cfg, 1000)[0].message_scale,
# captured before the message and noise passes were stacked into one
_SCALE_PINS = [
    ((1.5, 1.0, 0.5, 1.0), 2, 0, "0.8391262899300307"),
    ((1.5, 1.0, 0.5, 1.0), 2, 1, "0.41770242931170737"),
    ((1.5, 1.0, 0.5, 1.0), 2, 41, "0.6604300152906191"),
    ((0.5, -1.25, 2, 3.5), 3, 5, "1.8132044498601128"),
    ((0.5, -1.25, 2, 3.5), 3, 17, "1.2722865409739015"),
    ((2.0, 0.3, 0.9, 100.0), 1, 8, "5.336178063992607"),
]


@pytest.mark.parametrize("config,taps,seed,scale", _SCALE_PINS)
def test_normalization_scale_is_bit_exact(config, taps, seed, scale):
    cfg, _ = make_config(*config)
    scaled = normalize_power(random_encoders(cfg, taps, seed), cfg, 1000)
    assert repr(scaled[0].message_scale) == scale


def test_normalize_power_memory_is_bounded():
    n = 20000
    encoders = random_encoders(PARITY_CFG, 2, seed=3)
    tracemalloc.start()
    try:
        normalize_power(encoders, PARITY_CFG, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_genie_cli_long_block(capsys):
    code = cli.main(["genie", "--variant", "lemma1", "--n", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["max_rel_error"] < 1e-9

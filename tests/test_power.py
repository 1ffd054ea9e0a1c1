"""Exact power accounting: the second-moment recursion in sim._propagate_power
against a brute-force coefficient expansion, and its bounded memory at long
block lengths."""

import json
import tracemalloc

import numpy as np
import pytest

from triway import cli
from triway.model import make_config
from triway.sim import CausalEncoder, _propagate_power, normalize_power, random_encoders

_MSG_INDEX = ((0, 1), (2, 3), (4, 5))


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


_CFG, _ = make_config(1.5, -1.0, 0.5, 10.0)
_FLAGS = [(True, False), (False, True), (True, True)]


_MIXED = (  # tap counts (0, 1, 3) and distinct message scales
    CausalEncoder(message_weights=(0.7, -1.2), message_scale=1.3),
    CausalEncoder(message_weights=(-0.4, 0.9), feedback_weights=(0.21,), message_scale=0.8),
    CausalEncoder(message_weights=(1.1, 0.3), feedback_weights=(-0.12, 0.07, 0.05)),
)


def _random_triple(n_taps):
    encoders = random_encoders(_CFG, n_taps, seed=7 + n_taps)
    return tuple(e.with_scale(0.6 + 0.3 * j) for j, e in enumerate(encoders))


@pytest.mark.parametrize("with_messages,with_noise", _FLAGS)
@pytest.mark.parametrize("n", [1, 2, 3, 200])
@pytest.mark.parametrize("encoders", [_random_triple(k) for k in range(4)] + [_MIXED],
                         ids=["taps0", "taps1", "taps2", "taps3", "taps013"])
def test_recursion_matches_expansion(encoders, n, with_messages, with_noise):
    got = _propagate_power(encoders, _CFG, n, with_messages, with_noise)
    want = expanded_power(encoders, _CFG, n, with_messages, with_noise)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_normalize_power_memory_is_bounded():
    n = 20000
    encoders = random_encoders(_CFG, 2, seed=3)
    tracemalloc.start()
    try:
        normalize_power(encoders, _CFG, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_genie_cli_long_block(capsys):
    code = cli.main(["genie", "--variant", "lemma1", "--n", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["max_rel_error"] < 1e-9

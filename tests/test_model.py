"""Canonicalization, validation, and serialization of the domain types."""

import itertools
import math

import numpy as np
import pytest

import triway
from helpers import apply_rates, inverse
from triway.model import (
    ChannelConfig,
    ChannelGains,
    RateTuple,
    UserPermutation,
    ValidationError,
    canonicalize,
    validate,
)


def test_canonicalize_sorts_by_squared_magnitude():
    gains, perm = canonicalize(1.0, 2.0, 3.0)
    assert gains == ChannelGains(h1=1.0, h2=2.0, h3=3.0)
    # the strongest pair 2-3 becomes the new pair 1-2
    assert perm.mapping == (3, 2, 1)


def test_canonicalize_identity_when_ordered():
    gains, perm = canonicalize(5.0, 4.0, 3.0)
    assert gains == ChannelGains(h1=3.0, h2=4.0, h3=5.0)
    assert perm.is_identity


def test_canonicalize_keeps_signs():
    gains, perm = canonicalize(-2.0, 1.0, 1.0)
    assert gains.h3 == -2.0
    assert gains.h3 ** 2 >= gains.h2 ** 2 >= gains.h1 ** 2
    assert perm.is_identity


def test_canonicalize_tie_prefers_identity():
    gains, perm = canonicalize(1.0, 1.0, 1.0)
    assert perm.is_identity
    assert gains == ChannelGains(h1=1.0, h2=1.0, h3=1.0)


def test_canonicalize_tie_prefers_lex_smallest_mapping():
    # g12=1 is strictly weakest, so identity is invalid; several relabelings
    # remain valid and the lexicographically smallest mapping must win
    g12, g13, g23 = 1.0, 2.0, 2.0
    pair = {frozenset((1, 2)): g12, frozenset((1, 3)): g13, frozenset((2, 3)): g23}
    valid = []
    for mapping in itertools.permutations((1, 2, 3)):
        inv = {mapping[k - 1]: k for k in (1, 2, 3)}
        h3 = pair[frozenset((inv[1], inv[2]))]
        h2 = pair[frozenset((inv[1], inv[3]))]
        h1 = pair[frozenset((inv[2], inv[3]))]
        if h3 * h3 >= h2 * h2 >= h1 * h1:
            valid.append(mapping)
    _, perm = canonicalize(g12, g13, g23)
    assert perm.mapping == min(valid)
    assert (1, 2, 3) not in valid


def test_canonicalize_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = rng.standard_normal(3)
        gains, _ = canonicalize(*g)
        # feeding the canonical gains back in must not relabel anything
        regains, perm2 = canonicalize(gains.h3, gains.h2, gains.h1)
        assert perm2.is_identity
        assert regains == gains


def test_canonicalize_preserves_squared_multiset():
    rng = np.random.default_rng(8)
    for _ in range(300):
        g = rng.standard_normal(3)
        gains, _ = canonicalize(*g)
        assert sorted(v * v for v in g) == pytest.approx(sorted(gains.squared()))


def test_canonicalize_rejects_nonfinite():
    with pytest.raises(ValidationError):
        canonicalize(math.nan, 1.0, 1.0)
    with pytest.raises(ValidationError):
        canonicalize(1.0, math.inf, 1.0)


def test_permutation_roundtrips_rates():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = rng.standard_normal(3)
        _, perm = canonicalize(*g)
        rates = RateTuple.from_sequence(rng.uniform(0, 3, 6))
        assert apply_rates(inverse(perm), apply_rates(perm, rates)) == rates
        assert apply_rates(perm, apply_rates(inverse(perm), rates)) == rates


def test_permutation_relabels_consistently():
    # original 1->3, 2->2, 3->1: original r12 becomes r32
    perm = UserPermutation((3, 2, 1))
    rates = RateTuple(r12=1.0, r13=2.0, r21=3.0, r23=4.0, r31=5.0, r32=6.0)
    out = apply_rates(perm, rates)
    assert out.r32 == rates.r12
    assert out.r31 == rates.r13
    assert out.r23 == rates.r21
    assert out.r13 == rates.r31


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValidationError):
        UserPermutation((1, 1, 3))


def test_validate_accepts_ordered_config():
    cfg = ChannelConfig(gains=ChannelGains(h1=1.0, h2=2.0, h3=3.0), power=1.0)
    assert validate(cfg) is cfg


def test_validate_rejects_nonpositive_power():
    gains = ChannelGains(h1=1.0, h2=1.0, h3=1.0)
    with pytest.raises(ValidationError, match="power must be positive"):
        validate(ChannelConfig(gains=gains, power=0.0))
    with pytest.raises(ValidationError, match="power must be positive"):
        validate(ChannelConfig(gains=gains, power=-2.0))


def test_validate_rejects_unordered_gains():
    with pytest.raises(ValidationError, match="ordering violated"):
        cfg = ChannelConfig(gains=ChannelGains(h1=3.0, h2=2.0, h3=1.0), power=1.0)
        validate(cfg)


def test_validate_rejects_nonfinite():
    with pytest.raises(ValidationError):
        validate(ChannelConfig(gains=ChannelGains(1.0, 1.0, math.inf), power=1.0))
    with pytest.raises(ValidationError):
        validate(ChannelConfig(gains=ChannelGains(0.0, 0.0, 1.0), power=math.nan))


def test_validation_error_is_value_error():
    assert issubclass(ValidationError, ValueError)


def test_rate_tuple_sequence_helpers():
    rates = RateTuple.from_sequence([1, 2, 3, 4, 5, 6])
    assert rates.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    with pytest.raises(ValidationError):
        RateTuple.from_sequence([1, 2, 3])


def test_canonicalize_matches_the_documented_tie_rule():
    # reference: among relabelings that order the squared gains, the identity
    # if it is one, else the lexicographically smallest mapping
    rng = np.random.default_rng(10)
    for _ in range(2000):
        g = rng.choice([0.0, -1.0, 1.0, 2.0, -0.5], 3) if rng.random() < 0.5 else rng.standard_normal(3)
        pair = {frozenset((1, 2)): g[0], frozenset((1, 3)): g[1], frozenset((2, 3)): g[2]}
        valid = {}
        for mapping in itertools.permutations((1, 2, 3)):
            inv = {mapping[k - 1]: k for k in (1, 2, 3)}
            h = (pair[frozenset((inv[2], inv[3]))], pair[frozenset((inv[1], inv[3]))],
                 pair[frozenset((inv[1], inv[2]))])
            if h[2] ** 2 >= h[1] ** 2 >= h[0] ** 2:
                valid[mapping] = ChannelGains(*h)
        want = (1, 2, 3) if (1, 2, 3) in valid else min(valid)
        gains, perm = canonicalize(*g)
        assert perm.mapping == want and gains == valid[want]


def test_public_names_are_pinned():
    assert triway.__all__ == [
        "BoundReport", "CausalEncoder", "ChannelConfig", "ChannelGains", "ChannelRealization",
        "CrossoverResult", "CutsetBounds", "GapStatistics", "GenieSideInfo", "LinearConstraint",
        "LpSolution", "PropertyViolationError", "RateRegion", "RateTuple", "ReportTable",
        "SweepSpec", "TransmissionTrace", "UserPermutation", "ValidationError",
        "bounds", "build_region", "canonicalize", "cap", "dof_estimate", "estimate_p2p_mi",
        "evaluate", "experiments", "export_report", "find_crossover", "gap_ensemble",
        "genie_reconstruct_lemma1", "genie_reconstruct_lemma2", "genie_verdict", "make_config",
        "make_genie_side_info", "max_weighted_sum", "model", "normalize_power", "random_encoders",
        "region", "sim", "simulate_network", "simulate_pnc_relay", "sum_capacity_interval",
        "sweep_snr", "validate",
    ]

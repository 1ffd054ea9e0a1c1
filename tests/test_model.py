"""Canonicalization, validation, and serialization of the domain types."""

import dataclasses
import importlib
import itertools
import math
import types

import numpy as np
import pytest

import triway
from helpers import apply_rates, inverse, is_identity, reference_canonicalize
from triway.model import (
    ChannelConfig,
    ChannelGains,
    ValidationError,
    _canonical_rows,
    canonicalize,
)
from triway.region import RATE_ORDER


def test_canonicalize_sorts_by_squared_magnitude():
    gains, mapping = canonicalize(1.0, 2.0, 3.0)
    assert gains == ChannelGains(h1=1.0, h2=2.0, h3=3.0)
    # the strongest pair 2-3 becomes the new pair 1-2
    assert mapping == (3, 2, 1)


def test_canonicalize_identity_when_ordered():
    gains, perm = canonicalize(5.0, 4.0, 3.0)
    assert gains == ChannelGains(h1=3.0, h2=4.0, h3=5.0)
    assert is_identity(perm)


def test_canonicalize_keeps_signs():
    gains, perm = canonicalize(-2.0, 1.0, 1.0)
    assert gains.h3 == -2.0
    assert gains.h3 ** 2 >= gains.h2 ** 2 >= gains.h1 ** 2
    assert is_identity(perm)


def test_canonicalize_tie_prefers_identity():
    gains, perm = canonicalize(1.0, 1.0, 1.0)
    assert is_identity(perm)
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
    _, mapping = canonicalize(g12, g13, g23)
    assert mapping == min(valid)
    assert (1, 2, 3) not in valid


def test_canonicalize_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = rng.standard_normal(3)
        gains, _ = canonicalize(*g)
        # feeding the canonical gains back in must not relabel anything
        regains, perm2 = canonicalize(gains.h3, gains.h2, gains.h1)
        assert is_identity(perm2)
        assert regains == gains


def test_canonicalize_preserves_squared_multiset():
    rng = np.random.default_rng(8)
    for _ in range(300):
        g = rng.standard_normal(3)
        gains, _ = canonicalize(*g)
        assert sorted(v * v for v in g) == pytest.approx(sorted(gains.bound_inputs()[:3]))


def test_canonicalize_rejects_nonfinite():
    # a row holding a NaN keeps the identity: the error names its first bad gain in g12, g13, g23 order
    for g, bad in (((math.nan, 1.0, 1.0), "nan"), ((1.0, math.inf, 1.0), "inf"),
                   ((math.inf, math.nan, 1.0), "inf"), ((1.0, math.nan, math.inf), "nan")):
        with pytest.raises(ValidationError, match=f"^channel gain {bad} is not finite$"):
            canonicalize(*g)


def test_permutation_roundtrips_rates():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = rng.standard_normal(3)
        _, perm = canonicalize(*g)
        rates = tuple(rng.uniform(0, 3, 6).tolist())
        assert apply_rates(inverse(perm), apply_rates(perm, rates)) == rates
        assert apply_rates(perm, apply_rates(inverse(perm), rates)) == rates


def test_permutation_relabels_consistently():
    # original 1->3, 2->2, 3->1: original r12 becomes r32
    rates = dict(r12=1.0, r13=2.0, r21=3.0, r23=4.0, r31=5.0, r32=6.0)
    out = dict(zip(RATE_ORDER, apply_rates((3, 2, 1), tuple(rates.values()))))
    assert out["r32"] == rates["r12"]
    assert out["r31"] == rates["r13"]
    assert out["r23"] == rates["r21"]
    assert out["r13"] == rates["r31"]


def test_validate_accepts_ordered_config():
    cfg = ChannelConfig(gains=ChannelGains(h1=1.0, h2=2.0, h3=3.0), power=1.0)
    assert (cfg.gains.h3, cfg.power) == (3.0, 1.0)


def test_validate_rejects_nonpositive_power():
    gains = ChannelGains(h1=1.0, h2=1.0, h3=1.0)
    with pytest.raises(ValidationError, match="power must be positive"):
        ChannelConfig(gains=gains, power=0.0)
    with pytest.raises(ValidationError, match="power must be positive"):
        ChannelConfig(gains=gains, power=-2.0)


def test_validate_rejects_unordered_gains():
    with pytest.raises(ValidationError, match="ordering violated"):
        ChannelConfig(gains=ChannelGains(h1=3.0, h2=2.0, h3=1.0), power=1.0)


@pytest.mark.parametrize("triple,message", [
    ((2.0, 1.0, 0.5), "gain ordering violated: need |h3| >= |h2| >= |h1|, "
                      "got ChannelGains(h1=2.0, h2=1.0, h3=0.5)"),
    ((0.5, 1.0, math.inf), "channel gain inf is not finite"),
    ((math.nan, 1.0, 1.0), "channel gain nan is not finite"),
    ((math.nan, -math.inf, 1.0), "channel gain -inf is not finite"),  # h3, h2, h1: g12, g13, g23
    ((0.0, 1e160, 1e160), "squared gains overflow: h3^2 + h2^2 = inf is not finite"),
], ids=("unordered", "inf", "nan", "h2-before-h1", "squares-overflow"))
def test_gains_reject_bad_triples_when_built(triple, message):
    with pytest.raises(ValidationError) as exc:
        ChannelGains(*triple)
    assert str(exc.value) == message


def test_validate_rejects_nonfinite():
    with pytest.raises(ValidationError):
        ChannelConfig(gains=ChannelGains(1.0, 1.0, math.inf), power=1.0)
    with pytest.raises(ValidationError):
        ChannelConfig(gains=ChannelGains(0.0, 0.0, 1.0), power=math.nan)


def test_validation_error_is_value_error():
    assert issubclass(ValidationError, ValueError)


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
        gains, mapping = canonicalize(*g)
        assert mapping == want and gains == valid[want]


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(canon, g):
    """canon(*g), or the text of the ValidationError it raises."""
    try:
        return canon(*g)
    except ValidationError as exc:
        return str(exc)


# signed zeros, subnormals, squares that underflow or overflow, both infinities and NaN
_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, 1e-170, -1e-170, 1e200,
                math.inf, -math.inf, math.nan)


def test_canonicalize_matches_the_permutation_loop_exactly():
    normals = np.random.default_rng(11).standard_normal((2000, 3)).tolist()
    for g in [*itertools.product(_EDGE_VALUES, repeat=3), *normals]:
        got, want = _outcome(canonicalize, g), _outcome(reference_canonicalize, g)
        if isinstance(want, str):  # the same error text, from ChannelGains
            assert got == want, g
            continue
        (gains, mapping), (want_gains, want_mapping) = got, want
        assert mapping == want_mapping, g
        for name in ("h1", "h2", "h3"):  # signed zeros count
            assert _same_float(getattr(gains, name), getattr(want_gains, name)), (g, name)


def test_canonical_rows_is_canonicalize_row_by_row():
    # ties, signed zeros and infinities: where several relabelings order a row, the first one wins;
    # an invalid row, alone or in a block, raises the error reference_canonicalize gives the first one;
    # order lists each row's original users by new label, so order + 1 inverts the mapping
    normals = np.random.default_rng(5).standard_normal((50, 3))
    rows = np.array([*itertools.product(_EDGE_VALUES, repeat=3), *normals])
    wants = [_outcome(reference_canonicalize, row) for row in rows.tolist()]
    for row, want in zip(rows, wants):
        got = _outcome(lambda *g: _canonical_rows(np.array([g])), row)
        if isinstance(want, str):
            assert got == want, row
        else:
            (h,), (order,) = got
            assert h.tobytes() == np.array(dataclasses.astuple(want[0])).tobytes(), row
            assert tuple((order + 1).tolist()) == inverse(want[1]), row
    valid = [not isinstance(want, str) for want in wants]
    good = [want for want, ok in zip(wants, valid) if ok]
    h, order = _canonical_rows(rows[valid])
    assert h.tobytes() == np.array([dataclasses.astuple(gains) for gains, _ in good]).tobytes()
    assert [tuple(o) for o in (order + 1).tolist()] == [inverse(mapping) for _, mapping in good]
    with pytest.raises(ValidationError) as exc:
        _canonical_rows(rows)
    assert str(exc.value) == wants[valid.index(False)]


_PUBLIC_NAMES = {
    "model": ["ChannelConfig", "ChannelGains", "PropertyViolationError", "ValidationError",
              "canonicalize", "make_config"],
    "bounds": ["BoundReport", "evaluate", "sum_capacity_interval"],
    "region": ["RATE_ORDER", "TOL", "build_region", "max_weighted_sum"],
    "sim": ["CausalEncoder", "TransmissionTrace",
            "estimate_p2p_mi", "expected_block_power",
            "genie_reconstruct_lemma1", "genie_reconstruct_lemma2", "genie_verdict",
            "normalize_power", "random_encoders", "reconstruction_error",
            "simulate_network", "simulate_pnc_relay"],
    "experiments": ["BOUND_COLUMNS", "DOF_FIELDS", "ReportTable", "SweepSpec", "bounds_report",
                    "dof_estimate", "export_report", "find_crossover", "gap_ensemble", "power_grid",
                    "region_report", "sweep_snr", "trace_table"],
    "cli": ["build_parser", "main"],
}


def test_public_names_are_pinned():
    # the package re-exports nothing; each module's own public names are its API
    assert triway.__all__ == ["__version__"]
    for name, want in _PUBLIC_NAMES.items():
        module = importlib.import_module(f"triway.{name}")
        defined = sorted(attr for attr, value in vars(module).items()
                         if not attr.startswith("_") and not isinstance(value, types.ModuleType)
                         and getattr(value, "__module__", module.__name__) == module.__name__)
        assert defined == want, name

"""Rate-region construction, the sum-rate simplex against independent oracles
(scipy linprog, dual-vertex enumeration, naive grid search), and the fast
grid oracle's exact equivalence to exhaustive search."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import cap, is_feasible, oracle_max_sum, sub_region
from triway.bounds import evaluate
from triway.experiments import export_report
from triway.model import ChannelConfig, ChannelGains, ValidationError, canonicalize
from triway.region import _SUPPORTS, RATE_ORDER, RateRegion, build_region, max_weighted_sum

ONES = np.ones(6)  # the sum rate's weights


def _cfg(h1, h2, h3, power):
    return ChannelConfig(gains=ChannelGains(h1=h1, h2=h2, h3=h3), power=power)


def _random_cfg(rng, p_lo=0.1, p_hi=100.0):
    gains, _ = canonicalize(*rng.standard_normal(3))
    return ChannelConfig(gains=gains, power=10.0 ** rng.uniform(
        math.log10(p_lo), math.log10(p_hi)))


def _arrays(region):
    A = np.array([[float(j in _SUPPORTS[label]) for j in range(6)] for label in region.rhs]).reshape(-1, 6)
    b = np.array(list(region.rhs.values()), dtype=float)
    return A, b


def _rates(sol):
    assert list(sol["optimizer"]) == list(RATE_ORDER)
    return tuple(sol["optimizer"].values())


def _scipy_max(region):
    A, b = _arrays(region)
    return linprog(c=-ONES, A_ub=A, b_ub=b, bounds=[(0, None)] * 6, method="highs")


def _naive_grid_max(region, step):
    """True exhaustive grid search; only usable at coarse steps."""
    A, b = _arrays(region)
    axes = []
    for j in range(6):
        limit = min(rhs for label, rhs in region.rhs.items() if j in _SUPPORTS[label])
        axes.append(np.arange(int(np.floor((limit + 1e-9) / step)) + 1) * step)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    ok = np.all(pts @ A.T <= b + 1e-9, axis=1)
    return float(pts[ok].sum(axis=1).max())


def _dual_vertex_min(region, w, tol=1e-9):
    """Min b.y over dual vertices: nonneg multipliers reproducing the weights
    on a basis of tight coordinates, feasible (A^T y >= w) everywhere."""
    A, b = _arrays(region)
    w = np.asarray(w, float)
    m = len(b)
    best = math.inf
    for k in range(1, min(m, 6) + 1):
        for S in itertools.combinations(range(m), k):
            As = A[list(S)]
            for T in itertools.combinations(range(6), k):
                M = As[:, list(T)].T
                try:
                    y = np.linalg.solve(M, w[list(T)])
                except np.linalg.LinAlgError:
                    continue
                if np.any(y < -tol):
                    continue
                y = np.maximum(y, 0.0)
                if np.all(As.T @ y >= w - 1e-7):
                    best = min(best, float(y @ b[list(S)]))
    return best


def test_build_region_structure():
    cfg = _cfg(1.0, 1.0, 1.0, 1.0)
    cut = sub_region(cfg, "cutset")
    assert len(cut.rhs) == 6
    for c in cut.as_dict()["constraints"]:
        assert sum(c["coeffs"]) == 2 and set(c["coeffs"]) <= {0.0, 1.0}
        assert c["label"].startswith("cutset.")

    lem = sub_region(cfg, "lemma1", "lemma2")
    assert list(lem.rhs) == ["lemma1", "lemma2"]
    supports = [tuple(j for j, v in enumerate(c["coeffs"]) if v) for c in lem.as_dict()["constraints"]]
    assert sorted(supports[0] + supports[1]) == list(range(6))  # disjoint partition
    for rhs in lem.rhs.values():
        assert rhs == pytest.approx(1.292481250360578, rel=1e-12)

    full = build_region(cfg)
    assert list(full.rhs) == list(_SUPPORTS) == [
        "cutset.out1", "cutset.in1", "cutset.out2", "cutset.in2",
        "cutset.out3", "cutset.in3", "lemma1", "lemma2",
    ]


def test_lemmas_only_lp_is_separable():
    rng = np.random.default_rng(20)
    for _ in range(50):
        cfg = _random_cfg(rng)
        reg = sub_region(cfg, "lemma1", "lemma2")
        sol = max_weighted_sum(reg)
        assert sol["status"] == "optimal"
        b = evaluate(cfg)
        expect = b.lemma1 + b.lemma2
        assert sol["optimal_value"] == pytest.approx(expect, rel=1e-12)
        assert set(sol["tight_constraints"]) == {"lemma1", "lemma2"}


def test_cutset_only_symmetric_value():
    reg = sub_region(_cfg(1.0, 1.0, 1.0, 1.0), "cutset")
    sol = max_weighted_sum(reg)
    assert sol["optimal_value"] == pytest.approx(2.377443751081734, rel=1e-12)  # 3 cap(2)


def test_optimizer_feasible_and_scaled_copy_is_not():
    rng = np.random.default_rng(22)
    for _ in range(50):
        cfg = _random_cfg(rng)
        reg = build_region(cfg)
        sol = max_weighted_sum(reg)
        assert sol["status"] == "optimal"
        assert is_feasible(reg, _rates(sol), tol=1e-9)
        assert sol["tight_constraints"]  # something binds at an optimum
        if sol["optimal_value"] > 1e-6:
            inflated = tuple(1.01 * v for v in _rates(sol))
            assert not is_feasible(reg, inflated, tol=1e-9)


def test_origin_feasible_tolerance_validation():
    reg = build_region(_cfg(0.5, 1.0, 1.5, 1.0))
    assert is_feasible(reg, (0.0,) * 6)
    with pytest.raises(ValidationError):
        is_feasible(reg, (0.0,) * 6, tol=-1.0)


def test_empty_region_is_unbounded():
    # the grid oracle rejects a region in which some rate appears in no constraint
    for reg in (RateRegion({}), sub_region(_cfg(1.0, 1.0, 1.0, 1.0), "lemma1")):
        with pytest.raises(ValidationError, match="unbounded"):
            oracle_max_sum(reg, 0.1)


def test_degenerate_all_zero_gains():
    # every rhs is 0: heavy degeneracy, Bland's rule must still terminate
    reg = build_region(_cfg(0.0, 0.0, 0.0, 1.0))
    sol = max_weighted_sum(reg)
    assert sol["status"] == "optimal"
    assert sol["optimal_value"] == pytest.approx(0.0, abs=1e-12)


def test_simplex_matches_scipy_over_ensemble():
    # every family set bounds all six rates, as the full region does
    rng = np.random.default_rng(23)
    family_sets = [("cutset", "lemma1", "lemma2"), ("cutset",), ("lemma1", "lemma2"),
                   ("cutset", "lemma1"), ("cutset", "lemma2")]
    for trial in range(120):
        cfg = _random_cfg(rng)
        reg = sub_region(cfg, *family_sets[trial % len(family_sets)])
        sol = max_weighted_sum(reg)
        res = _scipy_max(reg)
        assert res.status == 0
        assert sol["optimal_value"] == pytest.approx(-res.fun, abs=1e-8)
        assert is_feasible(reg, _rates(sol), tol=1e-9)


def test_duality_vertex_enumeration():
    rng = np.random.default_rng(24)
    for _ in range(8):
        cfg = _random_cfg(rng)
        reg = build_region(cfg)
        sol = max_weighted_sum(reg)
        assert _dual_vertex_min(reg, ONES) == pytest.approx(sol["optimal_value"], abs=1e-6)


def test_lp_below_tightened_and_above_pairing_point():
    rng = np.random.default_rng(25)
    for _ in range(100):
        cfg = _random_cfg(rng)
        reg = build_region(cfg)
        sol = max_weighted_sum(reg)
        assert sol["optimal_value"] <= evaluate(cfg).tightened_upper + 1e-9
        c = cap(cfg.gains.h3 ** 2 * cfg.power)
        point = (c, 0.0, c, 0.0, 0.0, 0.0)  # r12 = r21 = c
        assert is_feasible(reg, point, tol=1e-9)
        assert sol["optimal_value"] >= c + c - 1e-9


def test_oracle_within_six_steps_of_lp():
    rng = np.random.default_rng(26)
    for trial in range(12):
        cfg = _random_cfg(rng)
        families = [("cutset", "lemma1", "lemma2"), ("cutset",), ("lemma1", "lemma2")][trial % 3]
        reg = sub_region(cfg, *families)
        lp = max_weighted_sum(reg)["optimal_value"]
        grid = oracle_max_sum(reg, 0.01)
        assert grid <= lp + 1e-9
        assert abs(lp - grid) <= 0.06 + 1e-12


def test_oracle_equals_naive_exhaustive_search():
    # coarse steps keep the true 6-D enumeration tractable; the fast oracle
    # must reproduce it exactly, not just approximately
    rng = np.random.default_rng(27)
    for trial in range(6):
        cfg = _random_cfg(rng, p_lo=0.3, p_hi=2.0)
        families = [("cutset", "lemma1", "lemma2"), ("cutset",), ("lemma1", "lemma2")][trial % 3]
        reg = sub_region(cfg, *families)
        step = 0.25
        assert oracle_max_sum(reg, step) == pytest.approx(_naive_grid_max(reg, step), abs=1e-9)


def test_oracle_spec_examples():
    cfg = _cfg(1.0, 1.0, 1.0, 1.0)
    lem = sub_region(cfg, "lemma1", "lemma2")
    assert abs(oracle_max_sum(lem, 0.01) - 2.584962500721156) <= 0.06
    cut = sub_region(cfg, "cutset")
    assert abs(oracle_max_sum(cut, 0.01) - 2.377443751081734) <= 0.06


def test_oracle_validation():
    reg = build_region(_cfg(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match="grid_step"):
        oracle_max_sum(reg, 0.0)


def test_json_exports():
    import json
    cfg = _cfg(0.5, 1.0, 1.5, 2.0)
    reg = build_region(cfg)
    obj = json.loads(export_report(reg.as_dict(), "json"))
    assert obj["rate_order"] == ["r12", "r13", "r21", "r23", "r31", "r32"]
    assert len(obj["constraints"]) == 8
    assert obj["constraints"][0]["label"] == "cutset.out1"

    sol = max_weighted_sum(reg)
    sobj = json.loads(export_report(sol, "json"))
    assert sobj["status"] == "optimal"
    assert set(sobj["optimizer"]) == {"r12", "r13", "r21", "r23", "r31", "r32"}
    assert sobj["optimal_value"] == sol["optimal_value"]

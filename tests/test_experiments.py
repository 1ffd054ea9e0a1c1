"""Batch drivers: sweep tables, gap ensembles, crossover search, and the
byte-stable report serialization they share."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    crossover_root,
    csv_cell,
    load_report_json,
    reference_csv,
    reference_dof_estimate,
    reference_find_crossover,
    reference_gap_ensemble,
    reference_json,
    reference_sweep_rows,
    table_from_json,
    table_row,
    table_rows,
)
from triway import bounds, experiments
from triway.bounds import evaluate, sum_capacity_interval
from triway.experiments import (
    _CSV_BLOCK,
    _GAP_BLOCK,
    _SEED_BATCH,
    BOUND_COLUMNS,
    DOF_FIELDS,
    ReportTable,
    SweepSpec,
    dof_estimate,
    export_report,
    find_crossover,
    gap_ensemble,
    power_grid,
    sweep_snr,
    _exact_block,
    _seed_class,
    _seed_states,
    _seed_words,
)
from triway.model import ChannelConfig, ChannelGains, ValidationError, canonicalize

SYM = ChannelGains(1.0, 1.0, 1.0)


def _crossover(gains, p_lo, p_hi) -> tuple[float, str]:
    """find_crossover's p_star and status."""
    table = find_crossover(gains, p_lo, p_hi)
    return table_row(table)["p_star"], table.meta["status"]


def _csv(header, columns) -> str:
    """export_report's CSV text of a table with these header and columns."""
    return export_report(ReportTable(kind="t", header=header, columns=columns, meta={}), "csv")


def _col(table, name):
    return table.columns[table.header.index(name)]


def _slope(table, name):
    x = 0.5 * np.log2(_col(table, "P"))
    return float(np.polyfit(x, _col(table, name), 1)[0])


def test_sweep_slopes_show_degrees_of_freedom():
    spec = SweepSpec(p_lo=1e2, p_hi=1e8, points=9, gains=SYM)
    table = sweep_snr(spec)
    assert table.kind == "sweep"
    assert table.header == ("P", *BOUND_COLUMNS, "gap")
    assert all(len(c) == 9 for c in table.columns)
    assert abs(_slope(table, "theorem2_upper") - 2.0) < 0.05
    assert abs(_slope(table, "achievable_lower") - 2.0) < 0.05
    assert abs(_slope(table, "outgoing_cutset_sum") - 3.0) < 0.05


def test_sweep_rows_match_direct_evaluation():
    spec = SweepSpec(p_lo=0.5, p_hi=50.0, points=5, gains=ChannelGains(0.5, 1.0, 1.5))
    table = sweep_snr(spec)
    for row in table_rows(table):
        cfg = ChannelConfig(gains=spec.gains, power=row[0])
        assert row[table.header.index("tightened_upper")] == pytest.approx(
            evaluate(cfg).tightened_upper, rel=1e-12)
        _, _, gap = sum_capacity_interval(spec.gains.bound_inputs(), row[0])
        assert row[-1] == pytest.approx(gap, rel=1e-12)


def _parity_gains():
    """Random canonical gains over 12 decades, h2 = 0 (so h1 = 0), zero gains,
    and gains whose h^2 P overflows at large P into the log-domain cap."""
    rng = np.random.default_rng(23)
    gains = [ChannelGains(0.0, 0.0, 1.5), ChannelGains(0.0, 0.0, 0.0), ChannelGains(0.0, 0.0, 1e154),
             ChannelGains(0.0, 1.0, 1.0), ChannelGains(1e100, 1e150, 1.2e150), SYM]
    for _ in range(30):
        gains.append(canonicalize(*(rng.standard_normal(3) * 10.0 ** rng.uniform(-6, 6, 3)))[0])
    return gains


def _bits(values) -> str:
    return repr(values)  # shortest round-trip repr: equal strings, equal bits (signed zeros too)


def _same_table(a, b) -> bool:
    return ((a.kind, a.header, a.meta, _bits(table_rows(a)))
            == (b.kind, b.header, b.meta, _bits(table_rows(b))))


@pytest.mark.parametrize("k,gains", enumerate(_parity_gains()))
def test_drivers_match_their_evaluate_references_bit_for_bit(k, gains):
    rng = np.random.default_rng([29, k])
    for _ in range(3):
        lo = rng.uniform(-4.0, 150.0)
        hi = min(300.0, lo + rng.uniform(0.5, 150.0))
        spec = SweepSpec(p_lo=10.0 ** lo, p_hi=10.0 ** hi, points=int(rng.integers(1, 40)), gains=gains)
        assert _bits(table_rows(sweep_snr(spec))) == _bits(reference_sweep_rows(spec))
        hi = min(300.0, lo + rng.uniform(4.0, 150.0))
        spec = SweepSpec(p_lo=10.0 ** lo, p_hi=10.0 ** hi, points=int(rng.integers(8, 20)), gains=gains)
        grid = power_grid(spec)
        want = tuple(reference_dof_estimate(gains, grid, name) for name in DOF_FIELDS)
        assert _bits(table_rows(dof_estimate(spec))) == _bits((want,))
        s3 = gains.h3 * gains.h3  # the crossover sits near P = 1/h3^2
        p_lo = 10.0 ** rng.uniform(-3.0, 0.5) / (s3 if s3 > 0.0 else 1.0)
        p_hi = p_lo * 10.0 ** rng.uniform(0.5, 12.0)
        assert _bits(_crossover(gains, p_lo, p_hi)) == _bits(reference_find_crossover(gains, p_lo, p_hi))


def test_single_point_grid():
    spec = SweepSpec(p_lo=7.0, p_hi=7.0, points=1, gains=SYM)
    grid = power_grid(spec)
    assert grid.tolist() == [7.0]
    table = sweep_snr(spec)
    assert table_rows(table)[0][0] == 7.0 and all(len(c) == 1 for c in table.columns)


def test_spec_validation():
    with pytest.raises(ValidationError, match="points"):
        power_grid(SweepSpec(p_lo=1.0, p_hi=10.0, points=0))
    with pytest.raises(ValidationError, match="positive"):
        power_grid(SweepSpec(p_lo=0.0, p_hi=10.0, points=3))
    with pytest.raises(ValidationError, match="increasing"):
        power_grid(SweepSpec(p_lo=10.0, p_hi=1.0, points=3))
    with pytest.raises(ValidationError, match="ensemble"):
        power_grid(SweepSpec(p_lo=1.0, p_hi=10.0, points=3, ensemble=0))
    for lo, hi in ((1.0, math.inf), (math.nan, 10.0), (-math.inf, 10.0)):
        with pytest.raises(ValidationError, match="must be finite"):
            power_grid(SweepSpec(p_lo=lo, p_hi=hi, points=3))
    with pytest.raises(ValidationError, match="fixed gain"):
        sweep_snr(SweepSpec(p_lo=1.0, p_hi=10.0, points=3, gains=None))
    with pytest.raises(ValidationError, match="fixed gain"):
        dof_estimate(SweepSpec(p_lo=1.0, p_hi=1e8, points=9, gains=None))


def test_dof_estimate_reads_the_grid_once_and_the_kernel_once_per_fitted_point(monkeypatch):
    # one grid, and one array call of the kernel over exactly the fitted points
    calls = {"power_grid": [], "_bound_terms": []}
    for module, name in ((experiments, "power_grid"), (bounds, "_bound_terms")):
        def counted(*args, _call=getattr(module, name), _name=name):
            calls[_name].append(args)
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    spec = SweepSpec(p_lo=1e2, p_hi=1e8, points=9, gains=SYM)
    table = dof_estimate(spec)
    assert table.header == DOF_FIELDS and len(table_rows(table)) == 1
    assert len(calls["power_grid"]) == 1 and len(calls["_bound_terms"]) == 1
    powers = calls["_bound_terms"][0][4]  # the fit reads the last 5 of 9 points
    assert powers.tobytes() == power_grid(spec)[4:].tobytes()


def test_grid_prefix_is_the_logspace_prefix_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(400):
        lo = rng.uniform(-300.0, 300.0)
        hi = lo + (rng.uniform(0.0, 308.0 - lo) if trial % 4 else 10.0 ** rng.uniform(-14, 0))
        points = int(rng.integers(2, 3000)) if trial % 50 else 10 ** 6
        if not 10.0 ** lo < 10.0 ** hi:
            continue
        spec = SweepSpec(p_lo=10.0 ** lo, p_hi=10.0 ** hi, points=points)
        grid = np.logspace(math.log10(spec.p_lo), math.log10(spec.p_hi), points)
        for k in (1, 2, int(rng.integers(1, points + 1)), points - 1, points, points + 7):
            assert power_grid(spec, k).tobytes() == grid[:k].tobytes(), (spec, k)
        assert power_grid(spec).tobytes() == grid.tobytes()
    # the last point overflows whatever the prefix, as it did for the whole grid
    with pytest.raises(ValidationError, match="too large"):
        power_grid(SweepSpec(p_lo=1.0, p_hi=1.7976931348623157e308, points=10 ** 9), 2)


def test_gap_ensemble_reads_only_the_grid_points_it_uses():
    spec = SweepSpec(p_lo=0.1, p_hi=1e4, points=10 ** 7, ensemble=10, seed=0)
    tracemalloc.start()
    try:
        gap_ensemble(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6  # the whole grid takes 80 MB
    small = dataclasses.replace(spec, points=10 ** 6)
    assert table_rows(gap_ensemble(small)) == (reference_gap_ensemble(small),)  # the reference builds the whole grid


def test_sweep_deterministic_and_export_byte_stable():
    spec = SweepSpec(p_lo=1.0, p_hi=100.0, points=4, gains=SYM)
    t1, t2 = sweep_snr(spec), sweep_snr(spec)
    assert _same_table(t1, t2)
    text1 = export_report(t1, "json")
    text2 = export_report(t2, "json")
    assert text1 == text2


def test_gap_ensemble_statistics():
    spec = SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=2000, seed=0)
    table = gap_ensemble(spec)
    row = table_row(table)
    assert row["ensemble"] == 2000.0
    assert row["violations"] == 0.0
    assert 0.0 <= row["min_gap"] <= row["mean_gap"] <= row["max_gap"] <= 2.0
    ChannelGains(row["worst_g23"], row["worst_g13"], row["worst_g12"])  # canonical gains check themselves
    assert row["worst_power"] in power_grid(spec).tolist()
    assert _same_table(gap_ensemble(spec), table)  # trial streams make reruns identical


class _FixedDraw:
    """A generator stand-in whose standard normals are one fixed triple."""

    def __init__(self, draw):
        self.draw = np.array(draw, dtype=np.float64)

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.draw.copy()
        out[...] = self.draw
        return out


def _fix_every_draw(monkeypatch, draw):
    """Every trial draws the gains (g12, g13, g23) = draw, through the ensemble's one gain path."""
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraw(draw))


def test_gap_ensemble_fixed_gains_single_trial():
    # an ensemble draws its gains: a spec that fixes them is refused
    with pytest.raises(ValidationError, match="^gap ensembles draw their gains: need no fixed gain triple$"):
        gap_ensemble(SweepSpec(p_lo=9.0, p_hi=9.0, points=1, gains=SYM, ensemble=1, seed=5))
    row = table_row(gap_ensemble(SweepSpec(p_lo=9.0, p_hi=9.0, points=1, ensemble=1, seed=5)))
    gains, _ = canonicalize(*np.random.default_rng([5, 0]).standard_normal(3).tolist())
    gap = sum_capacity_interval(gains.bound_inputs(), 9.0)[2]
    assert row["min_gap"] == row["max_gap"] == row["mean_gap"] == gap
    assert (row["worst_g12"], row["worst_g13"], row["worst_g23"], row["worst_power"]) == (
        gains.h3, gains.h2, gains.h1, 9.0)


@pytest.mark.parametrize("spec, draw", [
    (SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=1500, seed=0), None),
    (SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=1500, seed=2**32 + 5), None),
    (SweepSpec(p_lo=0.5, p_hi=5e3, points=4, ensemble=9, seed=3), (1.2, 0.8, -0.3)),
    # every gap is the literal 2.0: the first trial, not a later tie, is the worst config
    (SweepSpec(p_lo=1e20, p_hi=1e200, points=5, ensemble=12), (1.0, 1.0, -1.0)),
    (SweepSpec(p_lo=1.0, p_hi=1e6, points=40, ensemble=7, seed=1), None),  # points > ensemble
    (SweepSpec(p_lo=2.0, p_hi=2.0, points=1, ensemble=25, seed=4), None),
], ids=["seed0", "seed2**32+5", "fixed_gains", "fixed_gains_tied_at_2", "points_gt_ensemble", "points1"])
def test_gap_ensemble_matches_the_per_trial_reference(monkeypatch, spec, draw):
    if draw is not None:
        _fix_every_draw(monkeypatch, draw)
    table = gap_ensemble(spec)
    assert table_rows(table) == (reference_gap_ensemble(spec),)
    if draw == (1.0, 1.0, -1.0):
        row = table_row(table)
        assert row["max_gap"] == 2.0 and row["worst_power"] == power_grid(spec)[0]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 + 1])
def test_seed_words_give_the_generator_of_the_seed_list(seed):
    # with t, 10**30 is 5 words and 2**128 + 1 is 6: past the 4-word pool of numpy's seed hash
    _SeedState = _seed_class()
    assert np.random.bit_generator.ISeedSequence in _SeedState.__mro__  # a subclass, not a registered class
    for t in (0, 1, 2**32 - 1, 2**32, 2**40 + 9):
        (words,) = _seed_words(seed, t, t + 1)
        assert words.dtype == np.uint32
        want = np.random.default_rng([seed, t]).bit_generator.state
        assert np.random.default_rng(words).bit_generator.state == want, (seed, t)
    # a block's rows are its trials' words and states, up to the last trial below 2**32 and
    # from 2**32 on; each state seeds the generator of the trial's seed list
    for start, stop in ((0, 3), (2**32 - 3, 2**32), (2**32, 2**32 + 3), (2**40 + 7, 2**40 + 10)):
        words = _seed_words(seed, start, stop)
        states = _seed_states(words)
        assert states.dtype == np.uint64 and states.shape == (stop - start, 4)
        for t, row, state in zip(range(start, stop), words, states):
            want = np.random.default_rng([seed, t]).bit_generator.state
            assert np.random.default_rng(row).bit_generator.state == want, (seed, t)
            assert np.random.default_rng(_SeedState(state)).bit_generator.state == want, (seed, t)
            # a pure seed: the fake default_rng in the first-bad-trial test reads it before numpy does
            seeded = _SeedState(state)
            assert all(np.array_equal(seeded.generate_state(4, np.uint64), state) for _ in range(3))
            assert np.array_equal(state, np.random.SeedSequence([seed, t]).generate_state(4, np.uint64))


def test_spec_rejects_a_negative_seed():
    # checked when the spec is built: no sweep or DoF fit echoes seed -1, no ensemble seeds with it
    for gains in (SYM, None):
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            SweepSpec(p_lo=1.0, p_hi=1e8, points=9, gains=gains, seed=-1)


# past 3 * _GAP_BLOCK + 1, one seed hash serves several blocks: the last block of a batch and
# the first of the next read the right rows of its states, and a short last batch hashes only its own
@pytest.mark.parametrize("ensemble", [_GAP_BLOCK - 1, _GAP_BLOCK, _GAP_BLOCK + 1, 3 * _GAP_BLOCK + 1,
                                      _SEED_BATCH - 1, _SEED_BATCH, _SEED_BATCH + 1, 2 * _SEED_BATCH + 1])
@pytest.mark.parametrize("seed, draw", [(0, None), (2**32 + 1, None), (2**64 + 5, None), (7, (1.2, 0.8, -0.3))],
                         ids=["seed0", "seed2**32+1", "seed2**64+5", "fixed_gains"])
def test_gap_ensemble_blocks_match_the_per_trial_reference(monkeypatch, ensemble, seed, draw):
    if draw is not None:
        _fix_every_draw(monkeypatch, draw)
    spec = SweepSpec(p_lo=0.1, p_hi=1e4, points=7, ensemble=ensemble, seed=seed)
    assert table_rows(gap_ensemble(spec)) == (reference_gap_ensemble(spec),)


@pytest.mark.parametrize("draws", [
    {5: (math.nan, 1.0, 0.5)},
    {_GAP_BLOCK + 3: (0.5, -math.inf, 1.0)},
    {2 * _GAP_BLOCK: (1e200, -2e200, 0.1)},  # canonical, but h3^2 + h2^2 overflows
    {_GAP_BLOCK + 9: (0.1, 0.2, math.nan), _GAP_BLOCK + 4: (math.inf, 0.0, 0.0)},  # the first trial wins
    {_GAP_BLOCK - 1: (1.0, 1e300, 0.0), 2 * _GAP_BLOCK: (math.nan, 0.0, 0.0)},  # so does the first block
], ids=["nan", "inf_second_block", "overflow", "two_in_a_block", "two_blocks"])
def test_gap_ensemble_raises_the_first_bad_trials_error(monkeypatch, draws):
    # the per-trial loop draws floats, canonicalizes them and raises ChannelGains' text
    first = min(draws)
    with pytest.raises(ValidationError) as want:
        canonicalize(*draws[first])
    # trial 0 reaches the literal gap 2.0, so no bad trial is the worst config, which is checked anyway
    draws = {0: (1e100, 1e100, 1e100), **draws}
    real = np.random.default_rng
    # a trial's seed shows its t only through the seed interface: match its state to [3, t]'s
    states = {t: np.random.SeedSequence([3, t]).generate_state(4, np.uint64).tolist() for t in draws}

    def rng(seed):
        t = [t for t, state in states.items() if seed.generate_state(4, np.uint64).tolist() == state]
        return _FixedDraw(draws[t[0]]) if t else real(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    spec = SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=3 * _GAP_BLOCK + 1, seed=3)
    with pytest.raises(ValidationError) as got:
        gap_ensemble(spec)
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith(("channel gain ", "squared gains overflow"))


def test_gap_ensemble_counts_every_gap_outside_zero_to_two(monkeypatch):
    # a block counts its violations only when its min or max leaves [0, 2]: stretch the gaps
    # so that some blocks hold none, some a few, and both ends are crossed
    gaps = []

    def stretched(inputs, P):
        lower, upper, gap = sum_capacity_interval(inputs, P)
        gaps.append(4.0 * gap - 5.5 if len(gaps) < _GAP_BLOCK else gap if len(gaps) < 3 * _GAP_BLOCK
                    else 3.0 * gap - 1.0)
        return lower, upper, gaps[-1]

    monkeypatch.setattr(bounds, "sum_capacity_interval", stretched)
    row = table_row(gap_ensemble(SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=4 * _GAP_BLOCK + 3, seed=2)))
    want = sum(g < 0.0 or g > 2.0 for g in gaps)
    assert 0 < want < len(gaps) and any(g < 0.0 for g in gaps) and any(g > 2.0 for g in gaps)
    assert not any(g < 0.0 or g > 2.0 for g in gaps[_GAP_BLOCK:3 * _GAP_BLOCK])
    assert row["violations"] == want
    assert (row["min_gap"], row["max_gap"]) == (min(gaps), max(gaps))


def test_gap_ensemble_memory_stays_bounded():
    peaks = []
    for ensemble in (2 * 10**3, 2 * 10**4):
        spec = SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=ensemble, seed=1)
        tracemalloc.start()
        try:
            gap_ensemble(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0] and peaks[1] < 256 * 1024, peaks


def test_gap_approaches_two_for_symmetric_gains():
    _, _, gap = sum_capacity_interval(SYM.bound_inputs(), 1e8)
    assert 1.999 <= gap <= 2.0


def test_gap_statistics_table_layout():
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, ensemble=50, seed=1)
    table = gap_ensemble(spec)
    assert table.kind == "gap-ensemble"
    assert table.header == ("ensemble", "min_gap", "max_gap", "mean_gap", "violations",
                            "worst_g12", "worst_g13", "worst_g23", "worst_power")
    assert table.meta == {"spec": {**dataclasses.asdict(spec), "bounds": list(BOUND_COLUMNS)},
                          "seed": 1, "version": table.meta["version"]}
    (row,) = table_rows(table)
    assert row[0] == 50.0 and row[4] == 0.0
    assert row == reference_gap_ensemble(spec)


def test_crossover_symmetric_gains():
    p_star, status = _crossover(SYM, 0.1, 100.0)
    assert status == "found"
    assert abs(p_star - 1.5) / 1.5 <= 1e-6


def test_crossover_analytic_second_family():
    # h = (0, 1, 1): outgoing sum minus lemma total is cap(P) - 1/2, zero at P = 1
    p_star, status = _crossover(ChannelGains(0.0, 1.0, 1.0), 0.5, 50.0)
    assert status == "found"
    assert abs(p_star - 1.0) <= 1e-6


def test_crossover_matches_the_closed_form_root():
    # gains over eight decades, each relabeled canonically, and a bracket on both sides of the root
    rng = np.random.default_rng(2014)
    for _ in range(2000):
        gains, _ = canonicalize(*(rng.standard_normal(3) * 10.0 ** rng.uniform(-4, 4, 3)).tolist())
        root = crossover_root(gains)
        lo, hi = root / 10.0 ** rng.uniform(0.1, 3), root * 10.0 ** rng.uniform(0.1, 3)
        p_star, status = _crossover(gains, lo, hi)
        assert status == "found", (gains, lo, hi)
        assert abs(p_star - root) <= 1e-6 * root, (gains, p_star, root)
    assert crossover_root(ChannelGains(0.0, 0.0, 1.0)) is None


def test_crossover_bracket_edges():
    assert _crossover(SYM, 2.0, 10.0) == (2.0, "already-crossed")
    p_star, status = _crossover(SYM, 1e-4, 1e-3)
    assert math.isnan(p_star) and status == "none"


def test_crossover_margin_brackets_the_root():
    p_star, _ = _crossover(SYM, 0.1, 100.0)

    def margin(P):
        cfg = ChannelConfig(gains=SYM, power=P)
        b = evaluate(cfg)
        return b.outgoing_cutset_sum - b.tightened_upper

    assert margin(p_star) > 0.0
    assert margin(p_star * (1.0 - 1e-5)) < 0.0


def test_crossover_bracket_validation():
    for lo, hi in ((0.0, 10.0), (5.0, 5.0), (10.0, 2.0), (1.0, math.inf), (-1.0, 2.0)):
        with pytest.raises(ValidationError, match="bracket"):
            find_crossover(SYM, lo, hi)


def test_crossover_table_encodes_status():
    table = find_crossover(SYM, 0.1, 100.0)
    assert table.header == ("p_star", "status_code", "g12", "g13", "g23", "p_lo", "p_hi")
    assert table_rows(table)[0][1] == 0.0 and table.meta["status"] == "found"
    assert table_row(find_crossover(SYM, 2.0, 10.0))["status_code"] == 1.0
    none_table = find_crossover(SYM, 1.0, 1.2)
    (row,) = table_rows(none_table)
    assert math.isnan(row[0]) and row[1] == 2.0 and none_table.meta["status"] == "none"
    # status none prints p_star as nan in CSV and as the non-strict NaN token in JSON
    assert export_report(none_table, "csv").split("\n")[1] == ("nan,2.000000,1.000000,1.000000,"
                                                             "1.000000,1.000000,1.200000")
    assert "\n      NaN,\n" in export_report(none_table, "json")


def test_csv_has_six_decimal_cells():
    spec = SweepSpec(p_lo=1.0, p_hi=100.0, points=3, gains=SYM)
    table = sweep_snr(spec)
    lines = export_report(table, "csv").strip().split("\n")
    assert lines[0] == ",".join(("P", *BOUND_COLUMNS, "gap"))
    for line, row in zip(lines[1:], table_rows(table)):
        assert line == ",".join(f"{v:.6f}" for v in row)


def test_json_roundtrip_is_exact():
    spec = SweepSpec(p_lo=0.3, p_hi=77.0, points=4, gains=ChannelGains(0.5, 1.0, 1.5))
    table = sweep_snr(spec)
    back = table_from_json(export_report(table, "json"))
    assert _same_table(back, table)  # repr-level float fidelity survives JSON


def test_export_and_load_files(tmp_path):
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, gains=SYM)
    table = sweep_snr(spec)
    path = tmp_path / "report.json"
    path.write_text(export_report(table, "json"))
    assert _same_table(load_report_json(path), table)
    csv_text = export_report(table, "csv")
    assert csv_text == reference_csv(table.header, table.columns)


def test_export_error_paths(tmp_path):
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, gains=SYM)
    table = sweep_snr(spec)
    with pytest.raises(ValidationError, match="format"):
        export_report(table, "xml")
    with pytest.raises(OSError, match="cannot read report from"):
        load_report_json(tmp_path / "absent.json")


def test_csv_rows_match_the_per_cell_rule():
    # one column of every dtype: four cells in the kernel's range, then four past it or at
    # the dtype's edges (ints past 2**33, inf, NaN); the first four fill a block of their own
    cells = {"f8": [0.0, -0.0, 1.5, 2.0 / 3.0, math.inf, -math.inf, math.nan, 2.0 ** 40 + 0.5],
             "f4": [0.0, -0.0, 1.5, 2.0 / 3.0, math.inf, -math.inf, math.nan, 3e38],
             "f2": [0.0, -0.0, 1.5, 0.1, math.inf, -math.inf, math.nan, 65504.0],
             "i8": [0, 1, -7, 2 ** 33 - 1, 2 ** 33, 2 ** 62 + 1, -2 ** 63, 2 ** 63 - 1],
             "u8": [0, 1, 7, 2 ** 33 - 1, 2 ** 33, 2 ** 63 + 1, 2 ** 64 - 1, 10 ** 19],
             "i4": [0, -1, 5, 100, -2 ** 31, 2 ** 31 - 1, 7, -7], "u4": [0, 1, 5, 100, 2 ** 32 - 1, 2 ** 31, 7, 3],
             "i2": [0, -1, 5, 100, -2 ** 15, 2 ** 15 - 1, 7, -7], "u2": [0, 1, 5, 100, 2 ** 16 - 1, 2 ** 15, 7, 3],
             "i1": [0, -1, 5, 100, -128, 127, 7, -7], "u1": [0, 1, 5, 100, 255, 128, 7, 3],
             "?": [True, False, True, True, False, False, True, False]}
    columns = tuple(np.array(v[:4] * (_CSV_BLOCK // 4) + v[4:], d) for d, v in cells.items())
    header = tuple(f"c{k}" for k in range(len(columns)))
    for table in (columns, tuple(c[::-1] for c in columns)):  # reversed: strided views
        rows = zip(*(c.tolist() for c in table))
        want = "\n".join([",".join(header), *(",".join(map(csv_cell, row)) for row in rows)]) + "\n"
        assert _csv(header, table) == want


_JSON_LEAVES = (st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.7e308,
                                 True, False, None, 0, -1, 2 ** 70])
                | st.floats() | st.floats().map(np.float64) | st.integers() | st.text())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)
                      | st.dictionaries(st.integers() | st.floats(), children, max_size=3)),
    max_leaves=40)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(_JSON_TREES)
# tables of rows: string cells that hold brackets, NUL and, with a real newline, the text that
# stands between two rows of a table's JSON, an empty row among full ones, tuple rows, and
# tables at several depths
@example([["]", "[", "\0"], ["]\u0000[", 1.5, None], ["x]", True, "[y"], ["],\n      [", "]\n["]])
@example([[1.0, 2.0], [], [3.0]])
@example(((1.0, "a"), (True, None, -0.0), (math.nan,)))
@example({"rows": [[1, 2], [3, 4]], "header": ("P", "gap")})
@example([{"a": [["]\0["], [0.5, math.inf]]}, [[["deep"], ["er", 2]]]])
def test_json_writer_matches_json_dumps(tree):
    assert export_report(tree, "json") == reference_json(tree)


def _str_column(cells) -> np.ndarray:
    return np.array(cells, dtype=object)  # a numpy str dtype would drop a cell's trailing NUL


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_TABLE_COLUMNS = {"f8": lambda n: hnp.arrays(np.float64, n, elements=st.floats() | _SPECIAL_FLOATS),
                  "i8": lambda n: hnp.arrays(np.int64, n),
                  "?": lambda n: hnp.arrays(np.bool_, n),
                  "str": lambda n: st.lists(st.text(), min_size=n, max_size=n).map(_str_column)}
_META = st.dictionaries(st.text(max_size=4), st.recursive(
    _JSON_LEAVES, lambda children: (st.lists(children, max_size=4)
                                    | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=20), max_size=4)


@st.composite
def _report_tables(draw):
    """A ReportTable of 1 to 4 float64, int64, bool or str columns of 0 to 30 rows, with a
    text kind and header and a string-keyed meta tree."""
    n = draw(st.sampled_from([0, 1, 2, 5, 30]))
    kinds = draw(st.lists(st.sampled_from(sorted(_TABLE_COLUMNS)), min_size=1, max_size=4))
    header = tuple(draw(st.lists(st.text(), min_size=len(kinds), max_size=len(kinds))))
    columns = tuple(draw(_TABLE_COLUMNS[k](n)) for k in kinds)
    return ReportTable(kind=draw(st.text()), header=header, columns=columns, meta=draw(_META))


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(_report_tables())
# string cells that hold brackets and NUL, string cells that hold, with a real newline, the
# text the rows writer replaces between two rows, no rows, one cell, and one column of 513 rows
@example(ReportTable(kind="t", header=("a", "b", "c"), meta={"rows": [["]\0["]]},
                     columns=(_str_column(["]", "]\0[", "x]"]), _str_column(["[", "\0", "[y"]),
                              np.array([1.5, math.nan, -0.0]))))
@example(ReportTable(kind="t", header=("a", "b"), meta={"rows": [["],\n      ["]]},
                     columns=(_str_column(["],\n      [", "x],\n      [", "]\n    ],\n    [\n      "]),
                              _str_column(["],\n      [y", "\n", ","]))))
@example(ReportTable(kind="sweep", header=("P", "gap"), columns=(np.empty(0), np.empty(0)), meta={}))
@example(ReportTable(kind="dof", header=("x",), columns=(np.array([-0.0]),), meta={"version": "0"}))
@example(ReportTable(kind="sweep", header=("P",), columns=(np.arange(513) / 7,), meta={}))
def test_report_table_json_matches_json_dumps(table):
    want = reference_json({"kind": table.kind, "meta": table.meta, "header": table.header,
                           "rows": table_rows(table)})
    assert export_report(table, "json") == want


_CSV_DTYPES = ("?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8")


@st.composite
def _csv_tables(draw):
    """(header, columns): 1 to 4 columns of random dtypes, 0 to 513 rows."""
    n = draw(st.sampled_from([0, 1, 2, 5, 30, 511, 512, 513]))
    dtypes = draw(st.lists(st.sampled_from(_CSV_DTYPES), min_size=1, max_size=4))
    columns = tuple(draw(hnp.arrays(np.dtype(d), n)) for d in dtypes)
    return tuple(f"c{k}" for k in range(len(columns))), columns


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(_csv_tables())
@example((("k", "v"), (np.arange(4097), np.arange(4097) / 3)))
def test_csv_writer_matches_the_per_row_format(table):
    header, columns = table
    assert _csv(header, columns) == reference_csv(header, columns)


def _kernel_values() -> np.ndarray:
    """Over 1e6 seeded doubles below 2**33 for the %.6f kernel: every magnitude, ties, edges."""
    rng = np.random.default_rng(20261018)
    below = math.log10(2.0 ** 33)
    spread = 10.0 ** rng.uniform(-12, below, 600_000) * rng.choice((-1.0, 1.0), 600_000)
    ties = rng.integers(0, 2 ** 40, 150_000) / 128.0  # k/128: p = x * 1e6 is an exact half-integer
    halves = (2 * rng.integers(0, 2 ** 42, 150_000) + 1) / 2e6  # nearest doubles to (2m+1)/2e6
    carries = rng.integers(0, 2 ** 33, 100_000) - 5e-7  # around the carry into the integer part
    powers = 10.0 ** np.arange(-12, 10)
    edges = np.concatenate([powers, powers - 5e-7, powers + 5e-7, [5e-7, 1.5e-6, 2.5e-6, 0.0078125]])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = [0.0, 5e-324, 2.0 ** -1074 * 3, 8589934591.999999, 8589934591.9999995,
               np.nextafter(2.0 ** 33, 0.0), 2.0 ** 33 - 1.0]
    values = np.concatenate([spread, ties, halves, carries, edges, special])
    values = values[np.abs(values) < 2.0 ** 33]
    return np.concatenate([values, -values])


def test_float_kernel_matches_percent_format():
    values = _kernel_values()
    assert len(values) >= 10 ** 6
    for start in range(0, len(values), 8192):
        block = values[start:start + 8192]
        got = _exact_block([block], [False])
        want = "".join(["%.6f\n" % v for v in block.tolist()])
        if got != want:  # name the first cell that differs
            bad = next(v for v, g, w in zip(block.tolist(), got.split("\n"), want.split("\n")) if g != w)
            pytest.fail(f"{bad!r}: kernel {got.split(chr(10))[0]!r}..., % gives {'%.6f' % bad!r}")
    assert _exact_block([np.array([-0.0, -5e-324, -1e-7])], [False]) == "-0.000000\n" * 3


def test_int_kernel_matches_percent_format():
    rng = np.random.default_rng(7)
    ints = np.concatenate([rng.integers(-2 ** 33 + 1, 2 ** 33, 100_000), [0, -1, 1, 999, 1000, -1000,
                                                                             10 ** 6, 2 ** 33 - 1]])
    flags = rng.integers(0, 2, len(ints)).astype(bool)
    floats = rng.standard_normal(len(ints)) * 1e3
    want = "".join("%d,%d,%.6f\n" % row for row in zip(ints.tolist(), flags.tolist(), floats.tolist()))
    assert _exact_block([ints, flags, floats], [True, True, False]) == want


@pytest.mark.parametrize("cell", [math.inf, -math.inf, math.nan, 2.0 ** 33, -2.0 ** 33, 1e300])
def test_out_of_range_cells_take_the_percent_path(cell):
    column = np.array([1.25, cell, -0.5])
    assert _exact_block([column], [False]) is None
    want = "x\n" + "".join("%.6f\n" % v for v in column.tolist())
    assert _csv(("x",), (column,)) == want


def _random_column(rng, dtype: str, n: int) -> np.ndarray:
    """n cells of dtype in the kernel's range, |x| < 2**33."""
    if dtype == "?":
        return rng.random(n) < 0.5
    if dtype[0] in "iu":
        info = np.iinfo(dtype)
        return rng.integers(max(info.min, -2 ** 33 + 1), min(info.max, 2 ** 33 - 1), n, dtype=dtype, endpoint=True)
    with np.errstate(over="ignore"):  # float16 tops out at 65504
        return (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 9.9, n)).astype(dtype)


def test_columns_and_rows_print_alike():
    # column tables of every dtype at block edges, each as the per-row % format prints it;
    # in half the tables a few rows hold a cell past the kernel's range (past 2**33, inf, NaN)
    rng = np.random.default_rng(3)
    specials = {"f": (math.inf, -math.inf, math.nan, -0.0, 2.0 ** 40), "i": (2 ** 62, -2 ** 63 + 1),
                "u": (2 ** 64 - 1, 2 ** 33)}
    for n in (0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 1):
        for trial in range(6):
            dtypes = rng.choice(_CSV_DTYPES, rng.integers(1, 7)).tolist()
            columns = tuple(_random_column(rng, d, n) for d in dtypes)
            for c, d in zip(columns, dtypes):
                if trial % 2 and n and d[0] in specials and (d[0] == "f" or d[1] == "8"):
                    values = specials[d[0]]
                    with np.errstate(over="ignore"):  # 2**40 is inf as float16
                        c[rng.integers(0, n, 3)] = [values[k] for k in rng.integers(0, len(values), 3)]
            header = tuple(f"c{k}" for k in range(len(columns)))
            assert _csv(header, columns) == reference_csv(header, columns), (n, dtypes)


def test_empty_rows_yield_header_only_csv():
    table = ReportTable(kind="sweep", header=("P", "gap"), columns=(np.empty(0), np.empty(0)), meta={})
    assert export_report(table, "csv") == "P,gap\n"
    assert json.loads(export_report(table, "json"))["rows"] == []


def test_meta_echoes_spec():
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, gains=SYM, seed=42)
    table = sweep_snr(spec)
    echo = table.meta["spec"]
    assert echo["seed"] == 42 and echo["points"] == 2
    assert echo["gains"] == {"h1": 1.0, "h2": 1.0, "h3": 1.0}
    assert table.meta["seed"] == 42
    obj = json.loads(export_report(table, "json"))
    assert obj["meta"]["spec"]["p_hi"] == 10.0


def test_bound_column_registry_is_complete():
    assert tuple(BOUND_COLUMNS) == ("out1", "out2", "out3", "outgoing_cutset_sum",
                                    "lemma1", "lemma2", "theorem2_upper",
                                    "tightened_upper", "achievable_lower")

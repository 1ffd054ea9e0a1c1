"""Batch drivers: sweep tables, gap ensembles, crossover search, and the
byte-stable report serialization they share."""

import json
import math

import numpy as np
import pytest

from helpers import csv_cell, load_report_json, table_from_json
from triway.bounds import evaluate, sum_capacity_interval
from triway.experiments import (
    BOUND_COLUMNS,
    CrossoverResult,
    SweepSpec,
    crossover_table,
    export_report,
    find_crossover,
    gap_ensemble,
    gap_statistics_table,
    power_grid,
    sweep_snr,
)
from triway.model import ChannelConfig, ChannelGains, ValidationError, validate

SYM = ChannelGains(1.0, 1.0, 1.0)


def _col(table, name):
    return np.array([row[table.header.index(name)] for row in table.rows])


def _slope(table, name):
    x = 0.5 * np.log2(_col(table, "P"))
    return float(np.polyfit(x, _col(table, name), 1)[0])


def test_sweep_slopes_show_degrees_of_freedom():
    spec = SweepSpec(p_lo=1e2, p_hi=1e8, points=9, gains=SYM)
    table = sweep_snr(spec)
    assert table.kind == "sweep"
    assert table.header == ("P", *BOUND_COLUMNS, "gap")
    assert len(table.rows) == 9
    assert abs(_slope(table, "theorem2_upper") - 2.0) < 0.05
    assert abs(_slope(table, "achievable_lower") - 2.0) < 0.05
    assert abs(_slope(table, "outgoing_cutset_sum") - 3.0) < 0.05


def test_sweep_rows_match_direct_evaluation():
    spec = SweepSpec(p_lo=0.5, p_hi=50.0, points=5, gains=ChannelGains(0.5, 1.0, 1.5))
    table = sweep_snr(spec)
    for row in table.rows:
        cfg = validate(ChannelConfig(gains=spec.gains, power=row[0]))
        assert row[table.header.index("tightened_upper")] == pytest.approx(
            evaluate(cfg).tightened_upper, rel=1e-12)
        assert row[-1] == pytest.approx(sum_capacity_interval(cfg)[2], rel=1e-12)


def test_single_point_grid():
    spec = SweepSpec(p_lo=7.0, p_hi=7.0, points=1, gains=SYM)
    grid = power_grid(spec)
    assert grid.tolist() == [7.0]
    table = sweep_snr(spec)
    assert len(table.rows) == 1 and table.rows[0][0] == 7.0


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


def test_sweep_deterministic_and_export_byte_stable():
    spec = SweepSpec(p_lo=1.0, p_hi=100.0, points=4, gains=SYM)
    t1, t2 = sweep_snr(spec), sweep_snr(spec)
    assert t1 == t2
    text1 = export_report(t1, "json")
    text2 = export_report(t2, "json")
    assert text1 == text2


def test_gap_ensemble_statistics():
    spec = SweepSpec(p_lo=0.1, p_hi=1e4, points=6, ensemble=2000, seed=0)
    stats = gap_ensemble(spec)
    assert stats.ensemble == 2000
    assert stats.violations == 0
    assert 0.0 <= stats.min_gap <= stats.mean_gap <= stats.max_gap <= 2.0
    assert isinstance(stats.worst_config, ChannelConfig)
    assert gap_ensemble(spec) == stats  # trial streams make reruns identical


def test_gap_ensemble_fixed_gains_single_trial():
    spec = SweepSpec(p_lo=9.0, p_hi=9.0, points=1, gains=SYM, ensemble=1, seed=5)
    stats = gap_ensemble(spec)
    cfg = validate(ChannelConfig(gains=SYM, power=9.0))
    gap = sum_capacity_interval(cfg)[2]
    assert stats.min_gap == stats.max_gap == stats.mean_gap == gap
    assert stats.worst_config == cfg


def test_gap_approaches_two_for_symmetric_gains():
    spec = SweepSpec(p_lo=1e8, p_hi=1e8, points=1, gains=SYM, ensemble=1)
    stats = gap_ensemble(spec)
    assert 1.999 <= stats.max_gap <= 2.0


def test_gap_statistics_table_layout():
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, ensemble=50, seed=1)
    stats = gap_ensemble(spec)
    table = gap_statistics_table(stats, spec)
    assert table.kind == "gap-ensemble"
    assert table.header == ("ensemble", "min_gap", "max_gap", "mean_gap", "violations",
                            "worst_g12", "worst_g13", "worst_g23", "worst_power")
    row = table.rows[0]
    assert row[0] == 50.0 and row[4] == 0.0
    cfg = stats.worst_config
    assert row[5:] == (cfg.gains.h3, cfg.gains.h2, cfg.gains.h1, cfg.power)


def test_crossover_symmetric_gains():
    res = find_crossover(SYM, 0.1, 100.0)
    assert res.status == "found"
    assert abs(res.p_star - 1.5) / 1.5 <= 1e-6


def test_crossover_analytic_second_family():
    # h = (0, 1, 1): outgoing sum minus lemma total is cap(P) - 1/2, zero at P = 1
    res = find_crossover(ChannelGains(0.0, 1.0, 1.0), 0.5, 50.0)
    assert res.status == "found"
    assert abs(res.p_star - 1.0) <= 1e-6


def test_crossover_bracket_edges():
    assert find_crossover(SYM, 2.0, 10.0) == CrossoverResult(p_star=2.0, status="already-crossed")
    assert find_crossover(SYM, 1e-4, 1e-3) == CrossoverResult(p_star=None, status="none")


def test_crossover_margin_brackets_the_root():
    res = find_crossover(SYM, 0.1, 100.0)

    def margin(P):
        cfg = validate(ChannelConfig(gains=SYM, power=P))
        b = evaluate(cfg)
        return b.outgoing_cutset_sum - b.tightened_upper

    assert margin(res.p_star) > 0.0
    assert margin(res.p_star * (1.0 - 1e-5)) < 0.0


def test_crossover_bracket_validation():
    for lo, hi in ((0.0, 10.0), (5.0, 5.0), (10.0, 2.0), (1.0, math.inf), (-1.0, 2.0)):
        with pytest.raises(ValidationError, match="bracket"):
            find_crossover(SYM, lo, hi)


def test_crossover_table_encodes_status():
    res = find_crossover(SYM, 0.1, 100.0)
    table = crossover_table(res, SYM, 0.1, 100.0)
    assert table.header == ("p_star", "status_code", "g12", "g13", "g23", "p_lo", "p_hi")
    assert table.rows[0][1] == 0.0 and table.meta["status"] == "found"
    none_res = CrossoverResult(p_star=None, status="none")
    none_table = crossover_table(none_res, SYM, 1.0, 2.0)
    assert math.isnan(none_table.rows[0][0]) and none_table.rows[0][1] == 2.0


def test_csv_has_six_decimal_cells():
    spec = SweepSpec(p_lo=1.0, p_hi=100.0, points=3, gains=SYM)
    table = sweep_snr(spec)
    lines = export_report(table, "csv").strip().split("\n")
    assert lines[0] == ",".join(("P", *BOUND_COLUMNS, "gap"))
    for line, row in zip(lines[1:], table.rows):
        assert line == ",".join(f"{v:.6f}" for v in row)


def test_json_roundtrip_is_exact():
    spec = SweepSpec(p_lo=0.3, p_hi=77.0, points=4, gains=ChannelGains(0.5, 1.0, 1.5))
    table = sweep_snr(spec)
    back = table_from_json(export_report(table, "json"))
    assert back == table  # repr-level float fidelity survives JSON


def test_export_and_load_files(tmp_path):
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, gains=SYM)
    table = sweep_snr(spec)
    path = tmp_path / "report.json"
    path.write_text(export_report(table, "json"))
    assert load_report_json(path) == table
    csv_text = export_report(table, "csv")
    assert csv_text == export_report((table.header, table.rows), "csv")


def test_export_error_paths(tmp_path):
    spec = SweepSpec(p_lo=1.0, p_hi=10.0, points=2, gains=SYM)
    table = sweep_snr(spec)
    with pytest.raises(ValidationError, match="format"):
        export_report(table, "xml")
    with pytest.raises(OSError, match="cannot read report from"):
        load_report_json(tmp_path / "absent.json")


def test_csv_rows_match_the_per_cell_rule():
    cells = (True, False, 0, -7, 2 ** 70, np.int64(-3), 1.5, np.float64(2.0 / 3.0), -0.0,
             math.inf, -math.inf, math.nan, 1e300, -1e-300, np.float64(-0.0))
    rows = [cells, cells[::-1], (1, 1.0), (1.0, 1), (np.int64(1), True), [False, 1e300], (), cells]
    header = tuple(f"c{k}" for k in range(len(cells)))
    want = "\n".join([",".join(header), *(",".join(map(csv_cell, row)) for row in rows)]) + "\n"
    assert export_report((header, rows), "csv") == want
    assert export_report((header, iter(rows)), "csv") == want  # rows may be a one-pass iterator


def test_empty_rows_yield_header_only_csv():
    from triway.experiments import ReportTable
    table = ReportTable(kind="sweep", header=("P", "gap"), rows=(), meta={})
    assert export_report(table, "csv") == "P,gap\n"


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

"""Tiny-size self-test of the benchmark harness: python -m pytest bench/test_bench.py

One tiny operation per workload runs with every check on, untraced and
traced; the checks must also reject outputs that were tampered with, and the
O(n) power recursion must agree with triway's O(n^2) expansion.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run

cli = run._import_triway()

import oracle  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from triway import model, sim  # noqa: E402

SEED = 7


def _run(name: str, traced: bool = False):
    lp_checks: list = []
    workload = workloads.workloads(lp_checks)[name]
    ops = workload.operations(SEED, 1, size="tiny")
    tr = None
    if traced:
        tr = tracer.Tracer()
        tr.install()
    try:
        harness = run.Harness(cli, reference.Reference(workload.reference), tr)
        rec = harness.run(ops)
    finally:
        if tr:
            tr.uninstall()
    workloads.check_lps(lp_checks)
    return harness, rec, ops


@pytest.mark.parametrize("name,calls,faults", [
    ("genie-block", 3, 0), ("gap-ensemble", 1, 0), ("report-mix", 10, 1)])
def test_one_tiny_op_passes_every_check(name, calls, faults):
    harness, rec, _ = _run(name)
    assert harness.errors == [] and harness.correct
    assert (rec["attempted"], rec["failed"]) == (calls, faults)
    assert all(t > 0 for t in rec["norm_ms"])


def test_traced_run_reports_every_layer_and_restores_triway():
    original = sim.normalize_power
    _, rec, ops = _run("genie-block", traced=True)
    assert sim.normalize_power is original and np.random.default_rng is oracle._rng
    metrics = run._layer_metrics(rec, {"sim.normalize_power": 2e6}, 1.1)
    assert [m[0] for m in run.PER_LAYER] == list(metrics)
    assert metrics["cli.main.calls"]["value"] == 3
    assert metrics["sim.normalize_power.ms"]["value"] > 0
    assert metrics["sim.normalize_power.peak_mb"]["value"] == 2.0
    assert metrics["bounds.cap.calls"]["value"] == 0  # idle layer on this workload
    _, rec, ops = _run("gap-ensemble", traced=True)
    ensemble = workloads.SIZES["tiny"]["ensemble"]
    layer = rec["layers"][0]
    assert layer["rng.default_rng"][0] == ensemble  # the module-held numpy reference is wrapped
    assert layer["bounds.sum_capacity_interval"][0] == ensemble
    _, rec, _ = _run("report-mix", traced=True)
    layer = rec["layers"][0]
    assert layer["region.max_weighted_sum"][0] == 1
    assert layer["experiments.export_report"][3] > 0  # returned bytes


def _output(name: str, index: int) -> tuple[workloads.Call, str]:
    ops = workloads.workloads([])[name].operations(SEED, 1, size="tiny")
    call = ops[0].calls[index]
    rc, text, _ = run.Harness(cli, None).call(call.argv)
    assert rc == 0
    return call, text


def _tamper_json(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("name,index,tamper", [
    ("genie-block", 0, lambda t: _tamper_json(t, lambda o: o.update(max_rel_error=2e-9))),
    ("genie-block", 2, lambda t: t.replace("\n1,", "\n1,1", 1)),  # x1(1) changes
    ("gap-ensemble", 0, lambda t: _tamper_json(t, lambda o: o["rows"][0].__setitem__(3, o["rows"][0][3] + 1e-9))),
    ("report-mix", 0, lambda t: _tamper_json(t, lambda o: o.update(lemma1=o["lemma1"] + 1e-9))),
    ("report-mix", 3, lambda t: t.rstrip("\n")[:-1] + "9\n"),  # last gap cell
    ("report-mix", 5, lambda t: _tamper_json(t, lambda o: o["rows"][0].__setitem__(0, 2.2))),
    ("report-mix", 8, lambda t: _tamper_json(t, lambda o: o.update(estimate=o["estimate"] * 1.01))),
])
def test_checks_reject_tampered_output(name, index, tamper):
    call, text = _output(name, index)
    call.check(text)
    with pytest.raises(oracle.CheckError):
        call.check(tamper(text))


def test_lp_check_rejects_a_wrong_value():
    lp_checks: list = []
    call = workloads.workloads(lp_checks)["report-mix"].operations(SEED, 1, size="tiny")[0].calls[2]
    _, text, _ = run.Harness(cli, None).call(call.argv)
    call.check(text)
    workloads.check_lps(lp_checks)
    lp_checks[0] = (lp_checks[0][0], lp_checks[0][1] + 1e-6)
    with pytest.raises(oracle.CheckError):
        workloads.check_lps(lp_checks)


def test_faulty_crossover_is_the_known_fault():
    call, text = _output("report-mix", 9)
    with pytest.raises(workloads.KnownFault):
        call.check(text)


def test_lyapunov_power_matches_the_coefficient_expansion():
    cfg, _ = model.make_config(1.5, -1.0, 0.5, 10.0)
    h = (cfg.gains.h1, cfg.gains.h2, cfg.gains.h3)
    encs = oracle.encoders(*h, seed=3)
    A, C = oracle.block_power(h, encs, 60)
    unit = sim.random_encoders(cfg, n_taps=2, seed=3)
    np.testing.assert_allclose(A + C, sim.expected_block_power(unit, cfg, 60), rtol=1e-12)
    scale, power = oracle.message_scale(h, encs, 60, cfg.power)
    scaled = sim.normalize_power(unit, cfg, 60)
    assert scaled[0].message_scale == pytest.approx(scale, rel=1e-12)
    np.testing.assert_allclose(power, sim.expected_block_power(scaled, cfg, 60), rtol=1e-12)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

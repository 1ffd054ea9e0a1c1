"""Command-line behavior: exit codes, output formats, config resolution,
seeding, and parity with the library calls each subcommand wraps."""

import json
import math
import subprocess
import sys

import pytest

from triway.bounds import REPORT_CSV_HEADER, bound_report
from triway.cli import build_parser, main
from triway.experiments import export_report
from triway.model import make_config
from triway.sim import TRACE_CSV_HEADER


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_json(capsys):
    code, out, err = _run(capsys, "bounds", "--g12", "3", "--g13", "2", "--g23", "1",
                          "--power", "1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["config"] == {"g12": 3.0, "g13": 2.0, "g23": 1.0, "power": 1.0}
    assert obj["permutation"] == [1, 2, 3]
    assert 0.0 <= obj["gap"] <= 2.0
    assert set(obj["cutset"]) == {"out1", "in1", "out2", "in2", "out3", "in3"}


def test_bounds_relabels_noncanonical_input(capsys):
    code, out, _ = _run(capsys, "bounds", "--g12", "1", "--g13", "2", "--g23", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["g12"] == 3.0  # strongest link first after relabeling
    assert obj["permutation"] != [1, 2, 3]


def test_bounds_csv_matches_library(capsys):
    args = ("--g12", "1.5", "--g13", "1.0", "--g23", "0.5", "--power", "2.0")
    code, out, _ = _run(capsys, "bounds", *args, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 2
    cfg, _ = make_config(1.5, 1.0, 0.5, 2.0)
    assert out == export_report(bound_report(cfg).as_table(), "csv")


def test_bounds_rejects_bad_power(capsys):
    code, out, err = _run(capsys, "bounds", "--power", "0")
    assert code == 1 and out == ""
    assert "power must be positive" in err


def test_usage_errors_exit_one(capsys):
    assert _run(capsys, "bounds", "--nope")[0] == 1
    assert _run(capsys, "no-such-command")[0] == 1
    assert _run(capsys)[0] == 1
    assert _run(capsys, "genie")[0] == 1  # --variant is required
    assert _run(capsys, "genie", "--variant", "lemma3")[0] == 1


def test_version_flag(capsys):
    code, out, _ = _run(capsys, "--version")
    assert code == 0
    assert out.startswith("triway ")


def test_genie_verdict(capsys):
    code, out, err = _run(capsys, "genie", "--variant", "lemma1", "--n", "100",
                          "--seed", "7")
    assert code == 0 and err == ""
    verdict = json.loads(out)
    assert set(verdict) == {"max_rel_error", "n", "seed", "variant"}
    assert verdict["n"] == 100 and verdict["seed"] == 7 and verdict["variant"] == "lemma1"
    assert verdict["max_rel_error"] < 1e-9


def test_genie_runs_are_reproducible(capsys):
    a = _run(capsys, "genie", "--variant", "lemma2", "--seed", "3")
    b = _run(capsys, "genie", "--variant", "lemma2", "--seed", "3")
    assert a == b and a[0] == 0


def test_seed_environment_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TRIWAY_SEED", "7")
    _, env_out, _ = _run(capsys, "genie", "--variant", "lemma1")
    monkeypatch.delenv("TRIWAY_SEED")
    _, flag_out, _ = _run(capsys, "genie", "--variant", "lemma1", "--seed", "7")
    assert env_out == flag_out

    monkeypatch.setenv("TRIWAY_SEED", "7")
    _, override_out, _ = _run(capsys, "genie", "--variant", "lemma1", "--seed", "9")
    monkeypatch.delenv("TRIWAY_SEED")
    _, nine_out, _ = _run(capsys, "genie", "--variant", "lemma1", "--seed", "9")
    assert override_out == nine_out != env_out

    monkeypatch.setenv("TRIWAY_SEED", "not-a-number")
    code, _, err = _run(capsys, "genie", "--variant", "lemma1")
    assert code == 1 and "TRIWAY_SEED" in err


def test_config_file_and_inline_override(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g12": 2.0, "g13": 1.0, "g23": 0.5, "power": 4.0}))
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["config"] == {"g12": 2.0, "g13": 1.0, "g23": 0.5, "power": 4.0}

    code, out, err = _run(capsys, "bounds", "--config", str(path), "--power", "9")
    assert code == 0
    assert "overrides" in err
    assert json.loads(out)["config"]["power"] == 9.0


def test_config_file_errors(capsys, tmp_path):
    code, _, err = _run(capsys, "bounds", "--config", str(tmp_path / "absent.json"))
    assert code == 1 and "cannot read config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "bounds", "--config", str(bad))
    assert code == 1 and "not valid JSON" in err
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _, err = _run(capsys, "bounds", "--config", str(arr))
    assert code == 1 and "JSON object" in err


@pytest.mark.parametrize("entry", [{"g12": "x"}, {"power": "2"}, {"power": True}])
def test_config_file_rejects_non_numbers(capsys, tmp_path, entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entry))
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    key = next(iter(entry))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and f"{key} must be a number" in err


def test_out_file_equals_stdout(capsys, tmp_path):
    _, stdout_text, _ = _run(capsys, "bounds", "--format", "csv")
    path = tmp_path / "report.csv"
    code, out, _ = _run(capsys, "bounds", "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == stdout_text

    code, _, err = _run(capsys, "bounds", "--out", str(tmp_path / "no-dir" / "x.json"))
    assert code == 1 and "cannot write to" in err


def test_simulate_trace(capsys):
    code, out, _ = _run(capsys, "simulate", "--n", "10", "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == TRACE_CSV_HEADER
    assert len(lines) == 11
    assert lines[1].split(",")[0] == "1"

    code, _, err = _run(capsys, "simulate", "--n", "10", "--format", "json")
    assert code == 1 and "CSV only" in err


def _one_line_error(code, out, err, text):
    assert code == 1 and out == ""
    assert err == f"error: {text}\n"


def test_genie_rejects_csv(capsys):
    _one_line_error(*_run(capsys, "genie", "--variant", "lemma1", "--n", "20", "--format", "csv"),
                    "genie output is JSON only")


def test_simulate_relay_rejects_csv(capsys):
    _one_line_error(*_run(capsys, "simulate", "--pam-order", "4", "--n", "20", "--format", "csv"),
                    "simulate --pam-order output is JSON only")


def test_simulate_mi_rejects_csv(capsys):
    _one_line_error(*_run(capsys, "simulate", "--samples", "10000", "--format", "csv"),
                    "simulate --samples output is JSON only")


def test_back_to_back_calls_share_no_state(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.delenv("TRIWAY_SEED", raising=False)
    _, seed0, _ = _run(capsys, "simulate", "--n", "5", "--seed", "0")
    _, seed3, _ = _run(capsys, "simulate", "--n", "5", "--seed", "3")
    assert seed0 != seed3
    assert _run(capsys, "simulate", "--n", "5") == (0, seed0, "")  # not the previous --seed 3
    monkeypatch.setenv("TRIWAY_SEED", "3")
    _run(capsys, "simulate", "--n", "5", "--seed", "0")
    assert _run(capsys, "simulate", "--n", "5") == (0, seed3, "")  # TRIWAY_SEED, not --seed 0

    code, csv_text, _ = _run(capsys, "bounds", "--format", "csv")
    assert code == 0 and csv_text.startswith(REPORT_CSV_HEADER)
    code, json_text, _ = _run(capsys, "bounds")
    assert code == 0 and json.loads(json_text)["permutation"] == [1, 2, 3]

    for argv in (["bounds", "--no-such-flag"], ["genie"], ["simulate", "--n", "x"]):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == "" and "usage:" in err
        assert _run(capsys, "bounds") == (0, json_text, "")


def test_simulate_relay_and_mi_modes(capsys):
    code, out, _ = _run(capsys, "simulate", "--pam-order", "4", "--n", "500",
                        "--seed", "2", "--power", "50")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"pam_order", "n", "seed", "ser", "throughput"}
    assert obj["pam_order"] == 4 and 0.0 <= obj["ser"] <= 1.0

    code, _, err = _run(capsys, "simulate", "--pam-order", "3", "--n", "10")
    assert code == 1 and "pam_order" in err

    code, out, _ = _run(capsys, "simulate", "--samples", "10000", "--seed", "0")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"link", "samples", "seed", "estimate"}
    assert obj["link"] == "h3" and obj["estimate"] > 0.0

    code, _, err = _run(capsys, "simulate", "--samples", "10")
    assert code == 1 and "sample_count" in err

    code, _, err = _run(capsys, "simulate", "--samples", "10000", "--pam-order", "4")
    assert code == 1 and "mutually exclusive" in err


def test_sweep_csv_row_count(capsys):
    code, out, _ = _run(capsys, "sweep", "--points", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("P,") and lines[0].endswith(",gap")

    code, out, _ = _run(capsys, "sweep", "--points", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


def test_gap_ensemble_exit_zero(capsys):
    code, out, _ = _run(capsys, "gap-ensemble", "--ensemble", "50", "--seed", "0")
    assert code == 0
    obj = json.loads(out)
    row = dict(zip(obj["header"], obj["rows"][0]))
    assert row["violations"] == 0.0
    assert 0.0 <= row["min_gap"] <= row["max_gap"] <= 2.0


def test_crossover_symmetric(capsys):
    code, out, _ = _run(capsys, "crossover", "--g12", "1", "--g13", "1", "--g23", "1")
    assert code == 0
    obj = json.loads(out)
    row = dict(zip(obj["header"], obj["rows"][0]))
    assert obj["meta"]["status"] == "found"
    assert abs(row["p_star"] - 1.5) / 1.5 <= 1e-6


def test_region_json_only(capsys):
    code, out, _ = _run(capsys, "region", "--g12", "1", "--g13", "1", "--g23", "1")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["region"]["constraints"]) == 8
    assert obj["sum_rate_lp"]["status"] == "optimal"
    assert obj["permutation"] == [1, 2, 3]

    code, _, err = _run(capsys, "region", "--format", "csv")
    assert code == 1 and "JSON only" in err


def test_dof_slopes(capsys):
    code, out, _ = _run(capsys, "dof", "--g12", "1", "--g13", "1", "--g23", "1")
    assert code == 0
    obj = json.loads(out)
    slopes = dict(zip(obj["header"], obj["rows"][0]))
    assert slopes["theorem2_upper"] == pytest.approx(2.0, abs=0.05)
    assert slopes["achievable_lower"] == pytest.approx(2.0, abs=0.05)
    assert slopes["outgoing_cutset_sum"] == pytest.approx(3.0, abs=0.05)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "triway.cli", "bounds"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["g12"] == 1.5


def test_config_file_canonicalizes_on_load(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"g12": 1, "g13": 2, "g23": 3, "power": 2}')
    code, out, err = _run(capsys, "bounds", "--config", str(path))
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["config"] == {"g12": 3.0, "g13": 2.0, "g23": 1.0, "power": 2.0}
    assert obj["permutation"] == [3, 2, 1]


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _mp_bounds(h1, h2, h3, P):
    """Every closed form of the bounds report at 50 digits, from the float inputs."""
    import mpmath as mp

    with mp.workdps(50):
        s1, s2, s3, P = (mp.mpf(h1) ** 2, mp.mpf(h2) ** 2, mp.mpf(h3) ** 2, mp.mpf(P))

        def C(x):
            return mp.log(1 + x, 2) / 2

        ratio = s1 / s2 if s2 else mp.mpf(0)
        cut = {"out1": C((s3 + s2) * P), "out2": C((s3 + s1) * P), "out3": C((s2 + s1) * P)}
        lemma1 = cut["out1"] + C(ratio)
        lemma2 = C(s3 * P * (1 + ratio)) + mp.mpf(1) / 2
        lower = 2 * C(s3 * P)
        vals = {**cut, "outgoing_cutset_sum": sum(cut.values()), "lemma1": lemma1,
                "lemma2": lemma2, "theorem2_upper": lower + 2, "tightened_upper": lemma1 + lemma2,
                "achievable_lower": lower, "gap": min(2, lemma1 + lemma2 - lower),
                "relay_lattice_rate": C(max(0, s2 * P - mp.mpf(1) / 2)),
                "relay_direct_rate": C(s1 * P)}
        return {k: float(v) for k, v in vals.items()}


def test_bounds_stay_finite_where_h2p_overflows(capsys):
    # h3^2 P = 1e320 overflows a double; every field must still be finite and exact
    code, out, err = _run(capsys, "bounds", "--g12", "1e10", "--power", "1e300")
    assert code == 0 and err == ""
    obj = _strict_json(out)
    want = _mp_bounds(0.5, 1.0, 1e10, 1e300)
    got = {**obj["cutset"], **{k: v for k, v in obj.items() if k in want}}
    for key, value in want.items():
        if key in got:
            assert got[key] == pytest.approx(value, rel=1e-12), key
    assert obj["cutset"]["in1"] == obj["cutset"]["out1"]
    assert obj["gap"] < 2.0


def test_sweep_stays_finite_where_h2p_overflows(capsys):
    code, out, _ = _run(capsys, "sweep", "--g12", "1e10", "--p-hi", "1e300")
    assert code == 0
    header, *rows = out.strip().split("\n")
    cells = [[float(c) for c in row.split(",")] for row in rows]
    assert all(math.isfinite(v) for row in cells for v in row)
    code, out, _ = _run(capsys, "sweep", "--g12", "1e10", "--p-hi", "1e300", "--format", "json")
    obj = _strict_json(out)
    for row in obj["rows"]:
        want = _mp_bounds(0.5, 1.0, 1e10, row[0])
        for key, value in zip(obj["header"][1:], row[1:]):
            assert value == pytest.approx(want[key], rel=1e-12), (row[0], key)


@pytest.mark.parametrize("gains", [("--g12", "1e200"), ("--g12", "1.2e154", "--g13", "1.2e154")])
def test_overflowing_squared_gains_exit_one(capsys, gains):
    code, out, err = _run(capsys, "bounds", *gains)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "overflow" in err

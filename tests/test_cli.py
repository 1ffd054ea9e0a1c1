"""Command-line behavior: exit codes, output formats, config resolution,
seeding, and parity with the library calls each subcommand wraps."""

import argparse
import collections
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triway import bounds, experiments, sim
from triway.bounds import REPORT_CSV_HEADER, evaluate
from triway.cli import build_parser, main
from triway.experiments import export_report
from triway.model import canonicalize, make_config
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
    assert out == export_report(evaluate(cfg).as_table(), "csv")


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


def test_lemma2_is_exact_at_a_tiny_cross_gain_ratio(capsys):
    # h2/h3 = 1e-160: an enhanced reception of y3 + (h2/h3 - 1) z3 cancels y3 almost
    # entirely, and scaling by h3/h2 magnified the rounding (error 0.878, exit 2)
    code, out, err = _run(capsys, "genie", "--variant", "lemma2", "--g12", "1",
                          "--g13", "1e-160", "--g23", "0", "--n", "10")
    assert code == 0 and err == ""
    assert json.loads(out)["max_rel_error"] < 1e-9


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


_SEEDED = (("genie", "--variant", "lemma1"), ("simulate",), ("gap-ensemble",))


@pytest.mark.parametrize("argv,env", [
    *(((*cmd, "--seed", "-1"), None) for cmd in _SEEDED),
    *((cmd, "-1") for cmd in _SEEDED),
    *(((cmd, "--p-lo", "1", "--p-hi", "inf"), None) for cmd in ("sweep", "dof", "gap-ensemble")),
    *(((cmd, "--p-lo", "1", "--p-hi", "1.7976931348623157e308", "--points", "3"), None)
      for cmd in ("sweep", "dof", "gap-ensemble")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else
   ("TRIWAY_SEED unset" if v is None else f"TRIWAY_SEED={v}"))
def test_bad_seed_or_power_bound_is_one_error_line(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("TRIWAY_SEED", raising=False)
    else:
        monkeypatch.setenv("TRIWAY_SEED", env)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err and caught == []


@pytest.mark.parametrize("argv", [
    ("gap-ensemble", "--ensemble", "3", "--points", str(10 ** 309)),
    ("sweep", "--points", str(10 ** 309)),
    ("dof", "--points", str(10 ** 309)),
    ("gap-ensemble", "--ensemble", "3", "--points", str(sys.maxsize + 1)),
], ids=("gap-ensemble 1e309", "sweep 1e309", "dof 1e309", "gap-ensemble sys.maxsize+1"))
def test_points_past_the_index_range_is_one_error_line(capsys, argv):
    # rejected before the float step and the exponent array, which fail on 1e309 points
    _one_line_error(*_run(capsys, *argv), f"points must be <= {sys.maxsize}")


_TOO_LONG = 3 * 10 ** 18  # above sys.maxsize // 8: numpy fails on the byte size
_SIZES_BEYOND_MEMORY = [
    (("sweep", "--points", str(10 ** 18)), None),  # 8e18 bytes: the allocation fails at once
    (("dof", "--points", str(10 ** 18)), None),
    *((("sweep", "--points", str(points)), f"a grid of {points} points is too large to hold in memory")
      for points in (2 * 10 ** 18, sys.maxsize)),
    *((("dof", "--points", str(points)), f"a DoF fit takes at most 100000 points, got {points}")
      for points in (2 * 10 ** 18, sys.maxsize)),
    (("simulate", "--samples", str(10 ** 18)), None),
    (("simulate", "--samples", str(_TOO_LONG)), f"sample_count must be <= {sys.maxsize // 8}, got {_TOO_LONG}"),
    (("simulate", "--pam-order", "2", "--n", str(10 ** 18)), None),
    (("simulate", "--pam-order", "2", "--n", str(_TOO_LONG)),
     f"block length must be <= {sys.maxsize // 8}, got {_TOO_LONG}"),
    # the block's noise is drawn before the power pass, so its first allocation fails at once
    (("simulate", "--n", str(10 ** 18)), None),
    (("genie", "--variant", "lemma1", "--n", str(10 ** 18)), None),
]


@pytest.mark.parametrize("argv,text", _SIZES_BEYOND_MEMORY, ids=[" ".join(a) for a, _ in _SIZES_BEYOND_MEMORY])
def test_sizes_beyond_memory_are_one_error_line(capsys, argv, text):
    # the bounded ones would fail in numpy on the byte size (or, at sys.maxsize, index an empty array)
    code, out, err = _run(capsys, *argv)
    if text is None:
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        _one_line_error(code, out, err, text)


def test_a_block_beyond_the_address_space_fails_at_its_first_allocation():
    # one child under a 1 GiB address-space limit; its first noise array takes 1.6 GB.  Drawn
    # after the power pass, the block would fail only after that pass's 2e8 steps (minutes)
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
             "from triway.cli import main; sys.exit(main(sys.argv[1:]))")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child, "genie", "--variant", "lemma1", "--n", str(2 * 10 ** 8)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert elapsed < 10.0


def test_dof_points_are_bounded(capsys):
    # np.polyfit holds the whole half-grid, so the fit takes at most 10**5 points
    _one_line_error(*_run(capsys, "dof", "--points", "100001"),
                    "a DoF fit takes at most 100000 points, got 100001")


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError  # Python's own allocation failures carry no message
    monkeypatch.setattr(experiments, "sweep_snr", exhausted)
    _one_line_error(*_run(capsys, "sweep"), "out of memory")


def test_gap_ensemble_keeps_a_huge_grid_within_the_index_range(capsys):
    code, out, err = _run(capsys, "gap-ensemble", "--ensemble", "10", "--points", str(10 ** 18))
    assert code == 0 and err == ""
    assert _strict_json(out)["meta"]["spec"]["points"] == 10 ** 18


@pytest.mark.parametrize("argv,text", [
    (("genie", "--variant", "lemma1", "--power", "1e308"), "simulated trace over n=100 at message scale s=inf"),
    (("genie", "--variant", "lemma2", "--g12", "3", "--g13", "5e-324", "--g23", "0"),
     "reconstruction is not finite"),
    (("simulate", "--samples", "10000", "--power", "1e300"), "second moments"),
    (("simulate", "--samples", "10000", "--g13", "2e150", "--seed", "18446744073709551616"),
     "correlation rounds to 1"),
    (("simulate", "--pam-order", "4", "--power", "1e308"), "relay decision statistic"),
    (("simulate", "--pam-order", "16", "--g23", "5e96", "--power", "5e-324"),
     "relay decision statistic"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_simulations_beyond_the_float_range_are_one_error_line(capsys, argv, text):
    # each printed NaN, a warning or a traceback before it was rejected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    assert code == 1 and out == "" and caught == []
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err


def test_gains_whose_squares_underflow_are_ordered_by_magnitude(capsys):
    # h1^2 = h2^2 = 0 once took h1 = -7.9e-298 as no stronger than h2 = 1e-300;
    # the lemma-1 rebuild then grew its rounding error 19-fold per step
    gains, _ = canonicalize(1e-300, -7.907657956972064e-298, 3.3)
    assert (gains.h1, gains.h2) == (1e-300, -7.907657956972064e-298)
    code, out, _ = _run(capsys, "genie", "--variant", "lemma1", "--g12=1e-300",
                        "--g13=-7.907657956972064e-298", "--g23=3.337977729809217",
                        "--n", "24", "--seed", "18446744073709551616")
    assert code == 0 and json.loads(out)["max_rel_error"] < 1e-12


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
    typo = tmp_path / "typo.json"  # a misspelt key once left the default power in place, exit 0
    typo.write_text('{"g12": 2, "pwr": 50}')
    _one_line_error(*_run(capsys, "bounds", "--config", str(typo)),
                    f"config {typo}: unknown key 'pwr' (expected g12, g13, g23, power)")
    twice = tmp_path / "twice.json"  # json keeps the last value: this printed power 50, exit 0
    twice.write_text('{"power": 2, "power": 50}')
    _one_line_error(*_run(capsys, "bounds", "--config", str(twice)), f"config {twice}: repeated key 'power'")
    # an integer literal past the float range reads as ±inf, which the model refuses as
    # --power 1e400 is refused; bad UTF-8 makes the parser raise a ValueError that is no
    # JSONDecodeError
    for k, (text, message) in enumerate(((b'{"power": 1' + b"0" * 400 + b"}", "power inf is not finite"),
                                         (b'{"power": 1' + b"0" * 5000 + b"}", "power inf is not finite"),
                                         (b'{"g12": -1' + b"0" * 5000 + b"}", "channel gain -inf is not finite"),
                                         (b'{"power": 1\xff}', "not valid JSON"))):
        path = tmp_path / f"value{k}.json"
        path.write_bytes(text)
        code, out, err = _run(capsys, "bounds", "--config", str(path))
        assert code == 1 and out == "" and message in err and "sys." not in err
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 300
    # int() would refuse this many digits; float() reads them in about 0.05 s
    huge = tmp_path / "huge.json"
    huge.write_bytes(b'{"power": 1' + b"0" * 10 ** 7 + b"}")
    start = time.perf_counter()
    result = _run(capsys, "bounds", "--config", str(huge))
    assert time.perf_counter() - start < 1.0
    _one_line_error(*result, "power inf is not finite")
    # the literal -0 is float("-0") = -0.0, as on the command line (the echo relabels it to g23)
    zero = tmp_path / "zero.json"
    zero.write_text('{"g12": -0}')
    code, out, err = _run(capsys, "bounds", "--config", str(zero))
    assert (code, out, err) == _run(capsys, "bounds", "--g12=-0") and '"g23": -0.0' in out


@pytest.mark.parametrize("entry", [{"g12": "x"}, {"power": "2"}, {"power": True}, {"g13": None},
                                   {"g23": [1]}])
def test_config_file_rejects_non_numbers(capsys, tmp_path, entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entry))
    (key, value), = entry.items()
    if value == [1]:  # an integer literal is read as a float, inside a list too
        value = [1.0]
    _one_line_error(*_run(capsys, "bounds", "--config", str(path)),
                    f"config {path}: {key} must be a number, got {value!r}")


# signed exponent forms, a trailing point, signed zero, the float range's edges past and
# within, an integer literal int() refuses, one float() rounds, and the named non-finite values
_NUMBER_TEXTS = ("-0", "0", "-1", "-1e-3", "-2E5", "-.5e3", "-5.", "1e400", "-1e400", "1" + "0" * 400,
                 "-1" + "0" * 5000, str(2 ** 53 + 1), "1e-400", "5e-324", "-5e-324", "-inf", "-nan",
                 "-Infinity")


def _json_number(text):
    try:
        return json.loads(text, parse_int=str, parse_float=str, parse_constant=str) == text
    except ValueError:
        return False


@pytest.mark.parametrize("text", _NUMBER_TEXTS,
                         ids=[t if len(t) < 20 else f"{len(t) - t.startswith('-')}-digits" for t in _NUMBER_TEXTS])
def test_a_number_reads_the_same_however_it_is_passed(capsys, tmp_path, text):
    path = tmp_path / "cfg.json"
    for command, key in (("bounds", "g12"), ("bounds", "g23"), ("bounds", "power"), ("sweep", "p-lo")):
        inline = _run(capsys, command, f"--{key}={text}")
        assert inline[0] in (0, 1) and inline[2].count("\n") == (inline[0] == 1)
        assert _run(capsys, command, f"--{key}", text) == inline, key
        if command == "bounds" and _json_number(text):
            path.write_text(f'{{"{key}": {text}}}')
            assert _run(capsys, command, "--config", str(path)) == inline, key


# each size flag, in a command whose report the size shapes
_SIZE_CASES = ((("sweep",), "--points", "1000"), (("dof",), "--points", "12"),
               (("gap-ensemble", "--points", "3"), "--ensemble", "500"), (("simulate",), "--n", "20"),
               (("genie", "--variant", "lemma2"), "--n", "50"), (("simulate",), "--samples", "10000"))


def _exponent_form(size: int) -> str:
    """The integer `size` as a mantissa with no trailing zeros and an exponent: 1000 is "1e3"."""
    digits = str(abs(size))
    mantissa = digits.rstrip("0") or "0"
    return f"{'-' * (size < 0)}{mantissa}e{len(digits) - len(mantissa)}"


@pytest.mark.parametrize("command,flag,size", _SIZE_CASES, ids=[f"{c[0]} {f} {s}" for c, f, s in _SIZE_CASES])
def test_a_size_reads_the_same_in_exponent_form(capsys, command, flag, size):
    want = _run(capsys, *command, flag, size)
    assert want[0] == 0 and want[2] == ""
    for text in (_exponent_form(int(size)), f"{size}.0", f"{int(size) / 10:g}E1", f"{size}e+0"):
        assert _run(capsys, *command, flag, text) == want, text
        assert _run(capsys, *command, f"{flag}={text}") == want, text


@pytest.mark.parametrize("command,flag", [("sweep", "--points"), ("simulate", "--n"),
                                          ("gap-ensemble", "--ensemble"), ("simulate", "--samples")])
def test_a_size_that_is_not_an_integer_is_refused(capsys, command, flag):
    for text in ("1.5", "2.5e-1", "inf", "-inf", "nan", "1e400", "1e", "0x10"):
        code, out, err = _run(capsys, command, f"{flag}={text}")
        assert code == 1 and out == ""
        assert err.startswith("usage: ") and err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")


def test_seed_and_pam_order_stay_integers(capsys):
    for argv in (("simulate", "--pam-order", "4e0"), ("simulate", "--seed", "1e0")):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == "" and f"invalid int value: '{argv[-1]}'" in err


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


_ONE_BLOCK = [
    (("simulate", "--n", "30"), 1),
    (("genie", "--variant", "lemma1", "--n", "30"), 1),
    (("genie", "--variant", "lemma2", "--n", "30"), 1),
    # the unit-scale pass overflows, so normalize_power reruns it once with smaller messages
    (("simulate", "--g12", "1e154", "--n", "30"), 2),
]


@pytest.mark.parametrize("argv,power_passes", _ONE_BLOCK, ids=[" ".join(a) for a, _ in _ONE_BLOCK])
def test_a_simulated_block_takes_one_path(capsys, monkeypatch, argv, power_passes):
    # one simulation and one normalization per CLI call, with one power pass unless it overflows
    calls = collections.Counter()
    for name in ("simulate_network", "normalize_power", "_power_sums"):
        def counted(*args, _call=getattr(sim, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(sim, name, counted)
    assert _run(capsys, *argv)[0] == 0
    assert calls == {"simulate_network": 1, "normalize_power": 1, "_power_sums": power_passes}


def _one_line_error(code, out, err, text):
    assert code == 1 and out == ""
    assert err == f"error: {text}\n"


# every mode that takes --n: both genie variants, the trace and the relay demo
_BLOCK_COMMANDS = (("genie", "--variant", "lemma1"), ("genie", "--variant", "lemma2"), ("simulate",),
                   ("simulate", "--pam-order", "4"))


@pytest.mark.parametrize("argv,text", [
    *(((*command, "--n", "0"), "block length must be >= 1") for command in _BLOCK_COMMANDS),
    # checked before the draws and the power pass, whose cycle replay fails on a length past sys.maxsize
    *(((*command, "--n", str(n)), f"block length must be <= {sys.maxsize // 8}, got {n}")
      for command in _BLOCK_COMMANDS for n in (_TOO_LONG, 10 ** 20)),
    (("genie", "--variant", "lemma2", "--g12", "1", "--g13", "0", "--g23", "0"),
     "singular configuration: h2 = 0 or h3 = 0"),
    (("simulate", "--pam-order", "4", "--g13", "0", "--g23", "0"),
     "relay links run at gain h2, which must be nonzero"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_block_length_and_singular_gains_are_one_error_line(capsys, argv, text):
    _one_line_error(*_run(capsys, *argv), text)


def _assert_finite_trace(code, out, err, n):
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == n + 1 and lines[0] == "i,x1,x2,x3,y1,y2,y3,z1,z2,z3"
    assert all(math.isfinite(float(cell)) for line in lines[1:] for cell in line.split(","))


def test_a_block_whose_scaled_covariance_overflows_is_simulated(capsys):
    # the scaled power fits the budget and the trace is finite, though the
    # message-driven covariance of the fed-back receptions overflows
    _assert_finite_trace(*_run(capsys, "simulate", "--g12=8.044855908597946e+44", "--g13=-0.7973781289047944",
                               "--g23=-9975978.12592365", "--power=6.107726244812748e+256", "--n", "2",
                               "--seed", "200"), 2)


@pytest.mark.parametrize("argv,n", [
    (("--g12=-1.5756138151472337e-53", "--g13=-2.1087631507908876e+153", "--g23=-1.7500511935262854e-157",
      "--power=1.852320202902048e+25", "--n", "200", "--seed", "977577"), 200),
    (("--g12", "1e154"), 100),
], ids=["gains 1e-53 2e153 1e-157, n 200", "--g12 1e154"])
def test_a_block_whose_unit_pass_overflows_is_simulated(capsys, argv, n):
    # at message scale 1 the covariance of the fed-back receptions overflows;
    # the power pass reruns with messages of a power-of-two variance
    _assert_finite_trace(*_run(capsys, "simulate", *argv), n)


def test_genie_rejects_csv(capsys):
    _one_line_error(*_run(capsys, "genie", "--variant", "lemma1", "--n", "20", "--format", "csv"),
                    "genie output is JSON only")


def test_simulate_relay_rejects_csv(capsys):
    _one_line_error(*_run(capsys, "simulate", "--pam-order", "4", "--n", "20", "--format", "csv"),
                    "simulate --pam-order output is JSON only")


def test_simulate_mi_rejects_csv(capsys):
    _one_line_error(*_run(capsys, "simulate", "--samples", "10000", "--format", "csv"),
                    "simulate --samples output is JSON only")


_TWO_FAULTS = [
    (("region", "--format", "csv", "--g12", "nan"), "region output is JSON only"),
    (("genie", "--variant", "lemma1", "--format", "csv", "--seed", "-1"), "genie output is JSON only"),
    (("simulate", "--format", "csv", "--pam-order", "4", "--g12", "nan"), "channel gain nan is not finite"),
    (("simulate", "--format", "json", "--seed", "-3"), "--seed must be >= 0, got -3"),
    (("sweep", "--points", "0", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("gap-ensemble", "--ensemble", "0", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("crossover", "--p-lo", "-1", "--g12", "nan"), "channel gain nan is not finite"),
]


@pytest.mark.parametrize("argv,text", _TWO_FAULTS, ids=[" ".join(a) for a, _ in _TWO_FAULTS])
def test_an_input_with_two_faults_names_the_first_checked(capsys, argv, text):
    # checked in this order: the one output format, the config, the seed, then the subcommand's own rules
    _one_line_error(*_run(capsys, *argv), text)


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


@pytest.mark.parametrize("argv, target, value", [
    (["bounds"], "evaluate", 2.5),
    (["bounds", "--format", "csv"], "evaluate", 2.5),
    (["gap-ensemble", "--ensemble", "5"], "sum_capacity_interval", -0.1),
    (["genie", "--variant", "lemma1", "--n", "20", "--seed", "3"], "reconstruction_error", 2e-9),
])
def test_property_violation_prints_the_report_then_exits_two(capsys, monkeypatch, argv, target, value):
    if target == "evaluate":
        monkeypatch.setattr(bounds, "evaluate", lambda cfg: dataclasses.replace(evaluate(cfg), gap=value))
    elif target == "sum_capacity_interval":
        monkeypatch.setattr(bounds, "sum_capacity_interval", lambda inputs, P: (1.0, 1.0 + value, value))
    else:
        monkeypatch.setattr(sim, "reconstruction_error", lambda reconstructed, trace: value)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    if target == "reconstruction_error":
        assert json.loads(out) == {"max_rel_error": value, "n": 20, "seed": 3, "variant": "lemma1"}
        assert err == "property violation: genie reconstruction error 2e-09 >= 1e-09\n"
        return
    if "csv" in argv:
        header, row = out.splitlines()
        report = dict(zip(header.split(","), map(float, row.split(","))))
    else:
        obj = json.loads(out)
        report = dict(zip(obj["header"], obj["rows"][0])) if "rows" in obj else obj
    if target == "evaluate":
        assert report["gap"] == value
    else:
        assert report["violations"] == 5.0 and report["min_gap"] == report["max_gap"] == value
    assert err.count("\n") == 1 and err.startswith("property violation: ")


def test_crossover_symmetric(capsys):
    code, out, _ = _run(capsys, "crossover", "--g12", "1", "--g13", "1", "--g23", "1")
    assert code == 0
    obj = json.loads(out)
    row = dict(zip(obj["header"], obj["rows"][0]))
    assert obj["meta"]["status"] == "found"
    assert abs(row["p_star"] - 1.5) / 1.5 <= 1e-6


def test_crossover_near_the_top_of_the_float_range_is_the_smallest_crossing(capsys):
    # lo + hi overflows in the first bisection steps; the root is near 1.5e308
    gains = ("--g12", "1e-154", "--g13", "1e-154", "--g23", "1e-154")
    code, out, _ = _run(capsys, "crossover", *gains, "--p-lo", "1e300", "--p-hi", "1.7e308")
    assert code == 0
    obj = json.loads(out)
    p_star = obj["rows"][0][0]
    assert obj["meta"]["status"] == "found" and p_star < 1.6e308
    cfg, _ = make_config(1e-154, 1e-154, 1e-154, 1.0)

    def margin(P):
        b = evaluate(dataclasses.replace(cfg, power=P))
        return b.outgoing_cutset_sum - b.tightened_upper

    assert margin(p_star) > 0.0 >= margin(p_star * (1.0 - 2e-6))


def test_region_json_only(capsys):
    code, out, _ = _run(capsys, "region", "--g12", "1", "--g13", "1", "--g23", "1")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["region"]["constraints"]) == 8
    assert obj["sum_rate_lp"]["status"] == "optimal"
    assert obj["permutation"] == [1, 2, 3]

    code, _, err = _run(capsys, "region", "--format", "csv")
    assert code == 1 and "JSON only" in err


def test_dof_slopes(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "dof_estimate",
                        lambda *args, _fit=experiments.dof_estimate: calls.append(args) or _fit(*args))
    code, out, _ = _run(capsys, "dof", "--g12", "1", "--g13", "1", "--g23", "1")
    assert code == 0 and len(calls) == 1  # one fit gives all three slopes
    obj = json.loads(out)
    slopes = dict(zip(obj["header"], obj["rows"][0]))
    assert slopes["theorem2_upper"] == pytest.approx(2.0, abs=0.05)
    assert slopes["achievable_lower"] == pytest.approx(2.0, abs=0.05)
    assert slopes["outgoing_cutset_sum"] == pytest.approx(3.0, abs=0.05)


def test_a_non_finite_gain_is_named_in_argument_order(capsys):
    values = (1.5, -0.5, 0.0, math.inf, -math.inf, math.nan)
    for g in itertools.product(values, repeat=3):
        code, out, err = _run(capsys, "bounds", *(f"--{k}={v!r}" for k, v in zip(("g12", "g13", "g23"), g)))
        bad = [v for v in g if not math.isfinite(v)]
        if bad:
            _one_line_error(code, out, err, f"channel gain {bad[0]!r} is not finite")
        else:
            cfg, mapping = make_config(*g, 1.0)
            assert (code, err) == (0, "")
            assert out == export_report({**evaluate(cfg).as_dict(), "permutation": list(mapping)}, "json")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "triway.cli", "bounds"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["g12"] == 1.5


def test_commands_that_draw_nothing_never_load_numpy_random():
    # numpy.random takes ~16 ms to load, so start-up imports it nowhere: the gap ensemble
    # loads it when it draws, and only then builds its seed class
    child = ("import contextlib, io, sys\n"
             "from triway.cli import main\n"
             "for argv in (['bounds'], ['region'], ['sweep'], ['crossover'], ['gap-ensemble', '--ensemble', '1']):\n"
             "    print('numpy.random' in sys.modules)\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert main(argv) == 0, argv\n"
             "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["False"] * 5 + ["True"]


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


def test_bounds_keep_the_gain_ratio_where_squares_underflow(capsys):
    # h1^2 = h2^2 = 0 here; with the ratio h1^2/h2^2 taken as 0 this printed
    # lemma1 0.5, tightened_upper 1.5 and gap 0.5
    args = ("--g12", "1", "--g13", "1e-170", "--g23", "1e-170", "--power", "1")
    code, out, err = _run(capsys, "bounds", *args)
    assert code == 0 and err == ""
    obj = _strict_json(out)
    assert (obj["lemma1"], obj["tightened_upper"], obj["gap"]) == (1.0, 2.292481250360578, 1.292481250360578)
    want = _mp_bounds(1e-170, 1e-170, 1.0, 1.0)
    for key in ("lemma1", "lemma2", "tightened_upper", "gap"):
        assert obj[key] == pytest.approx(want[key], rel=1e-12), key
    code, out, _ = _run(capsys, "region", *args)
    assert code == 0
    rhs = {c["label"]: c["rhs"] for c in _strict_json(out)["region"]["constraints"]}
    assert (rhs["lemma1"], rhs["lemma2"]) == (obj["lemma1"], obj["lemma2"])


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



# ---------------------------------------------------- output contract, property-based

def _maybe(*strategies):
    return st.one_of(st.none(), *strategies)  # None: the flag is left out


_NUMBER = _maybe(st.floats(), st.sampled_from([0.0, 5e-324, 1e-300, 1e154, 1e300, 1e308]),
                 st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=1e-3, max_value=1e9))
_SEED = _maybe(st.integers(min_value=-2, max_value=2 ** 64))
_FORMAT = _maybe(st.sampled_from(["csv", "json"]))
_CONFIG = {"g12": _NUMBER, "g13": _NUMBER, "g23": _NUMBER, "power": _NUMBER}
# huge point counts: a grid that cannot be held, or (for gap-ensemble) a prefix of one that can
_GRID = {"p-lo": _NUMBER, "p-hi": _NUMBER, "points": _maybe(
    st.integers(min_value=-1, max_value=20), st.sampled_from([10 ** 18, 2 * 10 ** 18, sys.maxsize]))}
_SIZE_FLAGS = ("points", "n", "samples", "ensemble")  # read as int(text), or as an integral float(text)
# always given: the default block length is 100; the huge ones fail before any power pass
_N = st.one_of(st.integers(min_value=-1, max_value=50), st.sampled_from([10 ** 18, _TOO_LONG, 10 ** 20]))
# every flag of every subcommand, at sizes that keep each call to milliseconds
_FLAGS = {
    "bounds": {**_CONFIG, "format": _FORMAT},
    "region": {**_CONFIG, "format": _FORMAT},
    "dof": {**_CONFIG, **_GRID, "format": _FORMAT},
    "genie": {**_CONFIG, "n": _N, "seed": _SEED, "format": _FORMAT,
              "variant": _maybe(st.sampled_from(["lemma1", "lemma2"]))},
    "simulate": {**_CONFIG, "n": _N, "seed": _SEED, "format": _FORMAT,
                 "pam-order": _maybe(st.integers(min_value=-1, max_value=16)),
                 "samples": _maybe(st.sampled_from([9999, 10000, 10 ** 18, 3 * 10 ** 18]))},
    "sweep": {**_CONFIG, **_GRID, "seed": _SEED, "format": _FORMAT},
    "gap-ensemble": {**_GRID, "ensemble": st.integers(min_value=-1, max_value=50), "seed": _SEED,
                     "format": _FORMAT},
    "crossover": {**_CONFIG, "p-lo": _NUMBER, "p-hi": _NUMBER, "format": _FORMAT},
}


def test_the_fuzzed_flags_are_the_parser_flags():
    # a flag added to the CLI must also be added to _FLAGS, or the property test never draws it
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_FLAGS)
    for name, command in commands.items():
        flags = {flag for action in command._actions for flag in action.option_strings}
        assert flags - {"-h", "--help", "--config", "--out"} == {f"--{flag}" for flag in _FLAGS[name]}, name


def _nonfinite_cells(subcommand, out):
    """The non-finite numbers on stdout, after checking it is JSON or header-plus-rows CSV.

    The one exception allowed is the crossover that finds no sign change: it prints
    p_star NaN, a fault bench/test_bench.py pins until the next benchmark change."""
    if out.startswith("{"):
        constants = []
        obj = json.loads(out, parse_constant=lambda name: constants.append(name) or math.nan)
        if subcommand == "crossover" and obj["meta"]["status"] == "none":
            assert constants == ["NaN"] and math.isnan(obj["rows"][0][0])
            return []
        return constants
    header, *lines = out.split("\n")[:-1]
    names = header.split(",")
    assert lines and all(name.isidentifier() for name in names)
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    assert all(len(row) == len(names) for row in rows)
    cells = [(name, value) for row in rows for name, value in zip(names, row)
             if not math.isfinite(value)]
    if subcommand == "crossover" and rows[0][1] == 2.0:  # status_code 2: none
        assert [(name, math.isnan(value)) for name, value in cells] == [("p_star", True)]
        return []
    return cells


@pytest.mark.parametrize("subcommand", list(_FLAGS))
@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_every_input_prints_finite_output_or_exits_cleanly(subcommand, data):
    # each drawn value is passed as --flag=value, as --flag value, or (gains and power) in a
    # --config file; a key is given one way only, so no override warning is due
    spellings = ("=", " ", "config") if "g12" in _FLAGS[subcommand] else ("=", " ")
    spelling = data.draw(st.sampled_from(spellings), label="spelling")
    argv, config = [subcommand], {}
    for flag, strategy in _FLAGS[subcommand].items():
        value = data.draw(strategy, label=flag)
        if value is None:
            continue
        text = repr(value) if isinstance(value, float) else str(value)
        if flag in _SIZE_FLAGS and data.draw(st.booleans(), label=f"{flag} in exponent form"):
            text = _exponent_form(value)
        if spelling == "config" and flag in _CONFIG:
            config[flag] = value
        elif spelling == " ":
            argv += [f"--{flag}", text]
        else:
            argv.append(f"--{flag}={text}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if spelling == "config":
            argv += ["--config", os.path.join(tmp, "config.json")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "warning" not in err.lower()
    if code == 1:
        assert out == "" and err
    else:  # exit 2 prints the offending report first
        assert _nonfinite_cells(subcommand, out) == []

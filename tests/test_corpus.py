"""The CLI parity corpus: every call in tests/golden/corpus.tsv must keep its exit code
and the exact bytes of its stdout and stderr.

Each line of the file is one call of `triway.cli.main`, tab-separated: its argv (as
shlex.join writes it), the exit code, and the SHA-256 of stdout and of stderr.  The
file, not `_corpus_argvs`, is the source of truth: the test runs the argv lines the file
holds.  Regenerate it only when an output is meant to change, or to add lines:

    PYTHONPATH=src python tests/test_corpus.py

It writes the lines of `_corpus_argvs` and prints each line it added or changed.  Both the
test and the regeneration run from the repository root, so the `--config` lines name their
file by a relative path, and at 80 columns, since argparse wraps its usage lines to the
width it reads from COLUMNS.

Each call's output is also judged on its own (`_judge`): an exit-1 call prints nothing on
stdout and one error line on stderr, after argparse's usage lines if it is a usage error,
and an exit-0 JSON report is strict JSON.  The values of the `bounds`, `crossover` and
`gap-ensemble` reports are checked against oracles that read the call's argv, not the
program: the mpmath closed forms of `helpers.mp_bounds`, and `helpers.reference_gap_ensemble`.
The test fails on a line whose output fails its check, and the regeneration writes nothing
while one does.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

from helpers import mp_bounds, reference_gap_ensemble
from triway.cli import main
from triway.experiments import SweepSpec

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.tsv"
HEADER = "argv\texit\tstdout_sha256\tstderr_sha256\n"


# gain configs in each spelling the parser takes: the defaults, a relabelled triple, equal
# gains, a zero pair, a signed zero, a negative exponent in the space form, gains whose h^2 P
# overflows (the bounds' log branch) and a power near the float range's floor
_CONFIGS = ([], ["--g12", "0.5", "--g13", "-1.25", "--g23", "2", "--power", "3.5"],
            ["--g12", "1", "--g13", "1", "--g23", "1"], ["--g13", "0", "--g23", "0"], ["--g12=-0"],
            ["--g12", "-1.2e-05"], ["--g12", "1e150", "--g13", "1e150", "--power", "1e10"],
            ["--power", "1e-300"])
# the report shapes the writer has for one config: each JSON dict and CSV table
_COMMANDS = (["bounds"], ["bounds", "--format", "csv"], ["region"],
             ["crossover"], ["crossover", "--format", "csv"],
             ["genie", "--variant", "lemma1", "--n", "50", "--seed", "7"],
             ["genie", "--variant", "lemma2", "--n", "50", "--seed", "7"],
             ["simulate", "--n", "20", "--seed", "3"], ["simulate", "--pam-order", "4", "--seed", "3"])
_EQUAL = ["--g12", "1", "--g13", "1", "--g23", "1"]
# crossover with status none (its p_star writes NaN) and already-crossed, one-row ensemble CSVs,
# then calls that exit 1 with one error line
_ONE_OFFS = ([*cmd, *_EQUAL, *bracket, *fmt] for cmd in (["crossover"],)
             for bracket in (["--p-lo", "0.1", "--p-hi", "1"], ["--p-lo", "2", "--p-hi", "10"])
             for fmt in ([], ["--format", "csv"]))
_ERRORS = (["region", "--format", "csv"], ["genie", "--variant", "lemma1", "--format", "csv"],
           ["simulate", "--format", "json"], ["simulate", "--pam-order", "4", "--format", "csv"],
           ["simulate", "--pam-order", "4", "--samples", "10000"], ["bounds", "--power", "0"],
           ["bounds", "--g12", "nan"], ["crossover", "--p-lo", "2", "--p-hi", "1"],
           ["genie", "--variant", "lemma2", "--g13", "0", "--g23", "0"])
# command-line shapes: a missing, unknown or absent subcommand, stray and repeated arguments,
# prefixes argparse completes or finds ambiguous, a missing required flag, sizes in exponent
# form, and the --config spelling alone, under an inline override and at a missing path
_CONFIG_FILE = "tests/golden/corpus_config.json"
_SHAPES = ([], ["--version"], ["nosuch"],
           ["bounds", "extra"], ["bounds", "--version"], ["bounds", "--", "x"], ["bounds", "--g12", "1", "zz"],
           ["bounds", "--g12"], ["bounds", "--pow", "3"], ["bounds", "--g1", "2"], ["bounds", "--format=xml"],
           ["bounds", "--g12=2", "--g12", "3"], ["bounds", "--g12", "-inf"], ["genie", "--n", "5"],
           ["genie", "--variant", "lemma1", "--n", "5e1", "--seed", "7"], ["simulate", "--n", "2e1", "--seed", "3"],
           ["gap-ensemble", "--ensemble", "2.57e2", "--seed", "1"],
           ["bounds", "--config", _CONFIG_FILE], ["bounds", "--config", _CONFIG_FILE, "--g12", "2"],
           ["bounds", "--config", "tests/golden/no_such_config.json"])
# gains and powers for the sample paths (genie, the trace and the relay): gains across +-300
# decades, ties, +-0, a subnormal, overflowing h^2 P and squared gains, and powers near both
# ends of the float range, which reach each of their exit-1 lines.  Config k is spelled
# "--k T" when k % 3 is 0, "--k=T" when it is 1, and as the JSON number T in the config file
# tests/golden/corpus_sim/k.json when it is 2
_SIM_GAINS = (("1e-300", "-1e-150", "1e150", "1e-300"), ("1e-300", "1e-300", "1e150", "1"),
              ("-1e-300", "1e-300", "1e-300", "1e300"), ("2", "-2", "2", "1"), ("1", "1", "-1", "1e10"),
              ("-0", "0", "1", "1"), ("0", "-0", "-0", "1"), ("-0", "1e-300", "-1e-300", "1e300"),
              ("1e150", "1", "1", "1e10"), ("1e154", "-1e154", "1", "1e-300"), ("1", "1", "1", "1e308"),
              ("3", "5e-324", "0", "1"), ("5e-324", "1", "-1", "1"), ("1e-150", "1e150", "-1e-150", "1e-10"),
              ("1e-5", "1e5", "1e-5", "1e5"), ("1.5", "1", "0.5", "1e-300"), ("1e100", "1e-100", "1", "1e100"),
              ("1", "1", "1", "0.01"))
_SIM_DIR = "tests/golden/corpus_sim"


def _sim_config(k: int) -> list[str]:
    """Config k of `_SIM_GAINS` in its spelling."""
    if k % 3 == 2:
        return ["--config", f"{_SIM_DIR}/{k}.json"]
    pairs = zip(("--g12", "--g13", "--g23", "--power"), _SIM_GAINS[k])
    return [a for key, text in pairs for a in ((f"{key}={text}",) if k % 3 else (key, text))]


def _sim_file_text(k: int) -> str:
    pairs = zip(("g12", "g13", "g23", "power"), _SIM_GAINS[k])
    return "{" + ", ".join(f'"{key}": {text}' for key, text in pairs) + "}\n"


# every sample path at each of _SIM_GAINS (genie and the trace at a few steps, the relay at each
# order it is shown with), the largest sizes of the slice on one config, and the MI estimate's
# exit-1 lines: second moments beyond the float range (spelled three ways), a correlation that
# rounds to 1 at |h3| = 2^200, where y = h3 x exactly and so the sums behind rho^2 = 1 are the same
# whatever order BLAS adds them in, and the sample-count range
_SIM_COMMANDS = (["genie", "--variant", "lemma1", "--n", "7"], ["genie", "--variant", "lemma2", "--n", "7"],
                 ["simulate", "--n", "7"], *(["simulate", "--pam-order", str(q)] for q in (2, 4, 8)))
_SIM_LARGE = (["genie", "--variant", "lemma1", "--n", "2000", "--seed", "5"],
              ["genie", "--variant", "lemma2", "--n", "2e3", "--seed", "5"],
              ["simulate", "--n", "2000", "--seed", "5"],
              *(["simulate", "--pam-order", str(q), "--n", "2000", "--seed", "5"] for q in (2, 4, 8)))
_MI_ERRORS = (["simulate", "--samples", "10000", "--power", "1e300"],
              ["simulate", "--samples=1e4", "--power=1e300"],
              ["simulate", "--samples", "10000", "--config", f"{_SIM_DIR}/8.json"],
              ["simulate", "--samples=10000", "--g12=1.6069380442589903e60"],
              ["simulate", "--samples", "10000", "--g13", "-1.6069380442589903e60", "--seed", "9"],
              ["simulate", "--samples", "9999"], ["simulate", "--samples", "2e18"])
# the report shapes of `bounds`, `region` and `crossover` (the first five of _COMMANDS) at each of
# _SIM_GAINS, and at a gain and a power of inf, -inf and nan text
_REPORT_COMMANDS = _COMMANDS[:5]
_NONFINITE = tuple([*cmd, *flag] for cmd in (["bounds"], ["region"], ["crossover"]) for text in ("inf", "-inf", "nan")
                   for flag in (["--g13", text], [f"--power={text}"]))
# exit-1 texts no other line reaches, none of which prints a float: each --config file error
# (its file written by the regeneration, as the sim configs are), --out to a path that cannot be
# opened, and the size and grid checks of genie, simulate, sweep, dof and gap-ensemble
_BAD_CONFIGS = {"repeated": '{"g12": 1, "g12": 2}\n', "truncated": '{"g12": 1,\n', "list": "[1, 2]\n",
                "unknown": '{"g12": 1, "gain": 2}\n', "string": '{"g12": "1"}\n'}
_BAD_CONFIG_DIR = "tests/golden/corpus_bad_config"
_CHECKS = (*(["bounds", "--config", f"{_BAD_CONFIG_DIR}/{name}.json"] for name in _BAD_CONFIGS),
           ["bounds", "--out", "tests/golden/corpus.tsv/x"],
           ["genie", "--variant", "lemma1", "--n", "abc"], ["genie", "--variant", "lemma1", "--n", "0"],
           ["simulate", "--pam-order", "3"],
           ["sweep", "--points", "0"], ["sweep", "--p-lo", "10", "--p-hi", "1"], ["sweep", "--p-hi", "inf"],
           ["sweep", "--p-lo", "-1"], ["dof", "--points", "7"], ["dof", "--points", "200000"],
           ["dof", "--p-lo", "1", "--p-hi", "100"], ["gap-ensemble", "--ensemble", "0"],
           ["gap-ensemble", "--seed", "-1"])
# the rerun of normalize_power after its first pass overflows, and equal gains at the powers
# where 0.5/P leaves and then falls below the last bit of h2^2 = 1 (the relay test)
_EXTREMES = (*(["genie", "--variant", v, "--g12", "1.3e154", "--g13", "1e153", "--g23", "1", "--n", "20",
                "--seed", "1"] for v in ("lemma1", "lemma2")),
             *(["bounds", *_EQUAL, "--power", p, *fmt] for p in ("1e15", "1e16") for fmt in ([], ["--format", "csv"])))


def _corpus_argvs() -> list[list[str]]:
    """The calls the corpus holds.  Gap ensembles on the default 6-point grid, at seeds of
    one to five uint32 words and at sizes on both sides of the ensemble's block edges; then
    every report shape of `bounds`, `region`, `crossover`, `genie` and `simulate` at each of
    `_CONFIGS`, the crossover statuses none and already-crossed, one-row ensemble CSVs and
    calls that exit 1; then the command-line shapes of `_SHAPES`, which pin the parser's own
    messages and usage lines as well as the reports; then the sample paths at each of
    `_SIM_GAINS`, and the MI estimate's exit-1 lines; then the report shapes of `bounds`,
    `region` and `crossover` at each of `_SIM_GAINS` and at non-finite gain and power texts;
    then the exit-1 texts of `_CHECKS` and the exit-0 extremes of `_EXTREMES`.

    `sweep`, `dof` and a `simulate --samples` estimate are left out on purpose, but for their
    exit-1 lines: their bytes go through `np.power`, LAPACK or BLAS `ddot`, so they depend on
    the CPU (ROADMAP item 15).  Their report goldens still pin them."""
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 + 1)
    sizes = (1, 255, 256, 257, 1023, 1024, 1025, 4097)
    return [*(["gap-ensemble", "--seed", str(s), "--ensemble", str(e)] for s in seeds for e in sizes),
            *([*cmd, *cfg] for cfg in _CONFIGS for cmd in _COMMANDS), *_ONE_OFFS,
            *(["gap-ensemble", "--format", "csv", "--ensemble", str(e)] for e in (1, 257)), *_ERRORS, *_SHAPES,
            *([*cmd, *_sim_config(k), "--seed", str(k)] for k in range(len(_SIM_GAINS)) for cmd in _SIM_COMMANDS),
            *([*cmd, *_sim_config(3)] for cmd in _SIM_LARGE), *_MI_ERRORS,
            *([*cmd, *_sim_config(k)] for k in range(len(_SIM_GAINS)) for cmd in _REPORT_COMMANDS), *_NONFINITE,
            *_CHECKS, *_EXTREMES]


# argparse's error line, after its usage lines: the prog of the parser that failed, then the message
_USAGE_ERROR = re.compile(r"triway( [a-z-]+)?: error: .+")
# the value flags of the judged reports and their defaults, as the CLI documents them
_DEFAULTS = {"g12": "1.5", "g13": "1.0", "g23": "0.5", "power": "1.0", "config": None, "format": "json",
             "p-lo": None, "p-hi": None, "points": "6", "ensemble": "10000", "seed": "0"}


def _flags(argv: list[str]) -> dict[str, str | None]:
    """The flag values of an exit-0 call of a judged report, by flag name: each "--flag value"
    or "--flag=value", a unique prefix standing for its flag and the last value winning, over
    `_DEFAULTS`; the gains and power as the --config file states them, where it does and no
    inline flag overrides them."""
    flags, given = dict(_DEFAULTS), {}
    args = iter(argv[1:])
    for arg in args:
        key, eq, value = arg[2:].partition("=")
        name = key if key in flags else next(name for name in flags if name.startswith(key))
        given[name] = value if eq else next(args)
    if "config" in given:  # a JSON integer is a float there too
        flags.update((k, repr(v)) for k, v in json.loads(Path(given["config"]).read_text(), parse_int=float).items())
    return {**flags, **given}


def _close(got: float, want: float, slack: float = 0.0) -> bool:
    """got is want at tests/test_bounds.py's tolerances, rel and abs 1e-12, plus slack."""
    return abs(got - want) <= slack + max(1e-12 * abs(want), 1e-12)


def _judge_bounds(argv: list[str], out: str) -> str | None:
    """Every value of a `bounds` report against the mpmath closed forms at the call's gains and
    power; a CSV cell within its six-decimal rounding, 5e-7, more.  The JSON config echo is the
    call's gains relabelled by its permutation."""
    flags = _flags(argv)
    gains = {pair: float(flags[pair]) for pair in ("g12", "g13", "g23")}
    power, h = float(flags["power"]), sorted(map(abs, gains.values()))
    want = mp_bounds(*h, power)
    want.update({"in" + k[-1]: want[k] for k in ("out1", "out2", "out3")})
    del want["margin"], want["outgoing_cutset_sum"]  # not in the report
    if flags["format"] == "csv":
        header, row = out.splitlines()
        got, slack = dict(zip(header.split(","), map(float, row.split(",")))), 5e-7
        echo = [abs(got[pair]) for pair in ("g12", "g13", "g23", "power")]
        if not all(map(_close, echo, [*h[::-1], power], [slack] * 4)):
            return f"config echo {echo} is not the call's gains and power"
    else:
        obj = json.loads(out)
        got, slack, m = {**obj["cutset"], **obj}, 0.0, obj["permutation"]
        relabelled = {f"g{min(m[a - 1], m[b - 1])}{max(m[a - 1], m[b - 1])}": gains[f"g{a}{b}"]
                      for a, b in ((1, 2), (1, 3), (2, 3))}
        if sorted(m) != [1, 2, 3] or obj["config"] != {**relabelled, "power": power}:
            return f"config echo {obj['config']} is not the call's gains under permutation {m}"
    wrong = [key for key, value in want.items() if not _close(got.get(key, math.nan), value, slack)]
    return f"{wrong} differ from the mpmath closed forms" if wrong else None


def _judge_crossover(argv: list[str], out: str) -> str | None:
    """A JSON crossover report by the sign of the mpmath margin (outgoing cut-set sum minus
    tightened upper) at the call's gains: positive at p_star and not at p_star (1 - 2e-6) when
    found, positive at p_lo when already crossed, not positive at p_hi when none."""
    flags = _flags(argv)
    if flags["format"] == "csv":
        return None
    obj = json.loads(out)
    p_star, code, *echo = obj["rows"][0]
    status = obj["meta"]["status"]
    h = sorted(abs(float(flags[pair])) for pair in ("g12", "g13", "g23"))
    p_lo, p_hi = float(flags["p-lo"] or 0.1), float(flags["p-hi"] or 100.0)
    if [*map(abs, echo[:3]), *echo[3:]] != [*h[::-1], p_lo, p_hi]:
        return f"echo {echo} is not the call's gains and bracket"

    def margin(P: float) -> float:
        return mp_bounds(*h, P)["margin"]

    if status == "found":
        ok = code == 0.0 and p_lo < p_star <= p_hi and margin(p_star) > 0 >= margin(p_star * (1 - 2e-6))
    elif status == "already-crossed":
        ok = code == 1.0 and p_star == p_lo and margin(p_lo) > 0
    else:
        ok = status == "none" and code == 2.0 and math.isnan(p_star) and margin(p_hi) <= 0
    return None if ok else f"status {status!r} at p_star {p_star} fails the mpmath margin"


def _judge_gap_ensemble(argv: list[str], out: str) -> str | None:
    """A gap-ensemble row bit for bit as helpers.reference_gap_ensemble's, trial by trial; a CSV
    row as its cells print with six decimals."""
    flags = _flags(argv)
    spec = SweepSpec(p_lo=float(flags["p-lo"] or 0.1), p_hi=float(flags["p-hi"] or 1e4),
                     points=int(float(flags["points"])), ensemble=int(float(flags["ensemble"])),
                     seed=int(flags["seed"]))
    want = reference_gap_ensemble(spec)
    if flags["format"] == "csv":
        row, want = out.splitlines()[1], ",".join(f"{v:.6f}" for v in want)
    else:
        row, want = repr(tuple(json.loads(out)["rows"][0])), repr(want)
    return None if row == want else f"row {row} is not the per-trial reference's {want}"


_VALUE_JUDGES = {"bounds": _judge_bounds, "crossover": _judge_crossover, "gap-ensemble": _judge_gap_ensemble}


def _judge(argv: list[str], code: int, out: str, err: str) -> str | None:
    """What is wrong with a call's output, judged without the corpus, or None.

    Exit 1 writes nothing on stdout and one error on stderr: the one line `error: ...`, or
    argparse's usage lines (`usage: ` and its indented continuations) and then one line
    `triway...: error: ...`.  An exit-0 JSON report parses as strict JSON; the one exception
    is the crossover that finds no sign change, whose p_star prints NaN and is its only
    non-finite number (bench/test_bench.py pins that fault until the next benchmark change).
    An exit-0 `bounds`, `crossover` or `gap-ensemble` report also passes its value judge.
    """
    if code == 1:
        lines = err.split("\n")
        if out or lines[-1] or len(lines) < 2:
            return "exit 1 must print nothing on stdout and whole lines on stderr"
        *usage, last, _ = lines
        if not usage and last.startswith("error: ") and len(last) > len("error: "):
            return None
        if (usage and usage[0].startswith("usage: triway") and all(u.startswith(" ") for u in usage[1:])
                and _USAGE_ERROR.fullmatch(last)):
            return None
        return f"exit 1 must print one error line, after the usage lines if any: {err!r}"
    if code == 0 and out.startswith("{"):
        constants = []
        try:
            obj = json.loads(out, parse_constant=lambda name: constants.append(name) or math.nan)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if constants and not (argv[0] == "crossover" and obj["meta"]["status"] == "none"
                              and constants == ["NaN"] and math.isnan(obj["rows"][0][0])):
            return f"stdout is not strict JSON: it holds {constants}"
    if code == 0 and argv[0] in _VALUE_JUDGES:
        return _VALUE_JUDGES[argv[0]](argv, out)
    return None


def _call(argv: list[str]) -> tuple[str, str | None]:
    """argv's corpus line and `_judge`'s verdict on its output: one in-process call of cli.main
    with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    digests = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
    return "\t".join((shlex.join(argv), str(code), *digests)) + "\n", _judge(argv, code, out, err)


def _read() -> list[str]:
    lines = CORPUS.read_text().splitlines(keepends=True)
    assert lines[0] == HEADER
    return lines[1:]


def test_corpus_lines_keep_their_exit_code_and_bytes(monkeypatch):
    monkeypatch.delenv("TRIWAY_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    lines = _read()
    calls = [(want, *_call(shlex.split(want.split("\t")[0]))) for want in lines]
    changed = [want.split("\t")[0] for want, got, _ in calls if got != want]
    faults = [(want.split("\t")[0], fault) for want, _, fault in calls if fault]
    assert not changed and not faults, (f"{len(changed)} of {len(lines)} corpus lines differ: {changed}; "
                                        f"{len(faults)} fail their check: {faults}")


def _regenerate() -> None:
    os.environ.pop("TRIWAY_SEED", None)
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    old = set(_read()) if CORPUS.exists() else set()
    for k in range(2, len(_SIM_GAINS), 3):
        Path(_SIM_DIR, f"{k}.json").write_text(_sim_file_text(k))
    Path(_BAD_CONFIG_DIR).mkdir(exist_ok=True)
    for name, text in _BAD_CONFIGS.items():
        Path(_BAD_CONFIG_DIR, f"{name}.json").write_text(text)
    calls = [(argv, *_call(argv)) for argv in _corpus_argvs()]
    faults = [(shlex.join(argv), fault) for argv, _, fault in calls if fault]
    if faults:
        sys.exit("\n".join(["corpus not written: these calls fail their check", *map("\t".join, faults)]))
    lines = [line for _, line, _ in calls]
    CORPUS.write_text(HEADER + "".join(lines))
    for line in lines:
        if line not in old:
            print(line, end="")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)

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
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

from triway.cli import main

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


def _corpus_argvs() -> list[list[str]]:
    """The calls the corpus holds.  Gap ensembles on the default 6-point grid, at seeds of
    one to five uint32 words and at sizes on both sides of the ensemble's block edges; then
    every report shape of `bounds`, `region`, `crossover`, `genie` and `simulate` at each of
    `_CONFIGS`, the crossover statuses none and already-crossed, one-row ensemble CSVs and
    calls that exit 1; then the command-line shapes of `_SHAPES`, which pin the parser's own
    messages and usage lines as well as the reports; then the sample paths at each of
    `_SIM_GAINS`, and the MI estimate's exit-1 lines; then the report shapes of `bounds`,
    `region` and `crossover` at each of `_SIM_GAINS` and at non-finite gain and power texts.

    `sweep`, `dof` and a `simulate --samples` estimate are left out on purpose: their bytes go
    through `np.power`, LAPACK or BLAS `ddot`, so they depend on the CPU (ROADMAP item 15).
    Their report goldens still pin them."""
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 + 1)
    sizes = (1, 255, 256, 257, 1023, 1024, 1025, 4097)
    return [*(["gap-ensemble", "--seed", str(s), "--ensemble", str(e)] for s in seeds for e in sizes),
            *([*cmd, *cfg] for cfg in _CONFIGS for cmd in _COMMANDS), *_ONE_OFFS,
            *(["gap-ensemble", "--format", "csv", "--ensemble", str(e)] for e in (1, 257)), *_ERRORS, *_SHAPES,
            *([*cmd, *_sim_config(k), "--seed", str(k)] for k in range(len(_SIM_GAINS)) for cmd in _SIM_COMMANDS),
            *([*cmd, *_sim_config(3)] for cmd in _SIM_LARGE), *_MI_ERRORS,
            *([*cmd, *_sim_config(k)] for k in range(len(_SIM_GAINS)) for cmd in _REPORT_COMMANDS), *_NONFINITE]


def _line(argv: list[str]) -> str:
    """argv's corpus line: one in-process call of cli.main with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return "\t".join((shlex.join(argv), str(code), *digests)) + "\n"


def _read() -> list[str]:
    lines = CORPUS.read_text().splitlines(keepends=True)
    assert lines[0] == HEADER
    return lines[1:]


def test_corpus_lines_keep_their_exit_code_and_bytes(monkeypatch):
    monkeypatch.delenv("TRIWAY_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    lines = _read()
    changed = [want.split("\t")[0] for want in lines
               if _line(shlex.split(want.split("\t")[0])) != want]
    assert not changed, f"{len(changed)} of {len(lines)} corpus lines differ: {changed}"


def _regenerate() -> None:
    os.environ.pop("TRIWAY_SEED", None)
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    old = set(_read()) if CORPUS.exists() else set()
    for k in range(2, len(_SIM_GAINS), 3):
        Path(_SIM_DIR, f"{k}.json").write_text(_sim_file_text(k))
    lines = [_line(argv) for argv in _corpus_argvs()]
    CORPUS.write_text(HEADER + "".join(lines))
    for line in lines:
        if line not in old:
            print(line, end="")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)

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


def _corpus_argvs() -> list[list[str]]:
    """The calls the corpus holds.  Gap ensembles on the default 6-point grid, at seeds of
    one to five uint32 words and at sizes on both sides of the ensemble's block edges; then
    every report shape of `bounds`, `region`, `crossover`, `genie` and `simulate` at each of
    `_CONFIGS`, the crossover statuses none and already-crossed, one-row ensemble CSVs and
    calls that exit 1; then the command-line shapes of `_SHAPES`, which pin the parser's own
    messages and usage lines as well as the reports.

    `sweep`, `dof` and `simulate --samples` are left out on purpose: their bytes go through
    `np.power`, LAPACK or BLAS `ddot`, so they depend on the CPU (ROADMAP item 15).  Their
    report goldens still pin them."""
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 + 1)
    sizes = (1, 255, 256, 257, 1023, 1024, 1025, 4097)
    return [*(["gap-ensemble", "--seed", str(s), "--ensemble", str(e)] for s in seeds for e in sizes),
            *([*cmd, *cfg] for cfg in _CONFIGS for cmd in _COMMANDS), *_ONE_OFFS,
            *(["gap-ensemble", "--format", "csv", "--ensemble", str(e)] for e in (1, 257)), *_ERRORS, *_SHAPES]


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
    lines = [_line(argv) for argv in _corpus_argvs()]
    CORPUS.write_text(HEADER + "".join(lines))
    for line in lines:
        if line not in old:
            print(line, end="")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)

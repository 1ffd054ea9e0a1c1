"""The CLI parity corpus: every call in tests/golden/corpus.tsv must keep its exit code
and the exact bytes of its stdout and stderr.

Each line of the file is one call of `triway.cli.main`, tab-separated: its argv (as
shlex.join writes it), the exit code, and the SHA-256 of stdout and of stderr.  The
file, not `_corpus_argvs`, is the source of truth: the test runs the argv lines the file
holds.  Regenerate it only when an output is meant to change, or to add lines:

    PYTHONPATH=src python tests/test_corpus.py

It writes the lines of `_corpus_argvs` and prints each line it added or changed.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

from triway.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.tsv"
HEADER = "argv\texit\tstdout_sha256\tstderr_sha256\n"


def _corpus_argvs() -> list[list[str]]:
    """The calls the corpus holds: gap ensembles on the default 6-point grid, at seeds of
    one to five uint32 words and at sizes on both sides of the ensemble's block edges."""
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 + 1)
    sizes = (1, 255, 256, 257, 1023, 1024, 1025, 4097)
    return [["gap-ensemble", "--seed", str(s), "--ensemble", str(e)] for s in seeds for e in sizes]


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
    lines = _read()
    changed = [want.split("\t")[0] for want in lines
               if _line(shlex.split(want.split("\t")[0])) != want]
    assert not changed, f"{len(changed)} of {len(lines)} corpus lines differ: {changed}"


def _regenerate() -> None:
    os.environ.pop("TRIWAY_SEED", None)
    old = set(_read()) if CORPUS.exists() else set()
    lines = [_line(argv) for argv in _corpus_argvs()]
    CORPUS.write_text(HEADER + "".join(lines))
    for line in lines:
        if line not in old:
            print(line, end="")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)

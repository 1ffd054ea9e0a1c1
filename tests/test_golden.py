"""Golden CLI outputs: every report the CLI writes must stay byte-identical.

The files under tests/golden/ hold stdout of `triway.cli.main` for a fixed
set of invocations, and tests/golden/help/ its `--help` text at 80 columns.
Regenerate them only when a report or the help is meant to change:

    PYTHONPATH=src python tests/test_golden.py

It prints the name of each file whose bytes it changed.
"""

import sys
from pathlib import Path

import pytest

from triway.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NONCANONICAL = ["--g12", "0.5", "--g13", "-1.25", "--g23", "2", "--power", "3.5"]

CASES = {
    "bounds.json": ["bounds"],
    "bounds.csv": ["bounds", "--format", "csv"],
    "bounds_noncanonical.json": ["bounds", *NONCANONICAL],
    "bounds_noncanonical.csv": ["bounds", *NONCANONICAL, "--format", "csv"],
    "region.json": ["region"],
    "dof.json": ["dof"],
    "genie_lemma1.json": ["genie", "--variant", "lemma1", "--n", "50", "--seed", "7"],
    "genie_lemma2.json": ["genie", "--variant", "lemma2", "--n", "50", "--seed", "7"],
    "genie_lemma1_n1000.json": ["genie", "--variant", "lemma1", "--n", "1000", "--seed", "11",
                                *NONCANONICAL],
    "genie_lemma2_n1000.json": ["genie", "--variant", "lemma2", "--n", "1000", "--seed", "11",
                                *NONCANONICAL],
    "simulate_trace.csv": ["simulate", "--n", "20"],
    "simulate_pam.json": ["simulate", "--pam-order", "4"],
    "simulate_mi.json": ["simulate", "--samples", "10000"],
    "sweep.csv": ["sweep", "--points", "13"],
    "sweep.json": ["sweep", "--points", "13", "--format", "json"],
    "gap_ensemble.json": ["gap-ensemble", "--ensemble", "500"],
    "gap_ensemble.csv": ["gap-ensemble", "--ensemble", "500", "--format", "csv"],
    "crossover_found.json": ["crossover", "--g12", "1", "--g13", "1", "--g23", "1"],
    "crossover_already_crossed.json": ["crossover", "--g12", "1", "--g13", "1", "--g23", "1",
                                       "--p-lo", "2", "--p-hi", "10"],
}

# argparse wraps help to the terminal width, which it reads from COLUMNS
HELP_CASES = {"triway.txt": ["--help"],
              **{f"{cmd}.txt": [cmd, "--help"] for cmd in ("bounds", "region", "dof", "genie", "simulate",
                                                           "sweep", "gap-ensemble", "crossover")}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("TRIWAY_SEED", raising=False)
    assert main(CASES[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(HELP_CASES[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / "help" / name).read_bytes()


def _regenerate() -> None:
    import contextlib
    import io
    import os

    os.environ["COLUMNS"] = "80"
    (GOLDEN / "help").mkdir(parents=True, exist_ok=True)
    for name, argv in (*CASES.items(), *(("help/" + name, argv) for name, argv in HELP_CASES.items())):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, name
        path, text = GOLDEN / name, buf.getvalue().encode()
        if not path.exists() or path.read_bytes() != text:
            path.write_bytes(text)
            print(name)


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)

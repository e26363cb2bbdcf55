"""The six README commands print exactly the stored standard output.

The expected outputs under ``tests/data/`` are byte for byte what the
commands print, and ``cli_table_grid.csv`` what ``table --out`` writes; any
change to a printed digit, sign or line is a failure.
The commands run in-process from the repository root, so the relative CSV
path of ``reproduce --from-csv`` prints as the README shows it.
"""

from pathlib import Path

import pytest

from whichway import read_records_csv
from whichway.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

README_COMMANDS = [
    ("cli_vg.txt", ("vg", "--channel", "identity", "--d", "3", "--prep", "mixed")),
    ("cli_distinguishability.txt", ("distinguishability", "--channel", "pauli", "--prep", "mixed")),
    ("cli_verify.txt", ("verify", "--channel", "transpose", "--d", "2", "--prep", "pure:h,h")),
    ("cli_table.txt", ("table", "--out", "GRID")),
    ("cli_reproduce_seed.txt", ("reproduce", "--seed", "7", "--shots", "10000", "--contrast", "0.96")),
    ("cli_reproduce_csv.txt", ("reproduce", "--from-csv", "demos/data/measured_records.csv")),
]


@pytest.mark.parametrize("expected, argv", README_COMMANDS, ids=[e for e, _ in README_COMMANDS])
def test_readme_command_output_is_byte_stable(capsys, monkeypatch, tmp_path, expected, argv):
    monkeypatch.chdir(ROOT)
    grid = tmp_path / "grid.csv"
    code = main([str(grid) if a == "GRID" else a for a in argv])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (DATA / expected).read_text(encoding="ascii")
    if "GRID" in argv:
        assert len(read_records_csv(grid)) == 16
        assert grid.read_bytes() == (DATA / "cli_table_grid.csv").read_bytes()


def test_table_out_rewrites_a_longer_file(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    expected = (DATA / "cli_table_grid.csv").read_bytes()
    grid.write_bytes(b"junk," * len(expected))
    for _ in range(2):
        assert main(["table", "--out", str(grid)]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "cli_table.txt").read_text(encoding="ascii")
        assert grid.read_bytes() == expected

"""Every file the package writes goes through ``whichway._files.write_text``.

Each writer, run over an existing longer file, leaves exactly the bytes it
writes to a new file, in the same inode; ``--out /dev/null`` succeeds (the
file is not a regular one, so it is not cut to length). That no other module
of ``src/whichway`` opens a file or imports ``csv`` is a rule of
``tests/test_static_rules.py``.
"""

import io
import os
from dataclasses import replace

import pytest

from conftest import measured_records
from whichway import (
    DimensionError,
    InputFormatError,
    PathChannel,
    load_channel,
    pauli_mixture_channel,
    read_dataset_csv,
    read_records_csv,
    rectilinear_filters,
    rectilinear_preparations,
    save_channel,
    simulate_fringes,
    transpose_channel,
    write_dataset_csv,
    write_records_csv,
)
from whichway._files import read_csv, write_text
from whichway.cli import EXIT_INPUT, EXIT_OK, main


def _vg_out(path):
    assert main(["vg", "--channel", "identity", "--d", "3", "--prep", "mixed",
                 "--out", str(path)]) == EXIT_OK


def _dataset(path):
    ds = simulate_fringes(pauli_mixture_channel(), rectilinear_preparations()["hh"],
                          rectilinear_filters()["hh"], shots_per_phase=3000, seed=12)
    write_dataset_csv(ds, path)


WRITERS = {
    "cli_emit": _vg_out,
    "write_records_csv": lambda path: write_records_csv(measured_records(), path),
    "write_dataset_csv": _dataset,
    "save_channel": lambda path: save_channel(transpose_channel(2), path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_overwrite_leaves_no_stale_tail(tmp_path, write):
    fresh = tmp_path / "fresh"
    write(fresh)
    expected = fresh.read_bytes()
    assert expected
    target = tmp_path / "target"
    target.write_bytes(b"stale tail\n" * (len(expected) // 11 + 100))
    inode = target.stat().st_ino
    write(target)
    assert target.read_bytes() == expected
    assert target.stat().st_ino == inode


def test_out_to_dev_null_succeeds(capsys):
    _vg_out(os.devnull)
    assert capsys.readouterr().out == "V_G = 1.0000\n"


def test_non_ascii_text_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "kept.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(InputFormatError) as exc:
        write_text(path, "V_G \u2265 1\n")
    assert str(exc.value) == f"{path}: character U+2265 at offset 4 is not ASCII"
    assert path.read_bytes() == b"old\n"


def _non_ascii_records():
    return [replace(r, mu="h\u00e9") if r.key == ("hh", "hh") else r
            for r in measured_records()]


NON_ASCII_WRITERS = {
    "write_records_csv": lambda target: write_records_csv(_non_ascii_records(), target),
    "save_channel": lambda target: save_channel(
        PathChannel(transpose_channel(2).kraus, metadata={"source": "caf\u00e9"}), target),
}


@pytest.mark.parametrize("write, offset", [
    (NON_ASCII_WRITERS["write_records_csv"], 36),
    (NON_ASCII_WRITERS["save_channel"], 54),
], ids=NON_ASCII_WRITERS.keys())
def test_non_ascii_text_is_refused_before_a_path_is_opened(tmp_path, write, offset):
    path = tmp_path / "out.txt"
    with pytest.raises(InputFormatError) as exc:
        write(path)
    assert str(exc.value) == f"{path}: character U+00E9 at offset {offset} is not ASCII"
    assert not path.exists()


def test_non_ascii_label_is_refused_before_a_buffer_is_written():
    buf = io.StringIO()
    with pytest.raises(InputFormatError) as exc:
        write_records_csv(_non_ascii_records(), buf)
    assert str(exc.value) == f"{buf}: character U+00E9 at offset 36 is not ASCII"
    assert buf.getvalue() == ""


PATH_TAKERS = {
    "read_records_csv": read_records_csv,
    "read_dataset_csv": lambda path: read_dataset_csv(path, shots_per_phase=10),
    "load_channel": load_channel,
    "write_records_csv": lambda path: write_records_csv(measured_records(), path),
    "save_channel": lambda path: save_channel(transpose_channel(2), path),
    "write_text": lambda path: write_text(path, "x\n"),
}


@pytest.mark.parametrize("path", [True, 2, None, 1.5, b"records.csv"],
                         ids=["bool", "fd", "none", "float", "bytes"])
@pytest.mark.parametrize("take", PATH_TAKERS.values(), ids=PATH_TAKERS.keys())
def test_a_path_that_is_not_a_str_or_path_like_is_refused_before_any_open(monkeypatch, take, path):
    # True opened (and closed) file descriptor 1, and 2 raised a bare TypeError
    def opened(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r}")

    monkeypatch.setattr("builtins.open", opened)
    monkeypatch.setattr(os, "open", opened)
    with pytest.raises(DimensionError) as exc:
        take(path)
    assert str(exc.value).startswith("expected a path") and str(exc.value).endswith(f"got {path!r}")


def test_write_text_takes_no_text_buffer():
    with pytest.raises(DimensionError, match="expected a path, got <_io.StringIO"):
        write_text(io.StringIO(), "x\n")


@pytest.mark.parametrize("text, message", [
    ("", "unexpected CSV header None, expected ['a', 'b']"),
    ("a,c\n", "unexpected CSV header ['a', 'c'], expected ['a', 'b']"),
    ("a,b\n1,2,3\n", "CSV line 2: expected 2 fields, got 3"),
    ("a,b\n\n1,x\n", "CSV line 3, column b: could not convert string to float: 'x'"),
], ids=["empty", "header", "field-count", "field"])
def test_csv_format_faults_are_input_format_errors(text, message):
    with pytest.raises(InputFormatError) as exc:
        read_csv(io.StringIO(text), ["a", "b"], (float, float))
    assert str(exc.value) == message


def test_records_csv_from_an_empty_file_is_an_input_format_error():
    with pytest.raises(InputFormatError, match="unexpected CSV header None"):
        read_records_csv(os.devnull)


NON_ASCII_READERS = {
    "read_records_csv": read_records_csv,
    "read_dataset_csv": lambda path: read_dataset_csv(path, shots_per_phase=10),
    "load_channel": load_channel,
}


@pytest.mark.parametrize("read", NON_ASCII_READERS.values(), ids=NON_ASCII_READERS.keys())
def test_a_non_ascii_file_is_an_input_format_error(tmp_path, read):
    path = tmp_path / "input.txt"
    path.write_bytes(b"mu,nu\r\nh\xe9,hh\r\n")
    with pytest.raises(InputFormatError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: byte 0xe9 at offset 8 is not ASCII"


def test_cli_reports_a_non_ascii_records_csv_as_an_input_error(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_bytes(b"mu,nu,p,re_V,im_V,sigma_p,sigma_V\r\nh\xe9,hh,1,0,0,0,0\r\n")
    assert main(["reproduce", "--from-csv", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: byte 0xe9 at offset 36 is not ASCII\n"


def test_line_ends_read_as_newlines(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(measured_records(), path)
    text = path.read_bytes()
    assert b"\r\n" in text
    for ends in (text, text.replace(b"\r\n", b"\r"), text.replace(b"\r\n", b"\n")):
        path.write_bytes(ends)
        assert read_records_csv(path) == read_records_csv(io.StringIO(text.decode("ascii")))

"""The one place the package opens a file, and the one that knows the CSV
dialect: the :mod:`csv` defaults (``\r\n`` line ends) in ASCII, a header row
first. Text that is not ASCII raises :class:`InputFormatError`, on read
naming the byte's offset and on write, before anything is written, the
character's. Each reader and writer takes a path (a ``str`` or an
:class:`os.PathLike`) or, except :func:`write_text`, an open text buffer;
anything else, a bool or an int file descriptor included, raises
:class:`DimensionError` before any file is opened.

An existing file is rewritten in place and then cut to length, never
truncated to zero first: on ext4, truncating a file and writing it again
forces a flush at close (``auto_da_alloc``), tens of milliseconds against
microseconds for the write. The rewrite is not atomic.
"""

from __future__ import annotations

import csv
import io
import os
import stat
import sys

from .errors import DimensionError, InputFormatError


def _checked(path, buffer_ok: bool = False):
    """``path`` if it is a ``str`` or an :class:`os.PathLike`, or, when
    ``buffer_ok``, an :class:`io.TextIOBase`; :class:`DimensionError`
    otherwise."""
    if isinstance(path, (str, os.PathLike)) or buffer_ok and isinstance(path, io.TextIOBase):
        return path
    raise DimensionError(f"expected a path{' or a text buffer' if buffer_ok else ''}, "
                         f"got {path!r}")


def _ascii(text: str, target) -> bytes:
    """``text`` encoded as ASCII; a character outside ASCII raises
    :class:`InputFormatError` naming ``target`` and the character's
    offset in the text."""
    try:
        return text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InputFormatError(f"{target}: character U+{ord(text[exc.start]):04X} at offset "
                               f"{exc.start} is not ASCII") from None


def write_text(path, text: str) -> None:
    """Write ``text`` as ASCII to ``path``, creating the file or rewriting it
    in place (same inode, no stale tail).

    The text is encoded before the file is touched, so a non-ASCII character
    raises :class:`InputFormatError` and leaves the file as it was. Only a
    regular file is cut to length: ``ftruncate`` fails on ``/dev/null``.
    """
    data = _ascii(text, _checked(path))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def stdout_to_devnull() -> None:
    """Point the stdout file descriptor at :data:`os.devnull`, so that no
    later flush of a stdout whose reader has gone can raise again."""
    fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(fd, sys.stdout.fileno())
    os.close(fd)


def read_text(path_or_buffer) -> str:
    """The rest of an open text buffer, or the whole of the ASCII file at a
    path with its ``\\r\\n`` and ``\\r`` line ends read as ``\\n``. A
    byte outside ASCII raises :class:`InputFormatError` naming the path and
    the byte's offset in the file."""
    if isinstance(_checked(path_or_buffer, buffer_ok=True), io.TextIOBase):
        return path_or_buffer.read()
    with open(path_or_buffer, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path_or_buffer}: byte 0x{data[exc.start]:02x} at offset "
                               f"{exc.start} is not ASCII") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_csv(path_or_buffer, fields: list[str], types) -> list[list]:
    """The data rows of a CSV whose header is ``fields``, blank lines
    skipped, each field converted by the matching callable of ``types``. A
    different header, or a row with a field count other than
    ``len(fields)``, raises :class:`InputFormatError` naming the line; a
    field its conversion rejects raises it naming the line and the
    column."""
    reader = csv.reader(io.StringIO(read_text(path_or_buffer), newline=""))
    header = next(reader, None)
    if header != fields:
        raise InputFormatError(f"unexpected CSV header {header}, expected {fields}")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(fields):
            raise InputFormatError(f"CSV line {reader.line_num}: expected "
                                   f"{len(fields)} fields, got {len(row)}")
        values = []
        for name, convert, text in zip(fields, types, row):
            try:
                values.append(convert(text))
            except ValueError as exc:
                raise InputFormatError(
                    f"CSV line {reader.line_num}, column {name}: {exc}") from None
        rows.append(values)
    return rows


def write_csv(path_or_buffer, fields: list[str], rows) -> None:
    """Write a CSV of header ``fields`` and then ``rows`` to an open text
    buffer, or to a path through :func:`write_text`; either way a non-ASCII
    character raises :class:`InputFormatError` before anything is written."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(fields)
    writer.writerows(rows)
    text = buf.getvalue()
    if isinstance(_checked(path_or_buffer, buffer_ok=True), io.TextIOBase):
        _ascii(text, path_or_buffer)
        path_or_buffer.write(text)
    else:
        write_text(path_or_buffer, text)

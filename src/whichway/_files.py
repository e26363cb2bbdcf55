"""The one place the package opens a file for writing.

An existing file is rewritten in place and then cut to length, never
truncated to zero first: on ext4, truncating a file and writing it again
forces a flush at close (``auto_da_alloc``), tens of milliseconds against
microseconds for the write. The rewrite is not atomic.
"""

from __future__ import annotations

import os
import stat


def write_text(path, text: str) -> None:
    """Write ``text`` as ASCII to ``path``, creating the file or rewriting it
    in place (same inode, no stale tail).

    The text is encoded before the file is touched, so a non-ASCII character
    raises :class:`UnicodeEncodeError` and leaves the file as it was. Only a
    regular file is cut to length: ``ftruncate`` fails on ``/dev/null``.
    """
    data = text.encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()

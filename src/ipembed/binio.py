"""Helpers shared by the binary container formats."""

from __future__ import annotations

import io
import os
import struct
from typing import BinaryIO


class FormatError(ValueError):
    """Raised when a binary container is malformed or truncated."""


def read_exact(fp: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes from a file opened in binary mode.

    A length above one I/O buffer is checked against the bytes left in the
    file before anything is read, so a corrupt length field ends in
    ``FormatError`` instead of a buffer as large as the field claims.
    Shorter reads are checked once they return.
    """
    if n > io.DEFAULT_BUFFER_SIZE:
        ensure_left(fp, n)
    buf = fp.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {len(buf)}")
    return buf


def ensure_left(fp: BinaryIO, n: int) -> None:
    """Raise ``FormatError`` unless ``n`` bytes are left in the file."""
    left = os.fstat(fp.fileno()).st_size - fp.tell()
    if n > left:
        raise FormatError(f"truncated file: wanted {n} bytes, {left} left")


def read_text(fp: BinaryIO, n: int, what: str) -> str:
    """Read ``n`` bytes of UTF-8 text; other bytes are a ``FormatError``."""
    try:
        return read_exact(fp, n).decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{what} is not UTF-8") from None


def read_struct(fp: BinaryIO, fmt: str) -> tuple:
    return struct.unpack(fmt, read_exact(fp, struct.calcsize(fmt)))


def write_struct(fp: BinaryIO, fmt: str, *values) -> None:
    fp.write(struct.pack(fmt, *values))

"""Helpers shared by the binary container formats."""

from __future__ import annotations

import io
import math
import os
import struct
import sys
from typing import BinaryIO

import numpy as np


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


def write_array(fp: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    """Write ``arr`` in C order as little-endian ``dtype`` values.

    The bytes go out through one little-endian view: ``arr`` itself when it
    already has that layout, else one converted copy.
    """
    fp.write(np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<")))


def read_array(fp: BinaryIO, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """A new native ``dtype`` array of ``shape``, read from little-endian
    values with :func:`read_into`. Its length is checked against the bytes
    left in the file, as :func:`read_exact` checks one, before it is
    allocated."""
    dtype = np.dtype(dtype)
    n = dtype.itemsize * math.prod(shape)
    if n > io.DEFAULT_BUFFER_SIZE:
        ensure_left(fp, n)
    return read_into(fp, np.empty(shape, dtype))


def read_into(fp: BinaryIO, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous native array ``out`` from little-endian values
    with one ``readinto`` into its own buffer, and return it. A short read
    is a ``FormatError``; the buffer exists already, so nothing is checked
    before reading."""
    n = out.nbytes
    got = fp.readinto(out)
    if got != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {got}")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    return out


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

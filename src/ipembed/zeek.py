"""Zeek conn.log ingestion.

Reads the TSV and JSON-lines variants of conn.log in a single pass, one
bounded block of rows at a time, so the memory a parse needs beyond its
result does not grow with the log. :func:`read_conn_log` returns the
validated flows as a columnar :class:`FlowTable`; :func:`parse_conn_log`
streams them as :class:`ConnRecord` objects. Also implements the canonical
TSV dump format used for fixtures and lossless round-trips.

Zeek TSV headers are honored when present: ``#separator`` (possibly as a hex
escape such as ``\\x09``), ``#fields`` (required before any data row),
``#unset_field`` and ``#empty_field``. Unset numeric cells map to zero; an
unset ``service`` falls back to the transport protocol.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache
from ipaddress import ip_address
from itertools import chain, repeat
from operator import attrgetter, eq
from pathlib import Path
from typing import IO, NamedTuple, Union

import numpy as np

__all__ = [
    "CANONICAL_FIELDS",
    "NUMERIC_FEATURES",
    "ConnRecord",
    "FlowTable",
    "ParseError",
    "ParseStats",
    "parse_conn_log",
    "read_conn_log",
    "write_canonical_tsv",
]


class ParseError(ValueError):
    """A malformed row, or a log header the parser cannot use.

    ``reason`` is the skip category of a malformed row (a key of
    :attr:`ParseStats.reasons`); header errors carry None. ``line`` is None
    for a record refused outside a log reader.
    """

    def __init__(
        self, message: str, line: int | None = None, reason: str | None = None
    ):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.reason = reason


# Canonical forms of IP and protocol strings, memoized: a log repeats a few
# hundred hosts and a handful of protocols across all its rows, and its
# records then share one string object per distinct value.
@lru_cache(maxsize=1 << 16)
def _canonical_ip_text(text: str) -> str:
    return str(ip_address(text))


@lru_cache(maxsize=1 << 16)
def _canonical_token(text: str) -> str:
    # A token that is no string, or that the canonical dump would write as an
    # unset marker or split across cells or lines, would not read back as
    # itself. Only accepted tokens are cached, so the checks run once each.
    if type(text) is str:
        token = text.strip().lower()
        if token not in ("-", "(empty)") and not any(c in token for c in "\t\r\n"):
            return token
    raise ParseError(f"bad protocol_service: {text!r}", reason="bad token")


def _canonical_service(value) -> str:
    """A record's ``protocol_service``: its canonical token, which must not
    be empty."""
    token = _canonical_token(value)
    if not token:
        raise ParseError("empty protocol_service", reason="missing field")
    return token


def _canonical_ip(name: str, value) -> str:
    # Only exact strings go through the memo: 1, True and 1.0 hash alike,
    # so a cached int could otherwise vouch for a float.
    try:
        if type(value) is str:
            return _canonical_ip_text(value)
        return str(ip_address(value))
    except ValueError:
        raise ParseError(f"bad {name}: {value!r}", reason="bad IP") from None


# Ports and counters must be plain ints: a bool passes isinstance(v, int),
# but its canonical dump "True" is no integer the readers accept.
def _check_port(name: str, value) -> None:
    if type(value) is not int or not 0 <= value <= 65535:
        raise ParseError(f"{name}={value!r} outside [0, 65535]", reason="out of range")


def _check_count(name: str, value) -> None:
    if type(value) is not int or value < 0:
        raise ParseError(
            f"{name}={value!r} must be a non-negative integer", reason="out of range"
        )


def _as_float(name: str, value) -> float:
    # A ts or duration the readers did not pass as a float: a real number
    # other than a bool (whose dump "True" reads back as no float).
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ParseError(f"bad {name}: {value!r}", reason="bad float")
    try:
        return float(value)
    except OverflowError:  # an int past float range
        raise ParseError(f"{name} is past float range", reason="non-finite") from None


@dataclass(frozen=True, init=False)
class ConnRecord:
    """One flow log row, validated and normalized.

    IPs are stored in canonical string form, ports lie in [0, 65535],
    counters are non-negative integers, and ``protocol_service`` is a
    non-empty lowercase string other than ``-`` and ``(empty)`` that holds no
    tab, CR or LF. ``bytes`` equals
    ``request_bytes + response_bytes`` whenever the source log had no
    combined byte column; a refused field raises :class:`ParseError`.
    """

    ts: float
    source_ip: str
    destination_ip: str
    source_port: int
    destination_port: int
    protocol_service: str
    duration: float
    request_bytes: int
    response_bytes: int
    bytes: int
    request_packets: int
    response_packets: int
    request_ip_bytes: int
    response_ip_bytes: int

    def __init__(
        self, ts: float, source_ip: str, destination_ip: str, source_port: int,
        destination_port: int, protocol_service: str, duration: float,
        request_bytes: int, response_bytes: int, bytes: int, request_packets: int,
        response_packets: int, request_ip_bytes: int, response_ip_bytes: int,
    ):
        # Check everything first, then store each canonical value.
        source_ip = _canonical_ip("source_ip", source_ip)
        destination_ip = _canonical_ip("destination_ip", destination_ip)
        _check_port("source_port", source_port)
        _check_port("destination_port", destination_port)
        _check_count("request_bytes", request_bytes)
        _check_count("response_bytes", response_bytes)
        _check_count("bytes", bytes)
        _check_count("request_packets", request_packets)
        _check_count("response_packets", response_packets)
        _check_count("request_ip_bytes", request_ip_bytes)
        _check_count("response_ip_bytes", response_ip_bytes)
        if not math.isfinite(ts if type(ts) is float else _as_float("ts", ts)):
            raise ParseError(f"ts={ts!r} must be finite", reason="non-finite")
        if not math.isfinite(
            duration if type(duration) is float else _as_float("duration", duration)
        ):
            raise ParseError(
                f"duration={duration!r} must be finite", reason="non-finite"
            )
        if duration < 0:
            raise ParseError(
                f"duration={duration!r} is negative", reason="out of range"
            )
        token = _canonical_service(protocol_service)
        _fill(
            self, ts, source_ip, destination_ip, source_port, destination_port, token,
            duration, request_bytes, response_bytes, bytes, request_packets,
            response_packets, request_ip_bytes, response_ip_bytes,
        )


def _fill(
    record, ts, source_ip, destination_ip, source_port, destination_port,
    protocol_service, duration, request_bytes, response_bytes, bytes,
    request_packets, response_packets, request_ip_bytes, response_ip_bytes,
) -> ConnRecord:
    """Store a record's checked, canonical field values, with no check: each
    once, in field order, through object.__setattr__, so that the instances
    keep the compact shared-key attribute layout a dataclass __init__
    gives."""
    store = object.__setattr__
    store(record, "ts", ts)
    store(record, "source_ip", source_ip)
    store(record, "destination_ip", destination_ip)
    store(record, "source_port", source_port)
    store(record, "destination_port", destination_port)
    store(record, "protocol_service", protocol_service)
    store(record, "duration", duration)
    store(record, "request_bytes", request_bytes)
    store(record, "response_bytes", response_bytes)
    store(record, "bytes", bytes)
    store(record, "request_packets", request_packets)
    store(record, "response_packets", response_packets)
    store(record, "request_ip_bytes", request_ip_bytes)
    store(record, "response_ip_bytes", response_ip_bytes)
    return record


@dataclass
class ParseStats:
    """Row accounting for one parse. ``read == emitted + skipped`` once the
    record stream has been fully consumed.

    ``reasons`` counts the skipped rows per cause, so its values sum to
    ``skipped``. The keys are ``column count``, ``missing field``,
    ``bad integer``, ``bad float``, ``bad IP``, ``out of range``,
    ``non-finite``, ``bad token`` (a protocol service that the canonical dump
    cannot write back), ``bad JSON`` and ``bad UTF-8`` (a line read from a path
    or as bytes that does not decode); a cause that never occurred is absent.
    """

    read: int = 0
    emitted: int = 0
    skipped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def _skip(self, reason: str) -> None:
        self.skipped += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


# The one record schema, in canonical dump order: (record attribute,
# canonical dump column, Zeek conn.log column or None). Timestamp first, then
# the flow fields; reparsing a canonical dump reproduces the records exactly.
_SCHEMA = (
    ("ts", "ts", "ts"),
    ("source_ip", "sourceIP", "id.orig_h"),
    ("destination_ip", "destinationIP", "id.resp_h"),
    ("source_port", "sourcePort", "id.orig_p"),
    ("destination_port", "destinationPort", "id.resp_p"),
    ("protocol_service", "protocolService", None),
    ("response_bytes", "responseBytes", "resp_bytes"),
    ("request_bytes", "requestBytes", "orig_bytes"),
    ("duration", "duration", "duration"),
    ("bytes", "bytes", None),
    ("response_packets", "responsePackets", "resp_pkts"),
    ("request_packets", "requestPackets", "orig_pkts"),
    ("response_ip_bytes", "responseIPBytes", "resp_ip_bytes"),
    ("request_ip_bytes", "requestIPBytes", "orig_ip_bytes"),
)
CANONICAL_FIELDS = tuple(column for _, column, _ in _SCHEMA)
_CANONICAL_ATTRS = tuple(attr for attr, _, _ in _SCHEMA)
# The traffic counters: every schema field after the protocol token.
NUMERIC_FEATURES = _CANONICAL_ATTRS[_CANONICAL_ATTRS.index("protocol_service") + 1 :]

# Column/key aliases accepted on input: Zeek native names and canonical dump
# names, so dumps reparse with the same code path. Zeek's ``proto`` and
# ``service`` are kept apart for :func:`_record_from` to pick the token from.
# Unknown columns are ignored.
_FIELD_ALIASES = {
    **{column: attr for attr, column, _ in _SCHEMA},
    **{zeek: attr for attr, _, zeek in _SCHEMA if zeek},
    "proto": "proto",
    "service": "service",
}
# A row source yields one value per slot, in this order, None where the row
# has none: the record's fields in constructor order, then Zeek's two token
# columns. :func:`_record_from` unpacks a row in exactly this order; the
# schema's dump order above does not matter to parsing.
_SLOTS = (
    "ts", "source_ip", "destination_ip", "source_port", "destination_port",
    "protocol_service", "duration", "request_bytes", "response_bytes", "bytes",
    "request_packets", "response_packets", "request_ip_bytes", "response_ip_bytes",
    "proto", "service",
)
if set(_SLOTS[:-2]) != set(_CANONICAL_ATTRS):
    raise AssertionError("_SLOTS must name each schema attribute once")
_SLOT_INDEX = {alias: _SLOTS.index(slot) for alias, slot in _FIELD_ALIASES.items()}
_SLOT = {slot: i for i, slot in enumerate(_SLOTS)}
_REQUIRED = ("ts", "source_ip", "destination_ip")
# ConnRecord's fields in constructor order, and each one's FlowTable column
# type: strings are int32 codes into the table's string tuples, and a counter
# column is int64 unless a value lies past int64 (then it holds Python ints).
_FIELDS = _SLOTS[:-2]
_IP_FIELDS = ("source_ip", "destination_ip")
_COUNTERS = _FIELDS[_FIELDS.index("duration") + 1 :]
_DTYPES = {
    "ts": np.float64,
    "source_ip": np.int32,
    "destination_ip": np.int32,
    "source_port": np.int32,
    "destination_port": np.int32,
    "protocol_service": np.int32,
    "duration": np.float64,
    **{attr: np.int64 for attr in _COUNTERS},
}
# Rows per block: a parse holds one block's cell strings at a time.
_BLOCK_ROWS = 2048

Source = Union[str, Path, IO, Iterable]


class FlowTable(Sequence):
    """Validated flows as NumPy columns, one per :class:`ConnRecord` field.

    :meth:`column` returns a field's column: ``ts`` and ``duration`` are
    float64, the ports int32, and each counter int64, or an object array of
    Python ints when one of its values lies past int64. ``source_ip`` and
    ``destination_ip`` hold int32 codes into :attr:`ips`, and
    ``protocol_service`` int32 codes into :attr:`tokens`; both are tuples of
    canonical strings, and may hold strings no row uses (those of rows a
    slice left out, or of a refused row). Treat the columns as read-only.

    The table is a read-only ``Sequence[ConnRecord]``: an index builds that
    row's record; a slice, a boolean mask or an array of row indices is a
    table; iteration builds records a block at a time. ``==`` compares row
    by row with any sequence of records, and with another table column by
    column, each reading its strings through its own tuples; either way it
    equals ``list(a) == list(b)``. ``+`` with a sequence of records on either
    side returns a new table of both operands' records in order. It is no
    list: ``list(table)`` gives one.
    """

    __hash__ = None

    def __init__(
        self, ips: Iterable[str], tokens: Iterable[str], columns: Mapping[str, np.ndarray]
    ):
        self.ips = tuple(ips)
        self.tokens = tuple(tokens)
        self._columns = {attr: columns[attr] for attr in _FIELDS}

    @classmethod
    def from_records(cls, records: Iterable[ConnRecord]) -> "FlowTable":
        """The table of ``records``, read one attribute column at a time (no
        object per row, so no work for the cyclic collector); a table is
        returned as it is."""
        if isinstance(records, FlowTable):
            return records
        records = list(records)
        ips: dict[str, int] = {}
        tokens: dict[str, int] = {}
        columns = {}
        for attr in _FIELDS:
            values = list(map(attrgetter(attr), records))
            if attr == "protocol_service":
                columns[attr] = _codes(values, tokens)
            elif attr in _IP_FIELDS:
                columns[attr] = _codes(values, ips)
            elif attr in _COUNTERS:
                columns[attr] = _int_column(values)
            else:
                columns[attr] = np.array(values, dtype=_DTYPES[attr])
        return cls(ips, tokens, columns)

    @classmethod
    def concat(cls, tables: Iterable["FlowTable"]) -> "FlowTable":
        """One table of the rows of ``tables`` in order, with their string
        tables merged."""
        ips: dict[str, int] = {}
        tokens: dict[str, int] = {}
        parts = []
        for table in tables:
            columns = dict(table._columns)
            recode = _codes(table.ips, ips)
            for attr in _IP_FIELDS:
                columns[attr] = recode[columns[attr]]
            recode = _codes(table.tokens, tokens)
            columns["protocol_service"] = recode[columns["protocol_service"]]
            parts.append(columns)
        return cls(ips, tokens, {
            attr: np.concatenate([part[attr] for part in parts])
            if parts else np.empty(0, _DTYPES[attr])
            for attr in _FIELDS
        })

    def column(self, attr: str) -> np.ndarray:
        return self._columns[attr]

    def __len__(self) -> int:
        return len(self._columns["ts"])

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return FlowTable(
                self.ips, self.tokens, {a: c[index] for a, c in self._columns.items()}
            )
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __iter__(self) -> Iterator[ConnRecord]:
        names = {"source_ip": self.ips, "destination_ip": self.ips,
                 "protocol_service": self.tokens}
        for start in range(0, len(self), _BLOCK_ROWS):
            fields = []
            for attr, column in self._columns.items():
                values = column[start : start + _BLOCK_ROWS].tolist()
                if attr in names:
                    values = list(map(names[attr].__getitem__, values))
                fields.append(values)
            # The columns hold checked values: the records skip the checks.
            blank = map(object.__new__, repeat(ConnRecord, len(fields[0])))
            yield from map(_fill, blank, *fields)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        if len(self) != len(other):
            return False
        if not isinstance(other, FlowTable):
            return all(map(eq, self, other))
        # Each code of this table's strings as a code of the other's, or -1.
        ips = _recode(self.ips, other.ips)
        tokens = _recode(self.tokens, other.tokens)
        for attr, column in self._columns.items():
            if attr in _IP_FIELDS:
                column = ips[column]
            elif attr == "protocol_service":
                column = tokens[column]
            if not np.all(column == other._columns[attr]):
                return False
        return True

    def __add__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return FlowTable.concat([self, FlowTable.from_records(other)])

    def __radd__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return FlowTable.concat([FlowTable.from_records(other), self])

    def __repr__(self) -> str:
        return f"FlowTable({len(self)} rows, {len(self.ips)} IPs, {len(self.tokens)} tokens)"


def parse_conn_log(
    source: Source, format: str = "auto", strict: bool = False
) -> tuple[Iterator[ConnRecord], ParseStats]:
    """Parse a conn.log into a lazy record stream plus row statistics.

    ``source`` may be a path, an open file, or an iterable of lines.
    ``format`` is ``"tsv"``, ``"jsonl"`` or ``"auto"`` (sniffs the first
    non-blank line). In lenient mode (default) malformed rows are counted in
    ``stats.skipped``; with ``strict=True`` the first bad row raises
    :class:`ParseError` carrying its line number.

    The stream reads the log one block of rows at a time, as
    :func:`read_conn_log` does, and holds one block's rows and strings at a
    time; the stats object advances row by row as records are pulled.
    """
    stats = ParseStats()
    return _records(_open_blocks(source, format), strict, stats), stats


def read_conn_log(
    source: Source, format: str = "auto", strict: bool = False
) -> tuple[FlowTable, ParseStats]:
    """Parse a whole conn.log into a :class:`FlowTable` plus row statistics.

    Arguments, rows, records and statistics are those of
    :func:`parse_conn_log`. Each block of TSV rows is converted a column at
    a time; only a row that some column refuses goes through the per-row
    path, which names the row's first bad cell. No record is built per TSV
    row. The table is no list; ``list(table)`` gives one.
    """
    stats = ParseStats()
    tables = []
    with closing(_open_blocks(source, format)) as blocks:
        for lines, refused, rows in blocks:
            stats.read += len(lines)
            for i, exc in refused.items():
                _settle(stats, strict, lines[i], exc)
            stats.emitted += len(rows)
            tables.append(FlowTable.from_records(rows))
    return FlowTable.concat(tables), stats


def write_canonical_tsv(records: Iterable[ConnRecord], fp: IO[str]) -> int:
    """Write records in the canonical TSV dump format. Returns the row count.

    Floats are rendered with ``repr`` so reparsing restores them bit-exactly.
    """
    fp.write("#separator \\x09\n")
    fp.write("#fields\t" + "\t".join(CANONICAL_FIELDS) + "\n")
    count = 0
    for record in records:
        cells = []
        for attr in _CANONICAL_ATTRS:
            value = getattr(record, attr)
            cells.append(repr(value) if isinstance(value, float) else str(value))
        fp.write("\t".join(cells) + "\n")
        count += 1
    return count


def _codes(values, codes: dict) -> np.ndarray:
    """The int32 codes of ``values`` in ``codes``, adding each new value."""
    for value in dict.fromkeys(values):
        codes.setdefault(value, len(codes))
    return np.array(list(map(codes.__getitem__, values)), dtype=np.int32)


def _recode(strings: tuple, into: tuple) -> np.ndarray:
    """Each of ``strings``' code in ``into``, or -1 where it has none."""
    codes = {value: i for i, value in enumerate(into)}
    return np.array([codes.get(value, -1) for value in strings], dtype=np.int64)


def _int_column(values: list) -> np.ndarray:
    """int64, or Python ints in an object array when one lies past int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _settle(stats: ParseStats, strict: bool, line_no: int, exc: ParseError) -> None:
    """Count a refused row, or in strict mode raise it with its line number."""
    if strict:
        raise ParseError(str(exc), line_no, exc.reason) from None
    stats._skip(exc.reason)


def _records(blocks, strict: bool, stats: ParseStats):
    """The rows of each block in order: emit a record, skip, or (strict) raise."""
    with closing(blocks):
        for lines, refused, rows in blocks:
            records = iter(rows)
            for i, line_no in enumerate(lines):
                stats.read += 1
                exc = refused.get(i)
                if exc is None:
                    stats.emitted += 1
                    yield next(records)
                else:
                    _settle(stats, strict, line_no, exc)


def _numbered_lines(source: Source):
    """Return (owned file or None, iterator of (line number, str line)).
    Only the lines of a text stream skip :func:`_utf8_lines`."""
    if isinstance(source, (str, Path)):
        # Bad bytes become lone surrogates; line splitting stays text mode's.
        fp = open(source, encoding="utf-8", errors="surrogateescape", newline="")
        return fp, _utf8_lines(fp)
    if isinstance(source, io.TextIOBase):
        return None, enumerate(source, 1)
    return None, _utf8_lines(source)


def _utf8_lines(lines):
    """Number the lines and decode bytes. A line that is not UTF-8 comes as
    the ParseError (reason ``bad UTF-8``) that refuses it as a row, in place
    of its text."""
    for line_no, line in enumerate(lines, 1):
        try:
            if isinstance(line, (bytes, bytearray)):
                line = line.decode("utf-8")
            elif not line.isascii():
                line.encode("utf-8")
        except UnicodeError:
            line = ParseError("line is not UTF-8", reason="bad UTF-8")
        yield line_no, line


def _open_blocks(source: Source, format: str):
    """Check ``format`` and open ``source`` now, so that a missing file fails
    at call time, not on the first pull; return the lazy block stream."""
    if format not in ("auto", "tsv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    owned, numbered = _numbered_lines(source)
    return _blocks(owned, numbered, format)


def _blocks(owned, numbered, format: str) -> Iterator[tuple]:
    """The one block loop: convert each block of rows a source yields into
    its rows' line numbers, the refused rows by index with the error that
    names their first bad cell, and the other rows' records in order (a
    :class:`FlowTable` for TSV, a list for JSON lines)."""
    try:
        if format == "auto":
            format, passed = "tsv", []
            for item in numbered:
                passed.append(item)
                if isinstance(item[1], str) and item[1].strip():
                    format = "jsonl" if item[1].lstrip()[0] == "{" else "tsv"
                    break
            numbered = chain(passed, numbered)
        if format == "tsv":
            for plan, lines, refused, texts in _tsv_blocks(numbered):
                yield (lines, *_tsv_block(plan, len(lines), refused, texts))
        else:
            for lines, rows in _jsonl_blocks(numbered):
                yield (lines, *_row_block(rows))
    finally:
        if owned is not None:
            owned.close()


def _row_block(rows: list) -> tuple[dict, list]:
    """Convert a block row by row: each row is its slot values, or the
    ParseError that already refuses it."""
    refused: dict[int, ParseError] = {}
    records = []
    for i, row in enumerate(rows):
        if isinstance(row, ParseError):
            refused[i] = row
            continue
        try:
            records.append(_record_from(row))
        except ParseError as exc:
            refused[i] = _detached(exc)
    return refused, records


def _parse_separator(line: str, line_no: int) -> str:
    parts = line.split(None, 1)
    if len(parts) != 2 or not parts[1].strip():
        raise ParseError("bad #separator directive", line_no)
    token = parts[1].strip()
    if token.startswith("\\x"):
        try:
            return chr(int(token[2:], 16))
        except ValueError:
            raise ParseError(f"bad #separator escape {token!r}", line_no) from None
    return token


class _Plan(NamedTuple):
    """How the rows under one ``#fields`` header are read: the separator,
    the column count, each slot's last column (``width`` for a slot without
    one), the earlier columns of each duplicated slot, last first, and the
    unset and empty markers in force."""

    sep: str
    width: int
    where: tuple[int, ...]
    fallbacks: tuple[tuple[int, tuple[int, ...]], ...]
    unset: str
    empty: str


def _plan(sep: str, columns: list[str], unset: str, empty: str) -> _Plan:
    found: dict[int, list[int]] = {}
    for i, col in enumerate(columns):
        if col in _SLOT_INDEX:
            found.setdefault(_SLOT_INDEX[col], []).append(i)
    where = [len(columns)] * len(_SLOTS)
    for slot, indices in found.items():
        where[slot] = indices[-1]
    fallbacks = tuple(
        (slot, tuple(indices[-2::-1])) for slot, indices in found.items() if len(indices) > 1
    )
    return _Plan(sep, len(columns), tuple(where), fallbacks, unset, empty)


def _tsv_blocks(numbered):
    """Yield (plan, line numbers, refused rows by index, the other rows'
    text) per block of TSV data rows. A block ends after ``_BLOCK_ROWS``
    rows and at every header line, so one plan reads all its rows. A row is
    refused here for its column count, or for not being UTF-8. A header the
    rows cannot be read with raises once the rows before it are yielded."""
    sep, unset, empty = "\t", "-", "(empty)"
    columns: list[str] | None = None
    plan = None
    lines: list[int] = []
    refused: dict[int, ParseError] = {}
    texts: list[str] = []
    for line_no, raw in numbered:
        if isinstance(raw, ParseError):
            refused[len(lines)] = raw
        else:
            line = raw.rstrip("\r\n")
            if not line:
                continue
            if line.startswith("#") or plan is None:
                if lines:
                    yield plan, lines, refused, texts
                    lines, refused, texts = [], {}, []
                if not line.startswith("#"):
                    # Unusable header is fatal even in lenient mode.
                    raise ParseError("data row before #fields header", line_no)
                if line.startswith("#separator"):
                    sep = _parse_separator(line, line_no)
                else:
                    body = line[1:].split(sep)
                    name, values = body[0], body[1:]
                    if name == "fields":
                        columns = [v for v in values if v]
                    elif name == "unset_field" and values:
                        unset = values[0]
                    elif name == "empty_field" and values:
                        empty = values[0]
                if columns is not None:
                    plan = _plan(sep, columns, unset, empty)
                continue
            width = line.count(plan.sep) + 1
            if width == plan.width:
                texts.append(line)
            else:
                refused[len(lines)] = ParseError(
                    f"expected {plan.width} columns, got {width}", reason="column count"
                )
        lines.append(line_no)
        if len(lines) == _BLOCK_ROWS:
            yield plan, lines, refused, texts
            lines, refused, texts = [], {}, []
    if lines:
        yield plan, lines, refused, texts


def _slot_values(plan: _Plan, text: str) -> list:
    """One TSV row's slot values, None where unset, empty or absent. A slot
    reads its last column; only if that cell is unset does it fall back to
    its earlier duplicate columns, last first."""
    markers = (plan.unset, plan.empty)
    cells = text.split(plan.sep)
    padded = cells + [None]
    values = [None if padded[i] in markers else padded[i] for i in plan.where]
    for slot, earlier in plan.fallbacks:
        if values[slot] is None:
            for i in earlier:
                if cells[i] not in markers:
                    values[slot] = cells[i]
                    break
    return values


def _tsv_block(
    plan: _Plan | None, n: int, refused: dict, texts: list[str]
) -> tuple[dict, FlowTable]:
    """Convert a block of ``n`` TSV rows a column at a time: the rows not
    yet refused are ``texts``.

    Each column is converted and checked as a whole, to the rules that
    :func:`_record_from` and :class:`ConnRecord` apply to one row. A row that
    some column refuses goes to :func:`_refusals`, which rebuilds it through
    :func:`_record_from` for the error that names its first bad cell."""
    rows = [i for i in range(n) if i not in refused] if refused else range(n)
    if not texts:
        return refused, FlowTable.from_records([])
    sep, width = plan.sep, plan.width
    joined = sep.join(texts)
    # One split for the block; a longer separator could straddle two rows.
    flat = joined.split(sep) if len(sep) == 1 else [
        cell for text in texts for cell in text.split(sep)
    ]
    cols = [flat[i::width] for i in range(width)]
    # Markers that fill a whole cell somewhere in the block.
    framed = sep + joined + sep
    markers = {m for m in (plan.unset, plan.empty) if sep + m + sep in framed}

    def unset(column: list) -> np.ndarray | None:
        """Which cells hold a marker, or None when none does."""
        if any(m in column for m in markers):
            return np.fromiter(map(markers.__contains__, column), dtype=bool, count=len(column))
        return None

    # Each slot's cells: its last column's, and as in _slot_values, where
    # that cell holds a marker, the first of its earlier columns' that does
    # not.
    slot_cells = [cols[i] if i < width else None for i in plan.where]
    for slot, earlier in plan.fallbacks:
        marked = unset(slot_cells[slot])
        if marked is not None:
            column = slot_cells[slot] = list(slot_cells[slot])
            for r in np.flatnonzero(marked).tolist():
                column[r] = next((cols[i][r] for i in earlier if cols[i][r] not in markers), column[r])

    def cells(attr: str) -> list | None:
        return slot_cells[_SLOT[attr]]

    if any(cells(attr) is None for attr in _REQUIRED):  # no row has them all
        return _refusals(plan, texts, rows, range(len(texts)), refused), FlowTable.from_records([])
    zero = dict.fromkeys(markers, "0")
    bad = np.zeros(len(texts), dtype=bool)

    def numbers(attr: str, convert) -> list:
        column = cells(attr)
        if column is None:
            return [0] * len(texts)
        if markers:
            column = map(zero.get, column, column)
        return _converted(convert, column, bad)

    out: dict[str, np.ndarray] = {}
    for attr in ("ts", "duration"):
        out[attr] = values = np.array(numbers(attr, float), dtype=np.float64)
        bad |= ~np.isfinite(values)
    bad |= out["duration"] < 0
    for attr in ("source_port", "destination_port"):
        out[attr] = values = _int_column(numbers(attr, int))
        bad |= (values < 0) | (values > 65535)
    for attr in _COUNTERS:
        if attr != "bytes":
            out[attr] = values = _int_column(numbers(attr, int))
            bad |= values < 0
    total = _sum(out["request_bytes"], out["response_bytes"])
    if cells("bytes") is not None:
        marked = unset(cells("bytes"))
        given = _int_column(numbers("bytes", int))
        total = given if marked is None else np.where(marked, total, given)
    out["bytes"] = total
    bad |= total < 0
    for attr in ("ts", *_IP_FIELDS):
        marked = unset(cells(attr))
        if marked is not None:
            bad |= marked  # a missing required field
    ips: dict[str, int] = {}
    # Each distinct IP cell of the block, read once: its code in ips, or -1.
    ip_cells = dict.fromkeys(chain(*map(cells, _IP_FIELDS)))
    cell_codes = {cell: _ip_code(cell, ips) for cell in ip_cells}
    for attr in _IP_FIELDS:
        out[attr] = values = np.array(list(map(cell_codes.__getitem__, cells(attr))), dtype=np.int32)
        bad |= values < 0
    tokens: dict[str, int] = {}
    out["protocol_service"] = values = _token_codes(
        tokens, [cells(a) for a in ("protocol_service", "service", "proto")], markers,
        len(texts),
    )
    bad |= values < 0

    if bad.any():
        refused = _refusals(plan, texts, rows, np.flatnonzero(bad).tolist(), refused)
        keep = ~bad
        out = {attr: values[keep] for attr, values in out.items()}
        for attr in _COUNTERS:
            if out[attr].dtype == object:  # its value past int64 may be gone
                out[attr] = _int_column(out[attr].tolist())
    for attr in ("source_port", "destination_port"):
        out[attr] = out[attr].astype(np.int32)
    return refused, FlowTable(ips, tokens, out)


def _refusals(plan: _Plan, texts: list[str], rows, bad: Iterable[int], refused: dict) -> dict:
    """``refused`` and, for each index into ``texts`` in ``bad``, the
    ParseError that :func:`_record_from` refuses that row with, by row."""
    refused = dict(refused)
    for j in bad:
        try:
            _record_from(_slot_values(plan, texts[j]))
        except ParseError as exc:
            refused[rows[j]] = _detached(exc)
        else:
            raise AssertionError(f"the column checks refuse a valid row: {texts[j]!r}")
    return dict(sorted(refused.items()))


def _ip_code(cell: str, ips: dict[str, int]) -> int:
    """The code in ``ips`` of a TSV cell's canonical IP, adding it if new;
    -1 if the cell holds no IP."""
    try:
        return ips.setdefault(_canonical_ip_text(cell.strip()), len(ips))
    except ValueError:
        return -1


def _detached(exc: ParseError) -> ParseError:
    """A copy of a caught error to keep: the raised one's traceback and
    context reach the catching frame, whose locals would then stay alive in
    a reference cycle until the cyclic collector runs."""
    return ParseError(str(exc), reason=exc.reason)


def _converted(convert, cells, bad: np.ndarray) -> list:
    """``convert`` applied to each cell; a cell it refuses marks its row in
    ``bad`` and reads 0."""
    out: list = []
    cells = iter(cells)
    while True:
        try:
            out.extend(map(convert, cells))
            return out
        except ValueError:
            bad[len(out)] = True
            out.append(0)


def _sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``, exact: in Python ints when it could pass int64."""
    if a.dtype == object or b.dtype == object or (
        len(a) and int(a.max()) + int(b.max()) > np.iinfo(np.int64).max
    ):
        return a.astype(object) + b.astype(object)
    return a + b


def _token_codes(tokens: dict[str, int], columns: list, markers: set, n: int) -> np.ndarray:
    """Each of ``n`` rows' token code from its protocol-service, service and
    proto cells (each column may be None): the code in ``tokens`` of the
    first set cell's canonical token, or of ``unknown``, adding it if new;
    -1 for a token that :class:`ConnRecord` refuses. Each distinct
    combination of cells is resolved once."""
    present = [column for column in columns if column is not None]
    combos = list(zip(*present)) if present else [()] * n
    codes = {}
    for combo in dict.fromkeys(combos):
        token = next((c for c in combo if c and c not in markers), "unknown")
        try:
            token = _canonical_token(token)
        except ParseError:
            token = ""
        codes[combo] = tokens.setdefault(token, len(tokens)) if token else -1
    return np.array(list(map(codes.__getitem__, combos)), dtype=np.int32)


def _jsonl_blocks(numbered):
    """Yield (line numbers, rows) per block of JSON lines; a row is its slot
    values or the ParseError that refuses it."""
    lines: list[int] = []
    rows: list = []
    for line_no, raw in numbered:
        if not isinstance(raw, ParseError):
            line = raw.strip()
            if not line:
                continue
            raw = _json_row(line)
        lines.append(line_no)
        rows.append(raw)
        if len(rows) == _BLOCK_ROWS:
            yield lines, rows
            lines, rows = [], []
    if rows:
        yield lines, rows


def _json_row(line: str):
    try:
        obj = json.loads(line)
    except ValueError as exc:  # also a number past the int digit limit
        return ParseError(f"bad JSON: {exc}", reason="bad JSON")
    if not isinstance(obj, dict):
        return ParseError("row is not a JSON object", reason="bad JSON")
    values = [None] * len(_SLOTS)
    for key, val in obj.items():
        if key in _SLOT_INDEX and val is not None and val != "-":
            values[_SLOT_INDEX[key]] = val
    return values


def _float(value, name: str) -> float:
    if value is None:
        return 0.0
    try:
        return float(value)
    except OverflowError:  # an int past float range, as its text would read
        return math.inf
    except (TypeError, ValueError):
        raise ParseError(f"bad {name}: {value!r}", reason="bad float") from None


def _int(value, name: str) -> int:
    if value is None:
        return 0
    try:
        if isinstance(value, str):
            # int() strips surrounding whitespace itself.
            return int(value, 10)
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if not value.is_integer():
                raise ValueError
            return int(value)
        return int(str(value).strip(), 10)
    except (TypeError, ValueError):
        raise ParseError(
            f"bad integer {name}: {value!r}", reason="bad integer"
        ) from None


def _record_from(values) -> ConnRecord:
    """Build one row's record from its slot values (None where absent).

    Fields convert one by one in a fixed order, so a row's first bad cell
    names the error.
    """
    (ts, source_ip, destination_ip, source_port, destination_port, protocol_service,
     duration, request_bytes, response_bytes, total_bytes, request_packets,
     response_packets, request_ip_bytes, response_ip_bytes, proto, service) = values
    if ts is None or source_ip is None or destination_ip is None:
        name = _REQUIRED[(ts, source_ip, destination_ip).index(None)]
        raise ParseError(f"missing required field {name}", reason="missing field")
    token = protocol_service or service or proto or "unknown"
    req_b = _int(request_bytes, "request_bytes")
    resp_b = _int(response_bytes, "response_bytes")
    total = req_b + resp_b if total_bytes is None else _int(total_bytes, "bytes")
    return ConnRecord(
        _float(ts, "ts"),
        str(source_ip).strip(),
        str(destination_ip).strip(),
        _int(source_port, "source_port"),
        _int(destination_port, "destination_port"),
        str(token),
        _float(duration, "duration"),
        req_b,
        resp_b,
        total,
        _int(request_packets, "request_packets"),
        _int(response_packets, "response_packets"),
        _int(request_ip_bytes, "request_ip_bytes"),
        _int(response_ip_bytes, "response_ip_bytes"),
    )

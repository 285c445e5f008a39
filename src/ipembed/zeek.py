"""Zeek conn.log ingestion.

Reads the TSV and JSON-lines variants of conn.log and yields validated flow
records in a single pass with O(1) memory. Also implements the canonical TSV
dump format used for fixtures and lossless round-trips.

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
from dataclasses import dataclass, field
from functools import lru_cache
from ipaddress import ip_address
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

__all__ = [
    "CANONICAL_FIELDS",
    "NUMERIC_FEATURES",
    "ConnRecord",
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
        # Check everything first, then store each canonical value once, in
        # field order, through object.__setattr__: the instances then keep
        # the compact shared-key attribute layout a dataclass __init__ gives.
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
        token = _canonical_token(protocol_service)
        if not token:
            raise ParseError("empty protocol_service", reason="missing field")
        store = object.__setattr__
        store(self, "ts", ts)
        store(self, "source_ip", source_ip)
        store(self, "destination_ip", destination_ip)
        store(self, "source_port", source_port)
        store(self, "destination_port", destination_port)
        store(self, "protocol_service", token)
        store(self, "duration", duration)
        store(self, "request_bytes", request_bytes)
        store(self, "response_bytes", response_bytes)
        store(self, "bytes", bytes)
        store(self, "request_packets", request_packets)
        store(self, "response_packets", response_packets)
        store(self, "request_ip_bytes", request_ip_bytes)
        store(self, "response_ip_bytes", response_ip_bytes)


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
_REQUIRED = ("ts", "source_ip", "destination_ip")

Source = Union[str, Path, IO, Iterable]


def parse_conn_log(
    source: Source, format: str = "auto", strict: bool = False
) -> tuple[Iterator[ConnRecord], ParseStats]:
    """Parse a conn.log into a lazy record stream plus row statistics.

    ``source`` may be a path, an open file, or an iterable of lines.
    ``format`` is ``"tsv"``, ``"jsonl"`` or ``"auto"`` (sniffs the first
    non-blank line). In lenient mode (default) malformed rows are counted in
    ``stats.skipped``; with ``strict=True`` the first bad row raises
    :class:`ParseError` carrying its line number. The stats object fills in
    as the stream is consumed.
    """
    if format not in ("auto", "tsv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    stats = ParseStats()
    # Open the source now so a missing file fails at call time, not on the
    # first pull from the stream.
    owned, numbered = _numbered_lines(source, strict, stats)
    return _parse(owned, numbered, format, strict, stats), stats


def read_conn_log(
    source: Source, format: str = "auto", strict: bool = False
) -> tuple[list[ConnRecord], ParseStats]:
    """Eager variant of :func:`parse_conn_log`."""
    records, stats = parse_conn_log(source, format, strict)
    return list(records), stats


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


def _numbered_lines(source: Source, strict: bool, stats: ParseStats):
    """Return (owned file or None, iterator of (line number, str line)).
    Only the lines of a text stream skip :func:`_utf8_lines`."""
    if isinstance(source, (str, Path)):
        # Bad bytes become lone surrogates; line splitting stays text mode's.
        fp = open(source, encoding="utf-8", errors="surrogateescape", newline="")
        return fp, _utf8_lines(fp, strict, stats)
    if isinstance(source, io.TextIOBase):
        return None, enumerate(source, 1)
    return None, _utf8_lines(source, strict, stats)


def _utf8_lines(lines, strict, stats):
    """Number the lines and decode bytes; a line that is not UTF-8 is a row
    skipped for ``bad UTF-8``, or a :class:`ParseError` in strict mode."""
    for line_no, line in enumerate(lines, 1):
        try:
            if isinstance(line, (bytes, bytearray)):
                line = line.decode("utf-8")
            elif not line.isascii():
                line.encode("utf-8")
        except UnicodeError:
            if strict:
                raise ParseError("line is not UTF-8", line_no, "bad UTF-8") from None
            stats.read += 1
            stats._skip("bad UTF-8")
            continue
        yield line_no, line


def _parse(owned, numbered, format, strict, stats):
    """The one row loop: emit, skip or (strict) raise each row a source yields."""
    try:
        fmt = format
        if fmt == "auto":
            head = None
            for item in numbered:
                if item[1].strip():
                    head = item
                    break
            if head is None:
                return
            fmt = "jsonl" if head[1].lstrip()[0] == "{" else "tsv"
            numbered = chain([head], numbered)
        rows = _tsv_rows(numbered) if fmt == "tsv" else _jsonl_rows(numbered)
        for line_no, row in rows:
            stats.read += 1
            try:
                if isinstance(row, ParseError):
                    raise row
                record = _record_from(row)
            except ParseError as exc:
                if strict:
                    raise ParseError(str(exc), line_no, exc.reason) from None
                stats._skip(exc.reason)
                continue
            stats.emitted += 1
            yield record
    finally:
        if owned is not None:
            owned.close()


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


def _tsv_rows(numbered):
    """Yield (line number, slot values or the row's ParseError) per TSV data
    row; a header the rows cannot be read with raises."""
    sep = "\t"
    unset = "-"
    empty_marker = "(empty)"
    # The current #fields header as a plan: its column count, and a getter
    # that picks each slot's cell from a row's cells plus one trailing None.
    # A slot takes its last set column: it reads its last column (a slot
    # without a column reads the trailing None), and only if that cell is
    # unset does it fall back to its earlier duplicate columns, last first.
    width = 0
    pick = None
    fallbacks: list[tuple[int, list[int]]] = []
    for line_no, raw in numbered:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#separator"):
                sep = _parse_separator(line, line_no)
            else:
                body = line[1:].split(sep)
                name, values = body[0], body[1:]
                if name == "fields":
                    columns = [v for v in values if v]
                    width = len(columns)
                    found: dict[int, list[int]] = {}
                    for i, col in enumerate(columns):
                        if col in _SLOT_INDEX:
                            found.setdefault(_SLOT_INDEX[col], []).append(i)
                    where = [width] * len(_SLOTS)
                    for slot, indices in found.items():
                        where[slot] = indices[-1]
                    pick = itemgetter(*where)
                    fallbacks = [
                        (slot, indices[-2::-1])
                        for slot, indices in found.items()
                        if len(indices) > 1
                    ]
                elif name == "unset_field" and values:
                    unset = values[0]
                elif name == "empty_field" and values:
                    empty_marker = values[0]
            continue
        if pick is None:
            # Unusable header is fatal even in lenient mode.
            raise ParseError("data row before #fields header", line_no)
        cells = line.split(sep)
        if len(cells) != width:
            yield line_no, ParseError(
                f"expected {width} columns, got {len(cells)}", reason="column count"
            )
            continue
        cells.append(None)
        values = pick(cells)
        if unset in values or empty_marker in values:
            values = [None if v == unset or v == empty_marker else v for v in values]
            for slot, earlier in fallbacks:
                if values[slot] is None:
                    for i in earlier:
                        if cells[i] != unset and cells[i] != empty_marker:
                            values[slot] = cells[i]
                            break
        yield line_no, values


def _jsonl_rows(numbered):
    """Yield (line number, slot values or the row's ParseError) per JSON line."""
    for line_no, raw in numbered:
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also a number past the int digit limit
            yield line_no, ParseError(f"bad JSON: {exc}", reason="bad JSON")
            continue
        if not isinstance(obj, dict):
            yield line_no, ParseError("row is not a JSON object", reason="bad JSON")
            continue
        values = [None] * len(_SLOTS)
        for key, val in obj.items():
            if key in _SLOT_INDEX and val is not None and val != "-":
                values[_SLOT_INDEX[key]] = val
        yield line_no, values


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

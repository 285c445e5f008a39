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

import json
import math
from dataclasses import dataclass
from ipaddress import ip_address
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

__all__ = [
    "CANONICAL_FIELDS",
    "ConnRecord",
    "ParseError",
    "ParseStats",
    "parse_conn_log",
    "read_conn_log",
    "write_canonical_tsv",
]


class ParseError(ValueError):
    """A malformed row, or a log header the parser cannot use."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ConnRecord:
    """One flow log row, validated and normalized.

    IPs are stored in canonical string form, ports lie in [0, 65535],
    counters are non-negative integers, and ``protocol_service`` is a
    non-empty lowercase token. ``bytes`` equals
    ``request_bytes + response_bytes`` whenever the source log had no
    combined byte column.
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

    def __post_init__(self):
        for name in ("source_ip", "destination_ip"):
            try:
                addr = ip_address(getattr(self, name))
            except ValueError:
                raise ValueError(f"bad {name}: {getattr(self, name)!r}") from None
            object.__setattr__(self, name, str(addr))
        for name in ("source_port", "destination_port"):
            port = getattr(self, name)
            if not isinstance(port, int) or not 0 <= port <= 65535:
                raise ValueError(f"{name}={port!r} outside [0, 65535]")
        for name in (
            "request_bytes",
            "response_bytes",
            "bytes",
            "request_packets",
            "response_packets",
            "request_ip_bytes",
            "response_ip_bytes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name}={value!r} must be a non-negative integer")
        for name in ("ts", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}={value!r} must be finite")
        if self.duration < 0:
            raise ValueError(f"duration={self.duration!r} must be non-negative")
        token = self.protocol_service.strip().lower()
        if not token:
            raise ValueError("protocol_service must not be empty")
        object.__setattr__(self, "protocol_service", token)


@dataclass
class ParseStats:
    """Row accounting for one parse. ``read == emitted + skipped`` once the
    record stream has been fully consumed."""

    read: int = 0
    emitted: int = 0
    skipped: int = 0


# Canonical dump columns: timestamp first, then the flow fields in schema
# order. Reparsing a canonical dump reproduces the records exactly.
CANONICAL_FIELDS = (
    "ts",
    "sourceIP",
    "destinationIP",
    "sourcePort",
    "destinationPort",
    "protocolService",
    "responseBytes",
    "requestBytes",
    "duration",
    "bytes",
    "responsePackets",
    "requestPackets",
    "responseIPBytes",
    "requestIPBytes",
)

_CANONICAL_ATTRS = (
    "ts",
    "source_ip",
    "destination_ip",
    "source_port",
    "destination_port",
    "protocol_service",
    "response_bytes",
    "request_bytes",
    "duration",
    "bytes",
    "response_packets",
    "request_packets",
    "response_ip_bytes",
    "request_ip_bytes",
)

# Column/key aliases accepted on input. Zeek native names on the left-hand
# side, canonical dump names also mapped so dumps reparse with the same code
# path. Unknown columns are ignored.
_FIELD_ALIASES = {
    "ts": "ts",
    "id.orig_h": "source_ip",
    "sourceIP": "source_ip",
    "id.resp_h": "destination_ip",
    "destinationIP": "destination_ip",
    "id.orig_p": "source_port",
    "sourcePort": "source_port",
    "id.resp_p": "destination_port",
    "destinationPort": "destination_port",
    "proto": "proto",
    "service": "service",
    "protocolService": "protocol_service",
    "duration": "duration",
    "orig_bytes": "request_bytes",
    "requestBytes": "request_bytes",
    "resp_bytes": "response_bytes",
    "responseBytes": "response_bytes",
    "bytes": "bytes",
    "orig_pkts": "request_packets",
    "requestPackets": "request_packets",
    "resp_pkts": "response_packets",
    "responsePackets": "response_packets",
    "orig_ip_bytes": "request_ip_bytes",
    "requestIPBytes": "request_ip_bytes",
    "resp_ip_bytes": "response_ip_bytes",
    "responseIPBytes": "response_ip_bytes",
}

_COUNTER_SLOTS = (
    "request_bytes",
    "response_bytes",
    "request_packets",
    "response_packets",
    "request_ip_bytes",
    "response_ip_bytes",
)

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
    owned, lines = _iter_lines(source)
    return _parse(owned, lines, format, strict, stats), stats


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


def _iter_lines(source: Source):
    """Return (owned_file_or_None, iterator of str lines)."""
    if isinstance(source, (str, Path)):
        fp = open(source, "r", encoding="utf-8", newline="")
        return fp, iter(fp)
    decoded = (
        line.decode("utf-8") if isinstance(line, (bytes, bytearray)) else line
        for line in source
    )
    return None, decoded


def _parse(owned, lines, format, strict, stats):
    try:
        numbered = enumerate(lines, 1)
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
        if fmt == "tsv":
            yield from _parse_tsv(numbered, strict, stats)
        else:
            yield from _parse_jsonl(numbered, strict, stats)
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


def _parse_tsv(numbered, strict, stats):
    sep = "\t"
    unset = "-"
    empty_marker = "(empty)"
    columns: list[str] | None = None
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
                elif name == "unset_field" and values:
                    unset = values[0]
                elif name == "empty_field" and values:
                    empty_marker = values[0]
            continue
        if columns is None:
            # Unusable header is fatal even in lenient mode.
            raise ParseError("data row before #fields header", line_no)
        stats.read += 1
        try:
            cells = line.split(sep)
            if len(cells) != len(columns):
                raise ParseError(
                    f"expected {len(columns)} columns, got {len(cells)}", line_no
                )
            values = {}
            for col, cell in zip(columns, cells):
                slot = _FIELD_ALIASES.get(col)
                if slot is None or cell == unset or cell == empty_marker:
                    continue
                values[slot] = cell
            record = _record_from(values, line_no)
        except ParseError:
            if strict:
                raise
            stats.skipped += 1
            continue
        stats.emitted += 1
        yield record


def _parse_jsonl(numbered, strict, stats):
    for line_no, raw in numbered:
        line = raw.strip()
        if not line:
            continue
        stats.read += 1
        try:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc}", line_no) from None
            if not isinstance(obj, dict):
                raise ParseError("row is not a JSON object", line_no)
            values = {}
            for key, val in obj.items():
                slot = _FIELD_ALIASES.get(key)
                if slot is None or val is None or val == "-":
                    continue
                values[slot] = val
            record = _record_from(values, line_no)
        except ParseError:
            if strict:
                raise
            stats.skipped += 1
            continue
        stats.emitted += 1
        yield record


def _float(value, name, line_no) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"bad {name}: {value!r}", line_no) from None
    if not math.isfinite(out):
        raise ParseError(f"bad {name}: {value!r}", line_no)
    return out


def _int(value, name, line_no) -> int:
    try:
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
        raise ParseError(f"bad integer {name}: {value!r}", line_no) from None


def _record_from(values: dict, line_no: int) -> ConnRecord:
    for required in ("ts", "source_ip", "destination_ip"):
        if required not in values:
            raise ParseError(f"missing required field {required}", line_no)
    token = (
        values.get("protocol_service")
        or values.get("service")
        or values.get("proto")
        or "unknown"
    )
    request_bytes = _int(values.get("request_bytes", 0), "request_bytes", line_no)
    response_bytes = _int(values.get("response_bytes", 0), "response_bytes", line_no)
    if "bytes" in values:
        total_bytes = _int(values["bytes"], "bytes", line_no)
    else:
        total_bytes = request_bytes + response_bytes
    try:
        return ConnRecord(
            ts=_float(values["ts"], "ts", line_no),
            source_ip=str(values["source_ip"]).strip(),
            destination_ip=str(values["destination_ip"]).strip(),
            source_port=_int(values.get("source_port", 0), "source_port", line_no),
            destination_port=_int(
                values.get("destination_port", 0), "destination_port", line_no
            ),
            protocol_service=str(token),
            duration=_float(values.get("duration", 0.0), "duration", line_no),
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            bytes=total_bytes,
            request_packets=_int(
                values.get("request_packets", 0), "request_packets", line_no
            ),
            response_packets=_int(
                values.get("response_packets", 0), "response_packets", line_no
            ),
            request_ip_bytes=_int(
                values.get("request_ip_bytes", 0), "request_ip_bytes", line_no
            ),
            response_ip_bytes=_int(
                values.get("response_ip_bytes", 0), "response_ip_bytes", line_no
            ),
        )
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None

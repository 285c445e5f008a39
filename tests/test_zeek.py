"""Flow log parser: field mapping, unset markers, strict/lenient modes,
header directives, JSON lines, and the canonical TSV round-trip."""

import dataclasses
import io
import json
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import legacy_read_tsv, make_record
from ipembed import zeek
from ipembed.synth import DEFAULT_TRANSPORTS, default_roles, generate, write_zeek_tsv
from ipembed.zeek import (
    _FIELD_ALIASES,
    _SCHEMA,
    CANONICAL_FIELDS,
    NUMERIC_FEATURES,
    ConnRecord,
    FlowTable,
    ParseError,
    parse_conn_log,
    read_conn_log,
    write_canonical_tsv,
)

ZEEK_FIELDS = (
    "ts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tservice\t"
    "duration\torig_bytes\tresp_bytes\tconn_state\torig_pkts\torig_ip_bytes\t"
    "resp_pkts\tresp_ip_bytes"
)


def zeek_tsv(rows, header=True):
    lines = []
    if header:
        lines.append("#separator \\x09")
        lines.append("#set_separator\t,")
        lines.append("#empty_field\t(empty)")
        lines.append("#unset_field\t-")
        lines.append("#fields\t" + ZEEK_FIELDS)
    lines.extend(rows)
    return lines


def zeek_row(
    ts="100.0",
    orig_h="192.168.1.10",
    orig_p="51514",
    resp_h="8.8.8.8",
    resp_p="53",
    proto="udp",
    service="dns",
    duration="0.061",
    orig_bytes="72",
    resp_bytes="184",
    orig_pkts="2",
    orig_ip_bytes="128",
    resp_pkts="2",
    resp_ip_bytes="240",
):
    return "\t".join(
        [
            ts,
            "CUM0KZ3MLUfNB0cl11",
            orig_h,
            orig_p,
            resp_h,
            resp_p,
            proto,
            service,
            duration,
            orig_bytes,
            resp_bytes,
            "SF",
            orig_pkts,
            orig_ip_bytes,
            resp_pkts,
            resp_ip_bytes,
        ]
    )


def test_tsv_field_mapping():
    records, stats = read_conn_log(zeek_tsv([zeek_row()]))
    assert stats.read == 1 and stats.emitted == 1 and stats.skipped == 0
    r = records[0]
    assert r.ts == 100.0
    assert r.source_ip == "192.168.1.10"
    assert r.destination_ip == "8.8.8.8"
    assert r.source_port == 51514
    assert r.destination_port == 53
    assert r.protocol_service == "dns"
    assert r.duration == 0.061
    assert r.request_bytes == 72
    assert r.response_bytes == 184
    assert r.request_packets == 2
    assert r.response_packets == 2
    assert r.request_ip_bytes == 128
    assert r.response_ip_bytes == 240


def test_bytes_derived_as_sum():
    # No combined bytes column in Zeek output: bytes = orig + resp.
    records, _ = read_conn_log(zeek_tsv([zeek_row(orig_bytes="100", resp_bytes="40")]))
    assert records[0].request_bytes == 100
    assert records[0].response_bytes == 40
    assert records[0].bytes == 140


def test_unset_numeric_marker_maps_to_zero():
    row = zeek_row(duration="-", orig_bytes="-", resp_bytes="-")
    records, _ = read_conn_log(zeek_tsv([row]))
    assert records[0].duration == 0.0
    assert records[0].request_bytes == 0
    assert records[0].response_bytes == 0
    assert records[0].bytes == 0


def test_service_fallback_to_proto():
    records, _ = read_conn_log(zeek_tsv([zeek_row(service="-", proto="udp")]))
    assert records[0].protocol_service == "udp"


def test_service_preferred_over_proto():
    records, _ = read_conn_log(zeek_tsv([zeek_row(service="ssl", proto="tcp")]))
    assert records[0].protocol_service == "ssl"


def test_service_lowercased():
    records, _ = read_conn_log(zeek_tsv([zeek_row(service="DNS")]))
    assert records[0].protocol_service == "dns"


def test_missing_fields_header_fatal_even_lenient():
    with pytest.raises(ParseError) as err:
        read_conn_log(["#separator \\x09", zeek_row()], format="tsv")
    assert "fields" in str(err.value)


def test_custom_separator_directive():
    lines = [
        "#separator ,",
        "#fields," + ZEEK_FIELDS.replace("\t", ","),
        zeek_row().replace("\t", ","),
    ]
    records, _ = read_conn_log(lines, format="tsv")
    assert records[0].destination_port == 53


def test_strict_mode_reports_line_number():
    rows = [zeek_row(), zeek_row(resp_p="99999"), zeek_row()]
    with pytest.raises(ParseError) as err:
        read_conn_log(zeek_tsv(rows), strict=True)
    # 5 header lines, bad row is the 7th physical line
    assert err.value.line == 7
    assert str(err.value).startswith("line 7:")


def test_lenient_mode_skips_and_counts():
    rows = [zeek_row(), "short\trow", zeek_row(orig_p="not_a_port"), zeek_row()]
    records, stats = read_conn_log(zeek_tsv(rows))
    assert len(records) == 2
    assert stats.read == 4
    assert stats.emitted == 2
    assert stats.skipped == 2
    assert stats.emitted + stats.skipped == stats.read


def test_wrong_column_count_rejected():
    rows = [zeek_row() + "\textra"]
    _, stats = read_conn_log(zeek_tsv(rows))
    assert stats.skipped == 1


def test_skip_reasons_count_each_corruption_kind():
    # One row of each corruption the benchmark injects into its logs.
    short = zeek_row().rsplit("\t", 1)[0]
    rows = [
        zeek_row(),
        short,
        zeek_row(orig_h="999.0.0.1"),
        zeek_row(orig_bytes="12x"),
        zeek_row(ts="nan"),
        zeek_row(resp_p="70000"),
        zeek_row(resp_h="-"),
        zeek_row(duration="soon"),
        zeek_row(duration="-1.5"),
    ]
    records, stats = read_conn_log(zeek_tsv(rows))
    assert len(records) == 1
    assert stats.reasons == {
        "column count": 1,
        "bad IP": 1,
        "bad integer": 1,
        "non-finite": 1,
        "out of range": 2,
        "missing field": 1,
        "bad float": 1,
    }
    assert sum(stats.reasons.values()) == stats.skipped == 8

    _, jstats = read_conn_log(['{"ts": 1', "[1, 2]", json.dumps({"ts": 1.0})])
    assert jstats.reasons == {"bad JSON": 2, "missing field": 1}


def test_strict_error_names_its_reason():
    with pytest.raises(ParseError) as err:
        read_conn_log(zeek_tsv([zeek_row(orig_h="999.0.0.1")]), strict=True)
    assert err.value.reason == "bad IP"
    with pytest.raises(ParseError) as err:
        read_conn_log(["#separator"], format="tsv")
    assert err.value.reason is None


def test_row_that_is_not_utf8_is_skipped_or_strict_error(tmp_path):
    # One 0xff byte in the ignored conn_state column of the second row.
    lines = [line.encode() + b"\n" for line in zeek_tsv([zeek_row()] * 3)]
    lines[6] = lines[6].replace(b"\tSF\t", b"\tS\xff\t")
    path = tmp_path / "conn.log"
    path.write_bytes(b"".join(lines))
    for source in (lambda: path, lambda: lines, lambda: io.BytesIO(path.read_bytes())):
        records, stats = read_conn_log(source())
        assert len(records) == 2
        assert (stats.read, stats.skipped) == (3, 1)
        assert stats.reasons == {"bad UTF-8": 1}
        with pytest.raises(ParseError) as err:
            read_conn_log(source(), strict=True)
        assert (err.value.line, err.value.reason) == (7, "bad UTF-8")


def test_1000_row_fixture_with_3_corrupt(tmp_path):
    rows = []
    for i in range(1000):
        rows.append(zeek_row(ts=repr(100.0 + i), orig_p=str(1024 + i % 60000)))
    rows[100] = zeek_row(resp_p="70000")  # port out of range
    rows[500] = "\t".join(["junk"] * 3)  # wrong column count
    rows[900] = zeek_row(orig_bytes="12.5x")  # unparseable counter
    path = tmp_path / "conn.log"
    path.write_text("\n".join(zeek_tsv(rows)) + "\n")

    records, stats = read_conn_log(path)
    assert len(records) == 997
    assert stats.read == 1000
    assert stats.emitted == 997
    assert stats.skipped == 3


def test_jsonl_parsing():
    obj = {
        "ts": 1591367999.305988,
        "uid": "CMdzit1AMNsmfAIiQc",
        "id.orig_h": "192.168.4.76",
        "id.orig_p": 36844,
        "id.resp_h": "192.168.4.1",
        "id.resp_p": 53,
        "proto": "udp",
        "service": "dns",
        "duration": 0.06685,
        "orig_bytes": 62,
        "resp_bytes": 141,
        "orig_pkts": 2,
        "orig_ip_bytes": 118,
        "resp_pkts": 2,
        "resp_ip_bytes": 197,
    }
    records, stats = read_conn_log([json.dumps(obj)])
    assert stats.emitted == 1
    r = records[0]
    assert r.source_ip == "192.168.4.76"
    assert r.bytes == 62 + 141
    assert r.protocol_service == "dns"


def test_jsonl_null_and_missing_fields():
    obj = {
        "ts": 5.0,
        "id.orig_h": "10.0.0.1",
        "id.resp_h": "10.0.0.2",
        "proto": "tcp",
        "service": None,
        "duration": None,
    }
    records, _ = read_conn_log([json.dumps(obj)])
    r = records[0]
    assert r.protocol_service == "tcp"
    assert r.duration == 0.0
    assert r.request_bytes == 0


def test_jsonl_bad_rows_lenient_and_strict():
    lines = ['{"ts": 1.0', json.dumps({"ts": 2.0, "id.orig_h": "10.0.0.1",
                                       "id.resp_h": "10.0.0.2", "proto": "tcp"})]
    records, stats = read_conn_log(lines)
    assert stats.skipped == 1 and stats.emitted == 1
    with pytest.raises(ParseError):
        read_conn_log(lines, strict=True)


def test_auto_format_sniffing():
    tsv_records, _ = read_conn_log(zeek_tsv([zeek_row()]), format="auto")
    json_records, _ = read_conn_log(
        ['{"ts": 1.0, "id.orig_h": "10.0.0.1", "id.resp_h": "10.0.0.2", "proto": "udp"}'],
        format="auto",
    )
    assert tsv_records[0].destination_port == 53
    assert json_records[0].protocol_service == "udp"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_conn_log([], format="csv")


def test_missing_file_fails_at_call_time(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_conn_log(tmp_path / "nope.log")


def test_lazy_stats_fill_during_consumption():
    stream, stats = parse_conn_log(zeek_tsv([zeek_row(), zeek_row()]))
    assert stats.read == 0
    first = next(stream)
    assert stats.emitted == 1
    rest = list(stream)
    assert stats.emitted == 2
    assert first.destination_port == rest[0].destination_port == 53


def test_ipv6_and_ip_canonicalization():
    records, _ = read_conn_log(
        zeek_tsv([zeek_row(orig_h="2001:0db8:0000:0000:0000:0000:0000:0001")])
    )
    assert records[0].source_ip == "2001:db8::1"


def test_record_validation_errors():
    with pytest.raises(ValueError):
        make_record(source_ip="not-an-ip")
    with pytest.raises(ValueError):
        make_record(source_port=-1)
    with pytest.raises(ValueError):
        make_record(request_bytes=-5)
    with pytest.raises(ValueError):
        make_record(duration=-1.0)
    with pytest.raises(ValueError):
        make_record(ts=float("nan"))


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("source_ip", "not-an-ip", "bad IP"),
        ("destination_port", 70000, "out of range"),
        ("response_packets", -1, "out of range"),
        ("ts", float("inf"), "non-finite"),
        ("duration", -1.0, "out of range"),
        ("protocol_service", " ", "missing field"),
        # Tokens the canonical dump would write as an unset marker or split.
        ("protocol_service", "-", "bad token"),
        ("protocol_service", " (EMPTY) ", "bad token"),
        ("protocol_service", "a\tb", "bad token"),
        ("protocol_service", "a\nb", "bad token"),
        ("protocol_service", "a\rb", "bad token"),
        ("protocol_service", 5, "bad token"),
        ("protocol_service", b"tcp", "bad token"),
        # A bool is an int to isinstance, but it would be dumped as "True".
        ("source_port", True, "out of range"),
        ("request_packets", False, "out of range"),
        ("ts", True, "bad float"),
        ("duration", False, "bad float"),
        ("ts", "1", "bad float"),
        ("duration", None, "bad float"),
        # An int past float range converts to no float at all.
        pytest.param("ts", 10**400, "non-finite", id="ts-past-float-range"),
        pytest.param(
            "duration", 10**400, "non-finite", id="duration-past-float-range"
        ),
    ],
)
def test_record_refusal_is_a_parse_error_without_a_line(field, value, reason):
    with pytest.raises(ParseError) as err:
        make_record(**{field: value})
    assert (err.value.reason, err.value.line) == (reason, None)
    assert not str(err.value).startswith("line ")


def _json_row(tsv_row):
    """The JSON-lines form of a zeek_row, its numbers as JSON numbers."""
    obj = {}
    for key, cell in zip(ZEEK_FIELDS.split("\t"), tsv_row.split("\t")):
        try:
            obj[key] = float(cell) if "." in cell or cell == "nan" else int(cell)
        except ValueError:
            obj[key] = cell
    return json.dumps(obj)


def test_json_and_tsv_rows_skip_for_the_same_reasons():
    rows = [
        zeek_row(),
        zeek_row(orig_h="999.0.0.1"),
        zeek_row(resp_p="70000"),
        zeek_row(ts="nan"),
        zeek_row(duration="-1.5"),
        zeek_row(ts="1" + "0" * 400),  # past float range: inf as text or int
    ]
    _, tsv_stats = read_conn_log(zeek_tsv(rows))
    _, json_stats = read_conn_log([_json_row(row) for row in rows])
    assert tsv_stats.reasons == {"bad IP": 1, "out of range": 2, "non-finite": 2}
    assert json_stats == tsv_stats


@pytest.mark.parametrize("token", ["(empty)", " - ", "a\tb", "a\nb", "a\rb"])
def test_json_token_the_canonical_dump_cannot_hold_is_bad_token(token):
    row = {"ts": 2.0, "id.orig_h": "10.0.0.1", "id.resp_h": "10.0.0.2"}
    lines = [_json_row(zeek_row()), json.dumps({**row, "service": token})]
    records, stats = read_conn_log(lines)
    assert len(records) == 1 and stats.reasons == {"bad token": 1}
    with pytest.raises(ParseError) as err:
        read_conn_log(lines, strict=True)
    assert (err.value.reason, err.value.line) == ("bad token", 2)


def test_json_number_past_the_int_digit_limit_is_bad_json():
    row = '{"ts": 1' + "0" * 5000 + ', "id.orig_h": "10.0.0.1"}'
    records, stats = read_conn_log([row, _json_row(zeek_row())])
    assert len(records) == 1 and stats.reasons == {"bad JSON": 1}


# ---------------------------------------------------------------------------
# fuzzing: truncated and byte-flipped lines of a valid log

FUZZ_ROWS = [
    zeek_row(),
    zeek_row(ts="101.5", orig_h="2001:db8::1", proto="tcp", service="-"),
    zeek_row(ts="102.25", service="http", orig_bytes="-", resp_pkts="(empty)"),
    zeek_row(ts="103", resp_h="10.0.0.7", duration="12.5", resp_bytes="90000"),
]
FUZZ_TSV = [line.encode() + b"\n" for line in zeek_tsv(FUZZ_ROWS)]
FUZZ_HEADER = len(zeek_tsv([]))
FUZZ_JSONL = [_json_row(row).encode() + b"\n" for row in FUZZ_ROWS]


@st.composite
def damaged_logs(draw, keep_header):
    """(format, byte lines) of a valid TSV or JSON-lines log with one to
    four edits, each truncating a line or XOR-ing one of its bytes.
    ``keep_header`` spares the TSV header lines."""
    fmt = draw(st.sampled_from(["tsv", "jsonl"]))
    lines = list(FUZZ_TSV if fmt == "tsv" else FUZZ_JSONL)
    first = FUZZ_HEADER if keep_header and fmt == "tsv" else 0
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(first, len(lines) - 1))
        line = lines[i]
        if not line or draw(st.booleans()):
            lines[i] = line[: draw(st.integers(0, len(line)))]
        else:
            k = draw(st.integers(0, len(line) - 1))
            flipped = line[k] ^ draw(st.integers(1, 255))
            lines[i] = line[:k] + bytes([flipped]) + line[k + 1 :]
    return fmt, lines


@settings(max_examples=150, deadline=None, derandomize=True)
@given(damaged_logs(keep_header=True))
def test_lenient_reader_counts_every_damaged_row(log):
    fmt, lines = log
    records, stats = read_conn_log(lines, format=fmt)
    assert stats.read == stats.emitted + stats.skipped
    assert stats.emitted == len(records)
    assert sum(stats.reasons.values()) == stats.skipped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(damaged_logs(keep_header=False))
def test_damaged_logs_raise_only_parse_errors(log):
    _, lines = log
    try:
        read_conn_log(lines, strict=True)
    except ParseError:
        pass
    try:
        read_conn_log(lines)
    except ParseError as exc:
        # Lenient mode raises only for a header the rows cannot be read with.
        assert exc.reason is None


# Every corruption kind: the six the benchmark injects (perfbench/checks.py),
# then a bad float, a port past the range and a negative counter. Each maps
# to the strict-mode message the row must raise, after "line N: ".
CORRUPT_ROWS = {
    "column count": (zeek_row().rsplit("\t", 1)[0], "expected 16 columns, got 15"),
    "bad IP": (zeek_row(orig_h="999.0.0.1"), "bad source_ip: '999.0.0.1'"),
    "bad integer": (zeek_row(orig_bytes="12x"), "bad integer request_bytes: '12x'"),
    "non-finite": (zeek_row(ts="nan"), "ts=nan must be finite"),
    "port 70000": (
        zeek_row(resp_p="70000"), "destination_port=70000 outside [0, 65535]"
    ),
    "unset destination": (
        zeek_row(resp_h="-"), "missing required field destination_ip"
    ),
    "bad float": (zeek_row(duration="soon"), "bad duration: 'soon'"),
    "port 65536": (zeek_row(orig_p="65536"), "source_port=65536 outside [0, 65535]"),
    "negative counter": (
        zeek_row(resp_ip_bytes="-7"),
        "response_ip_bytes=-7 must be a non-negative integer",
    ),
}
# Rows that must parse: unset and (empty) counters read as zero, the port
# range's ends, and counters far past 64 bits.
EDGE_ROWS = [
    zeek_row(orig_bytes="-", resp_pkts="(empty)", duration="-"),
    zeek_row(orig_p="0", resp_p="65535"),
    zeek_row(orig_bytes=str(2**70), resp_ip_bytes=str(2**70 + 1)),
]
NO_SERVICE_FIELDS = ZEEK_FIELDS.replace("\tservice", "")


def no_service_row(**cells):
    fields = zeek_row(**cells).split("\t")
    del fields[7]  # service
    return "\t".join(fields)


def every_corruption_log():
    rows = [zeek_row(), *(row for row, _ in CORRUPT_ROWS.values()), *EDGE_ROWS]
    rows += [
        "#fields\t" + NO_SERVICE_FIELDS,
        no_service_row(proto="TCP"),
        zeek_row(),  # one column too many under the new header
        no_service_row(orig_p="65536"),
        no_service_row(ts="1e400"),
    ]
    return zeek_tsv(rows)


def test_every_corruption_kind_matches_the_per_row_reference():
    lines = every_corruption_log()
    records, stats = read_conn_log(lines, format="tsv")
    want_records, want = legacy_read_tsv(lines)
    assert records == want_records
    assert (stats.read, stats.emitted, stats.skipped) == (
        want.read, want.emitted, want.skipped
    ) == (17, 5, 12)
    assert stats.reasons == {
        "column count": 2,
        "bad IP": 1,
        "bad integer": 1,
        "non-finite": 2,
        "out of range": 4,
        "missing field": 1,
        "bad float": 1,
    }
    unset, ends, huge, proto_only = records[1:]
    assert (unset.request_bytes, unset.response_packets, unset.duration) == (0, 0, 0.0)
    assert unset.bytes == unset.response_bytes == 184
    assert (ends.source_port, ends.destination_port) == (0, 65535)
    assert (huge.request_bytes, huge.bytes) == (2**70, 2**70 + 184)
    assert huge.response_ip_bytes == 2**70 + 1
    assert proto_only.protocol_service == "tcp"


@pytest.mark.parametrize("kind", list(CORRUPT_ROWS))
def test_strict_mode_names_the_line_and_message_of_each_kind(kind):
    row, message = CORRUPT_ROWS[kind]
    with pytest.raises(ParseError) as err:
        read_conn_log(zeek_tsv([zeek_row(), row]), strict=True)
    assert err.value.line == 7
    assert str(err.value) == f"line 7: {message}"


def test_strict_mode_reads_rows_by_a_mid_file_header():
    ok = zeek_tsv([zeek_row(), "#fields\t" + NO_SERVICE_FIELDS, no_service_row()])
    assert len(read_conn_log(ok, format="tsv", strict=True)[0]) == 2
    for row, message in (
        (zeek_row(), "expected 15 columns, got 16"),
        (no_service_row(orig_p="65536"), "source_port=65536 outside [0, 65535]"),
        (no_service_row(ts="1e400"), "ts=inf must be finite"),
    ):
        with pytest.raises(ParseError) as err:
            read_conn_log(ok + [row], format="tsv", strict=True)
        assert str(err.value) == "line 9: " + message


def test_conn_record_keeps_its_dataclass_behaviour():
    fields = [f.name for f in dataclasses.fields(ConnRecord)]
    assert fields == [
        "ts", "source_ip", "destination_ip", "source_port", "destination_port",
        "protocol_service", "duration", "request_bytes", "response_bytes", "bytes",
        "request_packets", "response_packets", "request_ip_bytes", "response_ip_bytes",
    ]
    by_keyword = make_record(source_ip="2001:DB8::1", protocol_service=" DNS ")
    by_position = ConnRecord(*(getattr(by_keyword, name) for name in fields))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == (
        "ConnRecord(ts=100.0, source_ip='2001:db8::1', destination_ip='10.0.0.2', "
        "source_port=40000, destination_port=53, protocol_service='dns', "
        "duration=0.05, request_bytes=60, response_bytes=120, bytes=180, "
        "request_packets=1, response_packets=1, request_ip_bytes=88, "
        "response_ip_bytes=148)"
    )
    assert vars(by_position) == {name: getattr(by_keyword, name) for name in fields}

    moved = dataclasses.replace(by_keyword, destination_ip="10.0.0.9")
    assert moved.destination_ip == "10.0.0.9" and moved != by_keyword
    with pytest.raises(ParseError) as err:
        dataclasses.replace(by_keyword, source_port=65536)
    assert err.value.reason == "out of range"

    with pytest.raises(dataclasses.FrozenInstanceError):
        by_keyword.source_port = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del by_keyword.ts
    with pytest.raises(TypeError):
        ConnRecord(*(getattr(by_keyword, name) for name in fields[:-1]))


def test_canonical_tsv_shape():
    buf = io.StringIO()
    count = write_canonical_tsv([make_record()], buf)
    assert count == 1
    lines = buf.getvalue().splitlines()
    assert lines[0] == "#separator \\x09"
    assert lines[1].split("\t") == ["#fields", *CANONICAL_FIELDS]
    assert len(lines[2].split("\t")) == len(CANONICAL_FIELDS)


def test_schema_names_every_record_field_once():
    attrs = [attr for attr, _, _ in _SCHEMA]
    assert Counter(attrs) == Counter(f.name for f in dataclasses.fields(ConnRecord))
    assert len({column for _, column, _ in _SCHEMA}) == len(_SCHEMA)


def test_tables_derived_from_the_schema():
    assert CANONICAL_FIELDS == (
        "ts", "sourceIP", "destinationIP", "sourcePort", "destinationPort",
        "protocolService", "responseBytes", "requestBytes", "duration", "bytes",
        "responsePackets", "requestPackets", "responseIPBytes", "requestIPBytes",
    )
    assert _FIELD_ALIASES == {
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


def test_canonical_round_trip_simple():
    original = [
        make_record(),
        make_record(ts=101.25, source_ip="2001:db8::1", protocol_service="http"),
    ]
    buf = io.StringIO()
    write_canonical_tsv(original, buf)
    buf.seek(0)
    parsed, stats = read_conn_log(buf)
    assert stats.skipped == 0
    assert parsed == original


ip_strategy = st.one_of(
    st.ip_addresses(v=4).map(str),
    st.ip_addresses(v=6).map(str),
)
count_strategy = st.integers(min_value=0, max_value=2**40)


@st.composite
def conn_records(draw):
    request_bytes = draw(count_strategy)
    response_bytes = draw(count_strategy)
    return ConnRecord(
        ts=draw(
            st.floats(
                min_value=0,
                max_value=4e9,
                allow_nan=False,
                allow_infinity=False,
            )
        ),
        source_ip=draw(ip_strategy),
        destination_ip=draw(ip_strategy),
        source_port=draw(st.integers(0, 65535)),
        destination_port=draw(st.integers(0, 65535)),
        protocol_service=draw(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=12,
            )
        ),
        duration=draw(
            st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)
        ),
        request_bytes=request_bytes,
        response_bytes=response_bytes,
        bytes=request_bytes + response_bytes,
        request_packets=draw(count_strategy),
        response_packets=draw(count_strategy),
        request_ip_bytes=draw(count_strategy),
        response_ip_bytes=draw(count_strategy),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(conn_records(), min_size=1, max_size=20))
def test_round_trip_property(records):
    buf = io.StringIO()
    write_canonical_tsv(records, buf)
    buf.seek(0)
    parsed, stats = read_conn_log(buf)
    assert stats.skipped == 0
    assert parsed == records


INT_FIELDS = (
    "source_port", "destination_port", *(n for n in NUMERIC_FEATURES if n != "duration")
)
# Int-like values, including the booleans and floats the constructor refuses.
loose_ints = st.one_of(
    st.booleans(), st.integers(-2, 70000), st.integers(0, 2**70), st.floats(-1.0, 1e6)
)


@settings(max_examples=200, deadline=None)
@given(
    conn_records(),
    st.dictionaries(st.sampled_from(INT_FIELDS), loose_ints, max_size=2),
)
def test_every_accepted_port_and_counter_survives_the_canonical_dump(record, changes):
    try:
        record = dataclasses.replace(record, **changes)
    except ParseError:
        return
    buf = io.StringIO()
    write_canonical_tsv([record], buf)
    buf.seek(0)
    parsed, _ = read_conn_log(buf, strict=True)
    assert parsed == [record]


# ---------------------------------------------------------------------------
# differential: the column-plan parser against the per-row reference

KNOWN_COLUMNS = sorted(_FIELD_ALIASES)
UNKNOWN_COLUMNS = ["uid", "conn_state", "history", ""]
# Per cell kind: cells that parse, then cells that do not.
SLOT_CELLS = {
    "ts": (["100.0", "1591367999.305988", "7", " 12.5 ", "1e3"],
           ["nan", "inf", "-inf", "abc", ""]),
    "ip": (["10.0.0.1", "192.168.1.10", "2001:db8::1", "2001:DB8:0:0::0001",
            " 10.0.0.3 ", "::ffff:10.0.0.1"],
           ["999.0.0.1", "10.0.0", ""]),
    "port": (["53", "0", "65535", " 80 ", "+7", "1_0", "٣", "\xa08"],
             ["65536", "-1", "8.0", "x", ""]),
    "token": (["tcp", "udp", "DNS", " http ", "ssh", ""], [" "]),
    "duration": (["0.5", "0", "-0.0", "1e-9"], ["-0.5", "nan", "x", ""]),
    "count": (["12", "0", " 5 ", "+4", "99999999999999999999"],
              ["-3", "1.5", "12x", ""]),
}
SPOILS = ["bad", "unset", "empty"]
SLOT_KIND = {
    "ts": "ts",
    "source_ip": "ip",
    "destination_ip": "ip",
    "source_port": "port",
    "destination_port": "port",
    "proto": "token",
    "service": "token",
    "protocol_service": "token",
    "duration": "duration",
}
SEPARATORS = [("\\x09", "\t"), (",", ","), ("|", "|"), ("\\x3b", ";")]


@st.composite
def tsv_logs(draw):
    """Zeek TSV lines: header directives (including mid-file #fields,
    #unset_field and #separator changes), unknown and duplicate columns,
    unset and empty markers, corrupt cells and wrong column counts."""
    lines = []
    sep = "\t"
    unset, empty = "-", "(empty)"
    columns = None
    preamble = [event for event in ("sep", "unset", "empty") if draw(st.booleans())]
    events = draw(
        st.lists(
            st.sampled_from(
                ["row"] * 6 + ["fields", "unset", "empty", "sep", "comment", "blank"]
            ),
            min_size=2,
            max_size=20,
        )
    )
    for event in preamble + ["fields"] + events:
        if event == "fields":
            columns = draw(
                st.lists(
                    st.sampled_from(KNOWN_COLUMNS + UNKNOWN_COLUMNS),
                    min_size=1,
                    max_size=10,
                )
            )
            required = ["ts", draw(st.sampled_from(["id.orig_h", "sourceIP"])),
                        draw(st.sampled_from(["id.resp_h", "destinationIP"]))]
            columns = draw(st.permutations(columns + required))
            lines.append("#fields" + sep + sep.join(columns))
        elif event == "unset":
            unset = "NA" if unset == "-" else "-"
            lines.append("#unset_field" + sep + unset)
        elif event == "empty":
            empty = "EMPTY" if empty == "(empty)" else "(empty)"
            lines.append("#empty_field" + sep + empty)
        elif event == "sep":
            token, sep = draw(st.sampled_from(SEPARATORS))
            lines.append("#separator " + token)
        elif event == "comment":
            lines.append("#path" + sep + "conn")
        elif event == "blank":
            lines.append("")
        else:
            named = [col for col in columns if col]
            # At most one spoiled cell, so that cell alone decides the row.
            spoiled = draw(st.integers(-1, len(named) - 1))
            cells = []
            for i, col in enumerate(named):
                slot = _FIELD_ALIASES.get(col)
                if slot is None:
                    cells.append("SF")
                    continue
                good, bad = SLOT_CELLS[SLOT_KIND.get(slot, "count")]
                kind = draw(st.sampled_from(SPOILS)) if i == spoiled else "good"
                if kind == "good":
                    cells.append(draw(st.sampled_from(good)))
                elif kind == "bad":
                    cells.append(draw(st.sampled_from(bad)))
                else:
                    cells.append(unset if kind == "unset" else empty)
            width = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
            if width < 0:
                cells = cells[:-1]
            elif width > 0:
                cells.append("extra")
            lines.append(sep.join(cells))
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return [line + ending for line in lines]


def _outcome(parse, lines, strict):
    # Errors compare by line only: the reference wraps a bad cell inside the
    # record constructor's arguments a second time ("line 6: line 6: ...").
    try:
        records, stats = parse(lines, strict)
    except ParseError as exc:
        return ("error", exc.line)
    return records, (stats.read, stats.emitted, stats.skipped)


@settings(max_examples=300, deadline=None)
@given(tsv_logs(), st.booleans())
def test_parser_matches_per_row_reference(lines, strict):
    got = _outcome(lambda l, s: read_conn_log(l, format="tsv", strict=s), lines, strict)
    want = _outcome(legacy_read_tsv, lines, strict)
    assert got == want
    if not strict and got[0] != "error":
        _, stats = read_conn_log(lines, format="tsv")
        assert sum(stats.reasons.values()) == stats.skipped


def _streamed(lines, strict):
    stream, stats = parse_conn_log(lines, format="tsv", strict=strict)
    return list(stream), stats


@settings(max_examples=150, deadline=None)
@given(tsv_logs(), st.booleans())
def test_two_row_blocks_change_no_outcome(lines, strict):
    # Every header, refused row and strict error then falls at or next to a
    # block boundary, for the table and for the lazy stream alike.
    want = _outcome(legacy_read_tsv, lines, strict)
    with mock.patch.object(zeek, "_BLOCK_ROWS", 2):
        table = _outcome(lambda l, s: read_conn_log(l, format="tsv", strict=s), lines, strict)
        stream = _outcome(_streamed, lines, strict)
        if not strict and want[0] != "error":
            assert read_conn_log(lines, format="tsv")[1] == _streamed(lines, False)[1]
    assert table == want
    assert stream == want


def test_unset_cells_take_the_column_path():
    # Zeek leaves duration, byte counters and service unset on S0 and REJ
    # rows: such rows convert with their block, never one by one.
    rows = [zeek_row(duration="-", orig_bytes="-", resp_bytes="(empty)", service="-")] * 50
    with mock.patch.object(zeek, "_record_from", side_effect=AssertionError("row path")):
        records, stats = read_conn_log(zeek_tsv(rows + [zeek_row()]))
    assert (stats.read, stats.emitted) == (51, 51)
    first, last = records[0], records[-1]
    assert (first.duration, first.request_bytes, first.bytes) == (0.0, 0, 0)
    assert (first.protocol_service, last.protocol_service) == ("udp", "dns")


def test_flow_table_is_a_read_only_sequence_of_records():
    table, _ = read_conn_log(zeek_tsv([zeek_row(ts=f"{t}.5") for t in range(5)]))
    records = list(table)
    assert isinstance(table, FlowTable) and len(table) == 5 and table
    assert [r.ts for r in records] == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert table[-1] == records[4] and table[1] == records[1]
    assert isinstance(table[1:3], FlowTable) and table[1:3] == records[1:3]
    assert not table[:0] and table[::-1] == records[::-1]
    with pytest.raises(IndexError):
        table[5]
    assert table == tuple(records) and records == table
    assert table != records[:-1] and table != records[::-1] and table != records + records[:1]
    changed = records[:2] + [dataclasses.replace(records[2], source_port=1)] + records[3:]
    assert table != changed
    assert table + records[:1] == records + records[:1]
    assert records[:1] + table == records[:1] + records
    assert isinstance(records[:1] + table, FlowTable) and table + table == records + records
    assert table.column("ts").dtype == np.float64
    assert table.ips == ("192.168.1.10", "8.8.8.8") and table.tokens == ("dns",)
    with pytest.raises(TypeError):
        hash(table)


def test_table_equality_reads_columns_as_record_lists_compare():
    # Table against table compares columns, each reading its IPs and tokens
    # through its own string tuples, and builds no record; every outcome is
    # that of comparing the two record lists.
    rows = [
        make_record(ts=1.0, source_ip="10.0.0.1", destination_ip="10.0.0.2"),
        make_record(ts=2.0, source_ip="10.0.0.3", destination_ip="10.0.0.1",
                    protocol_service="http", duration=-0.0),
        make_record(ts=3.0, source_ip="2001:db8::1", destination_ip="10.0.0.2",
                    protocol_service="ssl", request_bytes=2**70, bytes=2**70 + 120),
    ]
    table = FlowTable.from_records(rows)
    # The same rows under reordered string tables: the last row's strings
    # are coded first, and the prefix row is sliced away again.
    reordered = FlowTable.from_records(rows[::-1] + rows)[3:]
    assert reordered.ips != table.ips and reordered.tokens != table.tokens
    others = [
        reordered,
        FlowTable.from_records(rows[:1] + [dataclasses.replace(rows[1], duration=0.0)] + rows[2:]),
        FlowTable.from_records(rows[:2] + [dataclasses.replace(rows[2], request_bytes=2**70 + 1)]),
        FlowTable.from_records(rows[:2] + [dataclasses.replace(rows[2], request_bytes=60)]),
        FlowTable.from_records(rows[:2]),
        FlowTable.from_records(rows + rows[:1]),
        FlowTable.from_records([]),
    ]
    for attr, value in (
        ("ts", 9.0), ("source_ip", "10.0.0.9"), ("destination_ip", "10.0.0.3"),
        ("source_port", 1), ("destination_port", 80), ("protocol_service", "ntp"),
        ("duration", 0.5), *((name, 7) for name in NUMERIC_FEATURES if name != "duration"),
    ):
        changed = list(rows)
        changed[1] = dataclasses.replace(rows[1], **{attr: value})
        others.append(FlowTable.from_records(changed))
    want = [list(table) == list(other) for other in others]
    assert want[:3] == [True, True, False] and not any(want[3:])
    with mock.patch.object(FlowTable, "__iter__", side_effect=AssertionError("built records")):
        assert [table == other for other in others] == want
        assert [other == table for other in others] == want
        assert FlowTable.from_records([]) == FlowTable.from_records([])


def test_table_keeps_under_a_third_of_a_record_list():
    records = generate(default_roles(8, 2, 2), 1800.0, seed=0)
    buffer = io.StringIO()
    write_zeek_tsv(records, buffer, DEFAULT_TRANSPORTS)
    text = buffer.getvalue()
    read_conn_log(io.StringIO(text))  # fill the parser's memos first
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table, _ = read_conn_log(io.StringIO(text))
        table_bytes = tracemalloc.get_traced_memory()[0] - start
        rows = list(table)
        list_bytes = tracemalloc.get_traced_memory()[0] - start - table_bytes
    finally:
        tracemalloc.stop()
    assert len(rows) == len(records) > 1000
    assert 3 * table_bytes < list_bytes


def test_duplicate_column_falls_back_past_an_unset_last_cell():
    # Such rows convert with their block: only the refused row goes through
    # the row path.
    lines = [
        "#fields\t" + ZEEK_FIELDS + "\tsourceIP",
        zeek_row() + "\t-",
        zeek_row() + "\t10.9.9.9",
        zeek_row(resp_p="70000") + "\t-",
    ]
    with mock.patch.object(zeek, "_record_from", wraps=zeek._record_from) as per_row:
        records, stats = read_conn_log(lines)
    assert per_row.call_count == 1
    assert [r.source_ip for r in records] == ["192.168.1.10", "10.9.9.9"]
    assert stats.reasons == {"out of range": 1}
    assert records == legacy_read_tsv(lines)[0]


def test_a_count_past_int64_keeps_its_column_exact():
    # Python ints while a kept row holds the count; int64 once only a
    # refused row did.
    wide = "99999999999999999999"
    table, _ = read_conn_log(zeek_tsv([zeek_row(orig_bytes=wide), zeek_row()]))
    assert table.column("request_bytes").dtype == object
    assert table[0].request_bytes == int(wide) and table[0].bytes == int(wide) + 184
    table, stats = read_conn_log(zeek_tsv([zeek_row(orig_h="x", orig_bytes=wide), zeek_row()]))
    assert stats.reasons == {"bad IP": 1}
    assert table.column("request_bytes").dtype == table.column("bytes").dtype == np.int64

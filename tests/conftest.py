"""Shared builders for the test suite."""

import gc
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from ipaddress import ip_address

import numpy as np
import pytest
from hypothesis import strategies as st

import ipembed.autodiff as ad
from ipembed.autodiff import Tape, log_sigmoid_np
from ipembed.graphs import (
    N_NUMERIC,
    NUMERIC_FEATURES,
    FlowKey,
    IntervalGraph,
    assign_interval,
    ip_sort_key,
    resolve_origin,
)
from ipembed.model import ForwardResult, _bn
from ipembed.synth import default_roles, make_experiment
from ipembed.zeek import (
    _FIELD_ALIASES,
    ConnRecord,
    ParseError,
    ParseStats,
    _parse_separator,
)


def make_record(**kw):
    """ConnRecord with innocuous defaults, overridable per test."""
    base = dict(
        ts=100.0,
        source_ip="10.0.0.1",
        destination_ip="10.0.0.2",
        source_port=40000,
        destination_port=53,
        protocol_service="dns",
        duration=0.05,
        request_bytes=60,
        response_bytes=120,
        bytes=180,
        request_packets=1,
        response_packets=1,
        request_ip_bytes=88,
        response_ip_bytes=148,
    )
    base.update(kw)
    return ConnRecord(**base)


def random_graph(rng, n_nodes=5, n_pairs=6, feat_dim=4, normalized=True):
    """Random undirected-pair graph with mirrored reverse companions.

    Features are uniform in (0.05, 0.95) so BCE targets stay away from the
    saturated ends; each pair stores one row, which both of its directions
    share.
    """
    n_pairs = min(n_pairs, n_nodes * (n_nodes - 1) // 2)
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, n_nodes, 2)
        if a != b:
            pairs.add((int(min(a, b)), int(max(a, b))))
    pairs = sorted(pairs)
    src, dst, rev, feats = [], [], [], []
    for a, b in pairs:
        row = rng.uniform(0.05, 0.95, feat_dim)
        src += [a, b]
        dst += [b, a]
        rev += [0, 1]
        feats.append(row)
    nodes = tuple(f"10.9.{i // 250}.{i % 250 + 1}" for i in range(n_nodes))
    feats = np.array(feats, dtype=np.float64)
    return IntervalGraph(
        start=0.0,
        end=600.0,
        nodes=nodes,
        edge_src=np.array(src, dtype=np.int32),
        edge_dst=np.array(dst, dtype=np.int32),
        reverse=np.array(rev, dtype=np.uint8),
        raw_features=feats,
        features=feats.copy() if normalized else None,
    )


def version1_snapshot(blob, graph):
    """The version-1 form of ``graph``'s snapshot ``blob``: the same header
    and edges, then a feature row for every edge, companions included."""
    rows = graph.raw_features.astype("<f8")
    return (
        blob[:4]
        + (1).to_bytes(2, "little")
        + blob[6 : len(blob) - rows.nbytes]
        + np.repeat(rows, 2, axis=0).tobytes()
    )


def with_item(graph, name, index, value):
    """A copy of ``graph`` whose array ``name`` has ``[index] = value``."""
    arr = getattr(graph, name).copy()
    arr[index] = value
    return replace(graph, **{name: arr})


def assert_graphs_equal(a, b):
    """Field-by-field equality of two interval graphs, features included."""
    assert (a.start, a.end, a.nodes) == (b.start, b.end, b.nodes)
    for name in ("edge_src", "edge_dst", "reverse", "raw_features"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert (a.features is None) == (b.features is None)
    if a.features is not None:
        np.testing.assert_array_equal(a.features, b.features)


def damaged(blob):
    """Hypothesis strategy over every truncation and every single-bit flip
    of ``blob``."""

    def flip(bit):
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
        st.integers(0, 8 * len(blob) - 1).map(flip),
    )


def rewrite_model_section(path, index, edit):
    """Replace section ``index`` of a model file (0 config, 1 vocab,
    2 scaler, 3 tensor table) with ``edit(payload_bytes)``.

    Sections follow the 4-byte magic and 2-byte version, each a u64 length
    plus payload. The tensor table fills the rest of the file: a u32 count,
    then per tensor a u16 name length, the name, u32 rows and cols, and the
    float64 values.
    """
    blob = path.read_bytes()
    start = 6
    for _ in range(index):
        start += 8 + int.from_bytes(blob[start : start + 8], "little")
    if index == 3:
        path.write_bytes(blob[:start] + edit(blob[start:]))
        return
    length = int.from_bytes(blob[start : start + 8], "little")
    payload = edit(blob[start + 8 : start + 8 + length])
    path.write_bytes(
        blob[:start]
        + len(payload).to_bytes(8, "little")
        + payload
        + blob[start + 8 + length :]
    )


def model_tensor_record(name, rows=1, cols=1):
    """One model-file tensor record holding zeros."""
    encoded = name.encode("utf-8")
    return (
        len(encoded).to_bytes(2, "little")
        + encoded
        + rows.to_bytes(4, "little")
        + cols.to_bytes(4, "little")
        + bytes(8 * rows * cols)
    )


def with_model_tensor(table, record):
    """A model tensor table (section 3) with ``record`` appended."""
    count = int.from_bytes(table[:4], "little")
    return (count + 1).to_bytes(4, "little") + table[4:] + record


def rewrite_model_config(path, edit):
    """Replace the JSON config section of a model file with ``edit(doc)``."""
    rewrite_model_section(
        path, 0, lambda raw: json.dumps(edit(json.loads(raw))).encode("utf-8")
    )


def set_array(params, name, value):
    """Overwrite the trainable array ``name`` of ``params`` in place."""
    for existing_name, arr in params.named_arrays():
        if existing_name == name:
            arr[...] = value
            return
    raise KeyError(name)


def reconstruction_loss(targets, probs, weight):
    """Weighted mean binary cross entropy of decoded probabilities, the
    plain-array oracle for the model's reconstruction term.

    The limits ``0 * log 0`` are taken as zero so exact hits at 0 or 1 cost
    nothing.
    """
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(t > 0, t * np.log(p), 0.0)
        right = np.where(t < 1, (1.0 - t) * np.log1p(-p), 0.0)
    values = -(left + right)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("cross entropy diverged (probability hit 0 or 1)")
    return float(weight * values.mean())


def neighbor_loss(embeddings, recv, send, weight):
    """``-weight * sum over directed edges of log sigmoid(h_recv . h_send)``,
    the plain-array oracle for the model's neighbor term."""
    h = np.asarray(embeddings, dtype=np.float64)
    recv = np.asarray(recv, dtype=np.int64)
    send = np.asarray(send, dtype=np.int64)
    dots = np.einsum("ij,ij->i", h[recv], h[send])
    return float(-weight * log_sigmoid_np(dots).sum())


# ---------------------------------------------------------------------------
# Edge-side reference model. Every endpoint weight is applied after the
# gather, to E edge rows, and the input layer projects before it pools. The
# package's node-side layers must agree with it; see the differential tests
# in test_model.py.


def _concat_cols(parts):
    """Stack tape tensors side by side (extend each row)."""
    offsets = np.cumsum([0] + [t.shape[1] for t in parts])

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    data = np.concatenate([t.data for t in parts], axis=1)
    return parts[0].tape._record(data, tuple(parts), vjp)


def legacy_input_layer(leaves, params, config, gt, e0, mode):
    transformed = ad.relu(
        _bn(
            ad.linear(e0, leaves["edge_embed"]),
            leaves, params, "bn_edge_in", mode,
        )
    )
    edge_state = ad.add(e0, transformed)
    gates = ad.gate_normalize(edge_state, gt.recv_segments)
    gated = ad.linear(ad.hadamard(gates, e0), leaves["edge_to_node"])
    pooled = ad.segment_sum(gated, gt.recv_segments)
    h = ad.relu(_bn(pooled, leaves, params, "bn_node_in", mode))
    return h, edge_state, gates


def legacy_conv_layer(leaves, params, config, gt, h, edge_state, layer, mode):
    prefix = f"conv{layer}"
    h_recv = ad.gather_rows(h, gt.recv_segments)
    h_send = ad.gather_rows(h, gt.send_segments)
    projected = ad.linear(edge_state, leaves[f"{prefix}.gate_edge"])
    pre = ad.add(
        ad.add(
            ad.linear(h_recv, leaves[f"{prefix}.gate_recv"]),
            ad.linear(h_send, leaves[f"{prefix}.gate_send"]),
        ),
        projected,
    )
    update_term = ad.relu(
        _bn(pre, leaves, params, f"{prefix}.bn_edge", mode)
    )
    # First layer: the residual carries the projected edge state so deeper
    # layers live in the hidden dimension.
    residual = projected if layer == 0 else edge_state
    new_edge_state = ad.add(residual, update_term)
    gates = ad.gate_normalize(new_edge_state, gt.recv_segments)
    messages = ad.hadamard(gates, ad.linear(h_send, leaves[f"{prefix}.node_msg"]))
    pooled = ad.segment_sum(messages, gt.recv_segments)
    node_pre = ad.add(ad.linear(h, leaves[f"{prefix}.node_self"]), pooled)
    new_h = ad.add(
        h,
        ad.relu(
            _bn(node_pre, leaves, params, f"{prefix}.bn_node", mode)
        ),
    )
    return new_h, new_edge_state, gates


def legacy_decode(leaves, gt, h, edge_state):
    h_recv = ad.gather_rows(h, gt.recv_segments)
    h_send = ad.gather_rows(h, gt.send_segments)
    joined = _concat_cols([h_recv, h_send, edge_state])
    hidden = ad.relu(
        ad.add(ad.linear(joined, leaves["dec_hidden_w"]), leaves["dec_hidden_b"])
    )
    logits = ad.add(ad.linear(hidden, leaves["dec_out_w"]), leaves["dec_out_b"])
    return logits, h_recv, h_send


def legacy_forward(params, config, gt, mode="train"):
    """The model's forward pass and loss, with the edge-side layers above.
    Returns the ``ForwardResult`` of a fresh recording tape."""
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.named_arrays()}
    e0 = tape.leaf(gt.feats)
    h, edge_state, gates0 = legacy_input_layer(leaves, params, config, gt, e0, mode)
    all_gates = [gates0]
    for layer in range(config.layers):
        h, edge_state, gates = legacy_conv_layer(
            leaves, params, config, gt, h, edge_state, layer, mode
        )
        all_gates.append(gates)
    logits, h_recv, h_send = legacy_decode(leaves, gt, h, edge_state)
    recon = ad.scalar_mul(
        ad.bce_with_logits_mean(logits, gt.feats), config.lambda_recon
    )
    dots = ad.row_sums(ad.hadamard(h_recv, h_send))
    neighbor = ad.scalar_mul(
        ad.sum_all(ad.log_sigmoid(dots)), -config.lambda_neighbor
    )
    return ForwardResult(
        node_states=h,
        edge_states=edge_state,
        logits=logits,
        gates=all_gates,
        recon_loss=recon,
        neighbor_loss=neighbor,
        loss=ad.add(recon, neighbor),
        leaves=leaves,
    )


# ---------------------------------------------------------------------------
# Per-row reference implementations of the TSV parser and of flow
# aggregation and graph assembly. The package's array versions must agree
# with them; see the differential properties in test_zeek.py and
# test_graphs.py.


def legacy_read_tsv(lines, strict=False):
    """Parse TSV lines one dict per row: ``(records, stats)`` as
    ``read_conn_log(lines, format="tsv", strict=strict)`` returns them
    (``stats.reasons`` stays empty)."""
    stats = ParseStats()
    records = list(_legacy_parse_tsv(enumerate(lines, 1), strict, stats))
    return records, stats


def _legacy_parse_tsv(numbered, strict, stats):
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
            record = _legacy_record_from(values, line_no)
        except ParseError:
            if strict:
                raise
            stats.skipped += 1
            continue
        stats.emitted += 1
        yield record


def _legacy_float(value, name, line_no) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"bad {name}: {value!r}", line_no) from None
    if not math.isfinite(out):
        raise ParseError(f"bad {name}: {value!r}", line_no)
    return out


def _legacy_int(value, name, line_no) -> int:
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


def _legacy_record_from(values: dict, line_no: int) -> ConnRecord:
    for required in ("ts", "source_ip", "destination_ip"):
        if required not in values:
            raise ParseError(f"missing required field {required}", line_no)
    token = (
        values.get("protocol_service")
        or values.get("service")
        or values.get("proto")
        or "unknown"
    )
    request_bytes = _legacy_int(
        values.get("request_bytes", 0), "request_bytes", line_no
    )
    response_bytes = _legacy_int(
        values.get("response_bytes", 0), "response_bytes", line_no
    )
    if "bytes" in values:
        total_bytes = _legacy_int(values["bytes"], "bytes", line_no)
    else:
        total_bytes = request_bytes + response_bytes
    try:
        return _legacy_conn_record(
            ts=_legacy_float(values["ts"], "ts", line_no),
            source_ip=str(values["source_ip"]).strip(),
            destination_ip=str(values["destination_ip"]).strip(),
            source_port=_legacy_int(
                values.get("source_port", 0), "source_port", line_no
            ),
            destination_port=_legacy_int(
                values.get("destination_port", 0), "destination_port", line_no
            ),
            protocol_service=str(token),
            duration=_legacy_float(values.get("duration", 0.0), "duration", line_no),
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            bytes=total_bytes,
            request_packets=_legacy_int(
                values.get("request_packets", 0), "request_packets", line_no
            ),
            response_packets=_legacy_int(
                values.get("response_packets", 0), "response_packets", line_no
            ),
            request_ip_bytes=_legacy_int(
                values.get("request_ip_bytes", 0), "request_ip_bytes", line_no
            ),
            response_ip_bytes=_legacy_int(
                values.get("response_ip_bytes", 0), "response_ip_bytes", line_no
            ),
        )
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _legacy_conn_record(**fields) -> ConnRecord:
    """A ConnRecord validated by the reference checks below instead of its
    own ``__post_init__``."""
    record = object.__new__(ConnRecord)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    _legacy_validate(record)
    return record


def _legacy_validate(self):
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


def _legacy_record_vector(record: ConnRecord) -> np.ndarray:
    return np.array(
        [getattr(record, name) for name in NUMERIC_FEATURES], dtype=np.float64
    )


def legacy_aggregate_flows(records, interval_len, origin=None):
    """Record-by-record ``aggregate_flows``."""
    if origin is None:
        records = list(records)
        if not records:
            return {}
        origin = resolve_origin(records, interval_len)
    out: dict[int, dict[FlowKey, np.ndarray]] = {}
    for record in records:
        idx = assign_interval(record.ts, interval_len, origin)
        key = FlowKey(record.source_ip, record.destination_ip, record.protocol_service)
        groups = out.setdefault(idx, {})
        vec = groups.get(key)
        if vec is None:
            groups[key] = _legacy_record_vector(record)
        else:
            vec += _legacy_record_vector(record)
    return out


def legacy_build_graph(groups, vocab, start, end):
    """Pair-by-pair ``build_graph``."""
    if not groups:
        raise ValueError("cannot build a graph from zero flow groups")
    p = vocab.size
    dim = p + p * N_NUMERIC
    ips = sorted(
        {k.source_ip for k in groups} | {k.destination_ip for k in groups},
        key=ip_sort_key,
    )
    index = {ip: i for i, ip in enumerate(ips)}
    pair_feats: dict[tuple[int, int], np.ndarray] = {}
    for key, vec in groups.items():
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (N_NUMERIC,):
            raise ValueError(f"bad aggregate vector shape {vec.shape}")
        pair = (index[key.source_ip], index[key.destination_ip])
        row = pair_feats.get(pair)
        if row is None:
            row = pair_feats[pair] = np.zeros(dim, dtype=np.float64)
        slot = vocab.slot(key.protocol_service)
        row[slot] = 1.0
        base = p + slot * N_NUMERIC
        row[base : base + N_NUMERIC] += vec

    pairs = sorted(pair_feats)
    n_edges = 2 * len(pairs)
    edge_src = np.empty(n_edges, dtype=np.int32)
    edge_dst = np.empty(n_edges, dtype=np.int32)
    reverse = np.zeros(n_edges, dtype=np.uint8)
    feats = np.empty((len(pairs), dim), dtype=np.float64)
    for k, (src, dst) in enumerate(pairs):
        edge_src[2 * k] = src
        edge_dst[2 * k] = dst
        feats[k] = pair_feats[(src, dst)]
        edge_src[2 * k + 1] = dst
        edge_dst[2 * k + 1] = src
        reverse[2 * k + 1] = 1
    return IntervalGraph(
        start=float(start),
        end=float(end),
        nodes=tuple(ips),
        edge_src=edge_src,
        edge_dst=edge_dst,
        reverse=reverse,
        raw_features=feats,
    )


def legacy_build_interval_graphs(records, interval_len, vocab, origin=None):
    """``build_interval_graphs`` over the two reference loops above."""
    records = list(records)
    if origin is None:
        origin = resolve_origin(records, interval_len)
    aggregates = legacy_aggregate_flows(records, interval_len, origin)
    return [
        legacy_build_graph(
            aggregates[idx],
            vocab,
            origin + idx * interval_len,
            origin + (idx + 1) * interval_len,
        )
        for idx in sorted(aggregates)
    ]


@contextmanager
def cyclic_gc_off():
    """Run the block with the cyclic garbage collector disabled, so only
    reference counting frees memory inside it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="session")
def wide_experiment():
    """An experiment whose test graph has 5,436 edges, more than five edge
    blocks."""
    return make_experiment(default_roles(120, 12, 18), duration=1800.0, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one summary line per acceptance check, bypassing capture.

    Tests opt in by carrying a ``_criterion_label`` attribute (see
    test_acceptance.py); everything else is untouched.
    """
    outcome = yield
    rep = outcome.get_result()
    label = getattr(getattr(item, "function", None), "_criterion_label", None)
    if label is None:
        return
    if rep.when == "call" or (rep.when == "setup" and not rep.passed):
        verdict = "PASS" if rep.passed else "FAIL"
        detail = getattr(item.module, "DETAILS", {}).get(label, "")
        suffix = f": {detail}" if detail else ""
        print(f"[{verdict}] {label}{suffix}", file=sys.__stderr__, flush=True)

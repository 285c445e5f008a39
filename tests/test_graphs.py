"""Interval graph construction: windowing, aggregation, feature layout,
normalization, and the binary snapshot format."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    damaged,
    legacy_aggregate_flows,
    legacy_build_interval_graphs,
    make_record,
    version1_snapshot,
    with_item,
)
from ipembed.binio import FormatError
from ipembed.graphs import (
    NUMERIC_FEATURES,
    OTHER_TOKEN,
    FeatureScaler,
    FlowKey,
    IntervalGraph,
    ProtocolVocab,
    aggregate_flows,
    assign_interval,
    build_graph,
    build_interval_graphs,
    fit_protocol_vocab,
    fit_scaler,
    ip_sort_key,
    load_graph,
    load_graph_dir,
    normalize,
    resolve_origin,
    save_graph,
    validate_graph,
)

REQ_BYTES = NUMERIC_FEATURES.index("request_bytes")


def test_numeric_feature_order():
    # Layout contract: response-side counters come before request-side ones.
    assert NUMERIC_FEATURES == (
        "response_bytes",
        "request_bytes",
        "duration",
        "bytes",
        "response_packets",
        "request_packets",
        "response_ip_bytes",
        "request_ip_bytes",
    )


def test_assign_interval_boundaries():
    assert assign_interval(600.0, 600.0, 0.0) == 1
    assert assign_interval(599.99, 600.0, 0.0) == 0
    assert assign_interval(7200.0, 600.0, 3600.0) == 6
    assert assign_interval(0.0, 600.0, 0.0) == 0


def test_assign_interval_errors():
    with pytest.raises(ValueError):
        assign_interval(100.0, 600.0, 200.0)
    with pytest.raises(ValueError):
        assign_interval(100.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        assign_interval(100.0, -5.0, 0.0)


@pytest.mark.parametrize("origin", [-np.inf, np.nan, np.inf])
def test_non_finite_origin_is_refused(origin):
    with pytest.raises(ValueError, match="origin must be finite"):
        assign_interval(100.0, 600.0, origin)
    with pytest.raises(ValueError, match="origin must be finite"):
        aggregate_flows([make_record(ts=100.0)], 600.0, origin)


def test_resolve_origin_floors_to_boundary():
    records = [make_record(ts=1250.0), make_record(ts=3000.0)]
    assert resolve_origin(records, 600.0) == 1200.0


def test_aggregate_sums_within_group():
    records = [
        make_record(request_bytes=100, bytes=100, response_bytes=0),
        make_record(request_bytes=50, bytes=50, response_bytes=0),
    ]
    out = aggregate_flows(records, 600.0, origin=0.0)
    assert list(out) == [0]
    groups = out[0]
    key = FlowKey("10.0.0.1", "10.0.0.2", "dns")
    assert set(groups) == {key}
    assert groups[key][REQ_BYTES] == 150


def test_direction_and_protocol_split_groups():
    records = [
        make_record(),
        make_record(source_ip="10.0.0.2", destination_ip="10.0.0.1"),
        make_record(protocol_service="http"),
    ]
    groups = aggregate_flows(records, 600.0, origin=0.0)[0]
    assert len(groups) == 3
    assert FlowKey("10.0.0.1", "10.0.0.2", "dns") in groups
    assert FlowKey("10.0.0.2", "10.0.0.1", "dns") in groups
    assert FlowKey("10.0.0.1", "10.0.0.2", "http") in groups


def test_aggregate_matches_brute_force(rng):
    ips = [f"10.0.0.{i}" for i in range(1, 6)]
    protos = ["dns", "http", "ssl"]
    records = []
    for _ in range(100):
        src, dst = rng.choice(ips, 2, replace=False)
        rb = int(rng.integers(0, 5000))
        vb = int(rng.integers(0, 5000))
        records.append(
            make_record(
                ts=float(rng.uniform(0, 3000)),
                source_ip=src,
                destination_ip=dst,
                protocol_service=str(rng.choice(protos)),
                request_bytes=rb,
                response_bytes=vb,
                bytes=rb + vb,
                request_packets=int(rng.integers(0, 50)),
                response_packets=int(rng.integers(0, 50)),
                request_ip_bytes=int(rng.integers(0, 6000)),
                response_ip_bytes=int(rng.integers(0, 6000)),
                duration=float(rng.uniform(0, 9)),
            )
        )
    out = aggregate_flows(records, 600.0, origin=0.0)

    expected = {}
    for r in records:
        idx = int(np.floor(r.ts / 600.0))
        key = FlowKey(r.source_ip, r.destination_ip, r.protocol_service)
        vec = np.array([getattr(r, name) for name in NUMERIC_FEATURES], float)
        expected.setdefault(idx, {})
        if key in expected[idx]:
            expected[idx][key] = expected[idx][key] + vec
        else:
            expected[idx][key] = vec

    assert set(out) == set(expected)
    for idx in expected:
        assert set(out[idx]) == set(expected[idx])
        for key in expected[idx]:
            np.testing.assert_array_equal(out[idx][key], expected[idx][key])


def test_vocab_sorted_with_other_last():
    groups = {
        FlowKey("10.0.0.1", "10.0.0.2", "ssl"): np.zeros(8),
        FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.zeros(8),
        FlowKey("10.0.0.1", "10.0.0.3", "http"): np.zeros(8),
    }
    vocab = fit_protocol_vocab({0: groups})
    assert vocab.tokens == ("dns", "http", "ssl", "other")
    assert vocab.size == 4
    assert vocab.slot("dns") == 0
    assert vocab.slot("ntp") == 3  # unseen maps to the catch-all slot


def test_vocab_single_token():
    groups = {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.zeros(8)}
    vocab = fit_protocol_vocab({0: groups})
    assert vocab.tokens == ("dns", "other")


def test_vocab_empty_input_rejected():
    with pytest.raises(ValueError):
        fit_protocol_vocab({})
    with pytest.raises(ValueError):
        fit_protocol_vocab({0: {}})


def test_vocab_requires_trailing_other():
    with pytest.raises(ValueError):
        ProtocolVocab(("dns", "http"))
    with pytest.raises(ValueError):
        ProtocolVocab(("dns", "dns", "other"))


def test_build_graph_hand_layout():
    # One dns pair, requestBytes 150, all other counters zero, P=2:
    # vector = [onehot 1,0 | dns numeric block | all-zero other block], d=18.
    vec = np.zeros(8)
    vec[REQ_BYTES] = 150.0
    groups = {FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec}
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)

    assert graph.feat_dim == 2 + 2 * 8 == 18
    assert graph.n_nodes == 2
    assert graph.n_edges == 2
    expected = np.zeros(18)
    expected[0] = 1.0  # dns one-hot
    expected[2 + REQ_BYTES] = 150.0
    # One row per forward edge: the companion shares it.
    np.testing.assert_array_equal(graph.raw_features, [expected])


def test_build_graph_reverse_companions():
    vec = np.arange(1.0, 9.0)
    groups = {
        FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec,
        FlowKey("10.0.0.3", "10.0.0.1", "http"): vec * 2,
    }
    vocab = ProtocolVocab(("dns", "http", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)
    validate_graph(graph)

    assert graph.n_edges == 4
    assert graph.raw_features.shape == (2, graph.feat_dim)
    for k in range(0, graph.n_edges, 2):
        assert graph.reverse[k] == 0
        assert graph.reverse[k + 1] == 1
        assert graph.edge_src[k] == graph.edge_dst[k + 1]
        assert graph.edge_dst[k] == graph.edge_src[k + 1]


def test_two_protocols_one_pair_single_edge():
    groups = {
        FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.full(8, 3.0),
        FlowKey("10.0.0.1", "10.0.0.2", "http"): np.full(8, 7.0),
    }
    vocab = ProtocolVocab(("dns", "http", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)

    assert graph.n_edges == 2  # one forward + one reverse, not two pairs
    onehot = graph.raw_features[0][:3]
    np.testing.assert_array_equal(onehot, [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(graph.raw_features[0][3:11], np.full(8, 3.0))
    np.testing.assert_array_equal(graph.raw_features[0][11:19], np.full(8, 7.0))


def test_unseen_protocols_sum_into_other_block():
    groups = {
        FlowKey("10.0.0.1", "10.0.0.2", "ntp"): np.full(8, 2.0),
        FlowKey("10.0.0.1", "10.0.0.2", "ssh"): np.full(8, 5.0),
    }
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)

    onehot = graph.raw_features[0][:2]
    np.testing.assert_array_equal(onehot, [0.0, 1.0])
    np.testing.assert_array_equal(graph.raw_features[0][2:10], np.zeros(8))
    np.testing.assert_array_equal(graph.raw_features[0][10:18], np.full(8, 7.0))


def test_node_ordering_v4_numeric_then_v6():
    groups = {
        FlowKey("10.0.0.10", "10.0.0.9", "dns"): np.zeros(8),
        FlowKey("2001:db8::1", "10.0.0.10", "dns"): np.zeros(8),
    }
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)
    assert graph.nodes == ("10.0.0.9", "10.0.0.10", "2001:db8::1")
    assert ip_sort_key("10.0.0.9") < ip_sort_key("10.0.0.10")
    assert ip_sort_key("255.255.255.255") < ip_sort_key("::1")


def test_build_graph_deterministic():
    rng = np.random.default_rng(7)
    groups = {
        FlowKey(f"10.0.{i}.1", f"10.0.{i}.2", "dns"): rng.uniform(0, 100, 8)
        for i in range(10)
    }
    vocab = ProtocolVocab(("dns", "other"))
    a = build_graph(dict(groups), vocab, 0.0, 600.0)
    b = build_graph(dict(reversed(list(groups.items()))), vocab, 0.0, 600.0)
    assert a.nodes == b.nodes
    np.testing.assert_array_equal(a.edge_src, b.edge_src)
    np.testing.assert_array_equal(a.edge_dst, b.edge_dst)
    np.testing.assert_array_equal(a.raw_features, b.raw_features)


def test_build_interval_graphs_ordering():
    records = [
        make_record(ts=50.0),
        make_record(ts=1250.0, protocol_service="http"),
    ]
    vocab = ProtocolVocab(("dns", "http", "other"))
    graphs = build_interval_graphs(records, 600.0, vocab, origin=0.0)
    assert [g.start for g in graphs] == [0.0, 1200.0]
    assert [g.end for g in graphs] == [600.0, 1800.0]


def test_scaler_log1p_identity():
    vec = np.zeros(8)
    vec[REQ_BYTES] = np.e - 1.0
    groups = {FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec}
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)
    scaler = fit_scaler([graph])
    assert scaler.log_max[REQ_BYTES] == pytest.approx(1.0, abs=1e-12)


def test_scaler_zero_dimension_guard():
    groups = {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.zeros(8)}
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(groups, vocab, 0.0, 600.0)
    scaler = fit_scaler([graph])
    np.testing.assert_array_equal(scaler.log_max, np.ones(16))


def test_scaler_max_across_graphs():
    vocab = ProtocolVocab(("dns", "other"))
    graphs = []
    for value in (10.0, 1000.0):
        vec = np.zeros(8)
        vec[REQ_BYTES] = value
        graphs.append(
            build_graph({FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec}, vocab, 0.0, 600.0)
        )
    scaler = fit_scaler(graphs)
    assert scaler.log_max[REQ_BYTES] == pytest.approx(np.log1p(1000.0))


def test_normalize_values_and_clamp():
    vocab = ProtocolVocab(("dns", "other"))
    vec = np.zeros(8)
    vec[REQ_BYTES] = 100.0
    train = build_graph({FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec}, vocab, 0.0, 600.0)
    scaler = fit_scaler([train])

    normed = normalize(train, scaler)
    assert normed.features is not None
    assert normed.features[0, 2 + REQ_BYTES] == pytest.approx(1.0)
    assert normed.features[0, 0] == 1.0  # one-hot copied unchanged
    assert normed.features[0, 2] == 0.0  # raw zero stays zero

    inflated = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec * 10}, vocab, 0.0, 600.0
    )
    clamped = normalize(inflated, scaler)
    assert clamped.features[0, 2 + REQ_BYTES] == 1.0


def test_normalize_matches_the_out_of_place_formula(wide_experiment):
    # Dividing and clipping in log1p's result leaves every bit as the
    # out-of-place formula does, and the raw features as they were. The
    # halved maxima clip part of the cells at 1.
    graph = wide_experiment.test_graphs[0]
    scaler = FeatureScaler(wide_experiment.scaler.log_max / 2)
    raw = graph.raw_features.copy()
    p = raw.shape[1] // (1 + len(NUMERIC_FEATURES))
    expected = raw.copy()
    expected[:, p:] = np.minimum(np.log1p(raw[:, p:]) / scaler.log_max, 1.0)
    normed = normalize(graph, scaler)
    assert 0 < np.count_nonzero(normed.features[:, p:] == 1.0) < normed.features[:, p:].size
    assert normed.features.tobytes() == expected.tobytes()
    assert graph.raw_features.tobytes() == raw.tobytes()


def test_normalize_dimension_mismatch():
    vocab = ProtocolVocab(("dns", "other"))
    vec = np.ones(8)
    graph = build_graph({FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec}, vocab, 0.0, 600.0)
    with pytest.raises(ValueError):
        normalize(graph, FeatureScaler(np.ones(8)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e12), min_size=8, max_size=8))
def test_normalize_bounds_property(values):
    vocab = ProtocolVocab(("dns", "other"))
    vec = np.array(values)
    graph = build_graph({FlowKey("10.0.0.1", "10.0.0.2", "dns"): vec}, vocab, 0.0, 600.0)
    scaler = fit_scaler([graph])
    normed = normalize(graph, scaler)
    assert np.all(normed.features >= 0.0)
    assert np.all(normed.features <= 1.0)


def test_snapshot_round_trip(tmp_path, rng):
    vocab = ProtocolVocab(("dns", "http", "other"))
    groups = {
        FlowKey(f"10.1.{i}.1", f"10.1.{i}.2", "dns"): rng.uniform(0, 1e6, 8)
        for i in range(5)
    }
    graph = build_graph(groups, vocab, 1200.0, 1800.0)
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    loaded = load_graph(path)

    assert loaded.start == graph.start and loaded.end == graph.end
    assert loaded.nodes == graph.nodes
    np.testing.assert_array_equal(loaded.edge_src, graph.edge_src)
    np.testing.assert_array_equal(loaded.edge_dst, graph.edge_dst)
    np.testing.assert_array_equal(loaded.reverse, graph.reverse)
    np.testing.assert_array_equal(loaded.raw_features, graph.raw_features)


def test_snapshot_corrupted_magic(tmp_path):
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_graph(path)


def test_snapshot_truncated(tmp_path):
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(FormatError):
        load_graph(path)


def test_version_1_snapshot_asks_for_a_rebuild(tmp_path):
    graph = _two_pair_graph()
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = version1_snapshot(path.read_bytes(), graph)
    # Refused on its version, before anything past it is read.
    for data in (blob, blob[:6]):
        path.write_bytes(data)
        with pytest.raises(FormatError, match="version 1 stores companion rows.*build-graphs"):
            load_graph(path)


def test_odd_edge_count_is_refused_before_the_features(tmp_path):
    path = tmp_path / "graph.ipgr"
    graph = _drop_last_edge(_two_pair_graph())
    save_graph(graph, path)
    # magic, version, start/end, dim/n_nodes, node table, edge count, then
    # source, destination and reverse flag of each edge
    offset = 4 + 2 + 16 + 8 + sum(2 + len(ip) for ip in graph.nodes) + 4
    offset += 9 * graph.n_edges
    path.write_bytes(path.read_bytes()[:offset])
    with pytest.raises(FormatError, match="even"):
        load_graph(path)


@pytest.mark.parametrize("array,value", [("edge_src", 1_000_000), ("edge_dst", -1)])
def test_snapshot_edge_index_out_of_range(tmp_path, array, value):
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = bytearray(path.read_bytes())
    # magic, version, start/end, dim/n_nodes, node table, edge count
    offset = 4 + 2 + 16 + 8 + sum(2 + len(ip) for ip in graph.nodes) + 4
    if array == "edge_dst":
        offset += 4 * graph.n_edges
    assert int.from_bytes(blob[offset : offset + 4], "little") == getattr(graph, array)[0]
    blob[offset : offset + 4] = value.to_bytes(4, "little", signed=True)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_graph(path)


def test_snapshot_edge_count_past_end_is_refused_before_reading(tmp_path):
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = bytearray(path.read_bytes())
    # magic, version, start/end, dim/n_nodes, node table
    offset = 4 + 2 + 16 + 8 + sum(2 + len(ip) for ip in graph.nodes)
    assert int.from_bytes(blob[offset : offset + 4], "little") == graph.n_edges
    blob[offset : offset + 4] = (2**32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="truncated"):
        load_graph(path)


def test_snapshot_node_name_not_utf8(tmp_path):
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"10.0.0.2", b"\xff0.0.0.2"))
    with pytest.raises(FormatError, match="UTF-8"):
        load_graph(path)


def test_snapshot_duplicate_node_name(tmp_path):
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    blob = path.read_bytes()
    assert blob.count(b"10.0.0.2") == 1
    path.write_bytes(blob.replace(b"10.0.0.2", b"10.0.0.1"))
    with pytest.raises(FormatError, match="twice"):
        load_graph(path)


@pytest.fixture(scope="module")
def saved_snapshot(tmp_path_factory):
    """Bytes of one small saved graph, and a path to write damaged copies to."""
    vocab = ProtocolVocab(("dns", "http", "other"))
    groups = {
        FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.arange(8.0),
        FlowKey("10.0.0.2", "10.0.0.3", "http"): np.ones(8),
    }
    path = tmp_path_factory.mktemp("snapshot") / "graph.ipgr"
    save_graph(build_graph(groups, vocab, 0.0, 600.0), path)
    return path.read_bytes(), path


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_snapshot_loads_or_is_format_error(saved_snapshot, data):
    blob, path = saved_snapshot
    path.write_bytes(data.draw(damaged(blob)))
    try:
        load_graph(path)
    except FormatError:
        pass


def test_validate_graph_rejects_duplicate_node_name():
    vocab = ProtocolVocab(("dns", "other"))
    graph = build_graph(
        {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}, vocab, 0.0, 600.0
    )
    validate_graph(graph)
    twice = replace(graph, nodes=("10.0.0.1", "10.0.0.1"))
    with pytest.raises(ValueError, match="twice"):
        validate_graph(twice)


def _swap_edge_pairs(graph):
    # Second forward edge becomes a copy of the first, companion included.
    src, dst = graph.edge_src.copy(), graph.edge_dst.copy()
    src[2:4], dst[2:4] = src[0:2], dst[0:2]
    return replace(graph, edge_src=src, edge_dst=dst)


BROKEN_COMPANIONS = [
    (lambda g: with_item(g, "reverse", 0, 1), "interleave"),
    (lambda g: with_item(g, "reverse", 3, 0), "interleave"),
    (lambda g: with_item(g, "edge_dst", 1, 2), "mirror"),
    (_swap_edge_pairs, "duplicate forward edge"),
]


def _two_pair_graph():
    groups = {
        FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8),
        FlowKey("10.0.0.2", "10.0.0.3", "dns"): np.ones(8),
    }
    return build_graph(groups, ProtocolVocab(("dns", "other")), 0.0, 600.0)


@pytest.mark.parametrize("break_graph,message", BROKEN_COMPANIONS)
def test_validate_graph_rejects_broken_companions(break_graph, message):
    graph = _two_pair_graph()
    validate_graph(graph)
    with pytest.raises(ValueError, match=message):
        validate_graph(break_graph(graph))


def _with_pair_cell(graph, column, value):
    """Set one feature cell of the first pair, which both its edges share."""
    return with_item(graph, "raw_features", (0, column), value)


# Columns of _two_pair_graph: 0-1 the dns/other one-hot, 2-17 the sums.
BROKEN_FEATURES = [
    (lambda g: _with_pair_cell(g, 0, 7.0), "one-hot"),
    (lambda g: _with_pair_cell(g, 1, 0.5), "one-hot"),
    (lambda g: _with_pair_cell(g, 0, np.nan), "one-hot"),
    (lambda g: _with_pair_cell(g, 5, np.nan), "negative or not finite"),
    (lambda g: _with_pair_cell(g, 5, np.inf), "negative or not finite"),
    (lambda g: _with_pair_cell(g, 5, -5.0), "negative or not finite"),
    (lambda g: _with_pair_cell(g, 5, -0.0), None),
]


@pytest.mark.parametrize("break_graph,message", BROKEN_FEATURES)
def test_validate_graph_checks_feature_values(break_graph, message):
    graph = break_graph(_two_pair_graph())
    if message is None:
        validate_graph(graph)
    else:
        with pytest.raises(ValueError, match=message):
            validate_graph(graph)


def _drop_last_edge(graph):
    # The last pair's feature row stays: it still serves the forward edge.
    return replace(
        graph,
        edge_src=graph.edge_src[:-1],
        edge_dst=graph.edge_dst[:-1],
        reverse=graph.reverse[:-1],
    )


@pytest.mark.parametrize(
    "break_graph,message",
    [*BROKEN_COMPANIONS, *BROKEN_FEATURES[:-1], (_drop_last_edge, "even")],
)
def test_load_graph_refuses_what_validate_graph_refuses(
    tmp_path, break_graph, message
):
    path = tmp_path / "graph.ipgr"
    save_graph(break_graph(_two_pair_graph()), path)
    with pytest.raises(FormatError, match=message):
        load_graph(path)


@pytest.mark.parametrize(
    "start,end",
    [(np.nan, -5.0), (np.nan, 600.0), (-np.inf, 600.0), (600.0, 600.0), (700.0, 600.0)],
)
def test_snapshot_with_bad_interval_bounds_is_refused(tmp_path, start, end):
    graph = replace(_two_pair_graph(), start=start, end=end)
    with pytest.raises(ValueError, match="interval bounds"):
        validate_graph(graph)
    path = tmp_path / "graph.ipgr"
    save_graph(graph, path)
    with pytest.raises(FormatError, match="interval bounds"):
        load_graph(path)


def test_interval_lost_to_rounding_is_refused():
    # At origin 1e20 adding 600 s changes nothing, so the interval would
    # be [1e20, 1e20).
    vocab = ProtocolVocab(("dns", "other"))
    with pytest.raises(ValueError, match="empty"):
        build_interval_graphs([make_record(ts=1e20)], 600.0, vocab, origin=1e20)
    group = {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.ones(8)}
    with pytest.raises(ValueError, match="empty"):
        build_graph(group, vocab, 600.0, 600.0)


def test_load_graph_dir_sorted(tmp_path):
    vocab = ProtocolVocab(("dns", "other"))
    for i in (2, 0, 1):
        graph = build_graph(
            {FlowKey("10.0.0.1", "10.0.0.2", "dns"): np.full(8, float(i))},
            vocab,
            i * 600.0,
            (i + 1) * 600.0,
        )
        save_graph(graph, tmp_path / f"graph_{i:06d}.ipgr")
    graphs = load_graph_dir(tmp_path)
    assert [g.start for g in graphs] == [0.0, 600.0, 1200.0]
    with pytest.raises(FileNotFoundError):
        load_graph_dir(tmp_path / "missing")


# ---------------------------------------------------------------------------
# differential: array aggregation and assembly against the per-record loops

GRAPH_IPS = ["10.0.0.1", "10.0.0.2", "10.0.0.10", "192.168.1.5", "2001:db8::1",
             "2001:db8::a", "::1"]
GRAPH_TOKENS = ["dns", "http", "ssh", "ntp", "smtp", OTHER_TOKEN]
# Fitted tokens; the rest of GRAPH_TOKENS pile into the catch-all slot.
GRAPH_VOCAB = ProtocolVocab(("dns", "http", OTHER_TOKEN))
durations = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 1 / 3, 1e-300]),
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
counts = st.one_of(st.integers(0, 2**12), st.integers(0, 2**70))


@st.composite
def flow_streams(draw):
    """(records, interval length, origin): several intervals past a
    non-zero origin, IPv4 and IPv6, several protocols per pair."""
    interval_len = draw(st.sampled_from([60.0, 600.0, 7.5, 1 / 3]))
    origin = draw(st.sampled_from([0.0, 37.5, 1000.0, 1591367400.0, 0.1]))
    span = interval_len * draw(st.integers(1, 5))
    records = []
    for _ in range(draw(st.integers(1, 40))):
        src, dst = draw(st.sampled_from(GRAPH_IPS)), draw(st.sampled_from(GRAPH_IPS))
        request_bytes, response_bytes = draw(counts), draw(counts)
        records.append(
            make_record(
                ts=origin + draw(st.floats(0, span, exclude_max=True)),
                source_ip=src,
                destination_ip=dst,
                protocol_service=draw(st.sampled_from(GRAPH_TOKENS)),
                duration=draw(durations),
                request_bytes=request_bytes,
                response_bytes=response_bytes,
                bytes=request_bytes + response_bytes,
                request_packets=draw(counts),
                response_packets=draw(counts),
                request_ip_bytes=draw(counts),
                response_ip_bytes=draw(counts),
            )
        )
    return records, interval_len, origin


def _graph_bytes(graph):
    assert graph.features is None
    return (
        graph.start,
        graph.end,
        graph.nodes,
        *(
            (a.dtype.str, a.shape, a.tobytes())
            for a in (graph.edge_src, graph.edge_dst, graph.reverse, graph.raw_features)
        ),
    )


@settings(max_examples=150, deadline=None)
@given(flow_streams(), st.booleans())
def test_graphs_match_per_record_reference(stream, default_origin):
    records, interval_len, origin = stream
    if default_origin:
        origin = None
    got = build_interval_graphs(records, interval_len, GRAPH_VOCAB, origin)
    want = legacy_build_interval_graphs(records, interval_len, GRAPH_VOCAB, origin)
    assert [_graph_bytes(g) for g in got] == [_graph_bytes(g) for g in want]

    aggregates = aggregate_flows(records, interval_len, origin)
    expected = legacy_aggregate_flows(records, interval_len, origin)
    assert list(aggregates) == list(expected)
    for idx, groups in expected.items():
        assert list(aggregates[idx]) == list(groups)
        for key, vec in groups.items():
            assert aggregates[idx][key].shape == (len(NUMERIC_FEATURES),)
            assert np.array_equal(aggregates[idx][key], vec)


def test_timestamp_before_origin_raises_as_before():
    records = [make_record(ts=1200.0), make_record(ts=950.5), make_record(ts=10.0)]
    with pytest.raises(ValueError) as want:
        legacy_aggregate_flows(records, 600.0, 1000.0)
    with pytest.raises(ValueError) as got:
        aggregate_flows(records, 600.0, 1000.0)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "timestamp 950.5 precedes stream origin 1000.0"
    with pytest.raises(ValueError, match="precedes stream origin 1000"):
        build_interval_graphs(records, 600.0, GRAPH_VOCAB, 1000)


@pytest.mark.parametrize(
    "vectors",
    [[np.zeros((2, 4))], [np.zeros(8), np.zeros(7)], [np.zeros((1, 8))] * 2],
    ids=["matrix", "ragged", "all-2d"],
)
def test_build_graph_names_a_bad_vector_shape(vectors):
    groups = {
        FlowKey("10.0.0.1", f"10.0.0.{i + 2}", "dns"): vec
        for i, vec in enumerate(vectors)
    }
    with pytest.raises(ValueError, match="bad aggregate vector shape"):
        build_graph(groups, GRAPH_VOCAB, 0.0, 600.0)

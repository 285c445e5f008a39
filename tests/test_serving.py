"""Inference-side behavior: cosine similarity, rankings, pair reports,
anomaly scores, 2D projection, CSV output."""

import io
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipembed
import ipembed.autodiff as ad
from conftest import cyclic_gc_off, make_record
from ipembed import model, serving
from ipembed.autodiff import Tape
from ipembed.graphs import (
    aggregate_flows,
    build_interval_graphs,
    fit_protocol_vocab,
    fit_scaler,
    ip_sort_key,
    normalize,
    save_graph,
)
from ipembed.model import GraphTensors, ModelConfig, edge_dim_for_vocab, forward
from ipembed.serving import (
    DEGENERATE_NORM,
    EmbeddingSet,
    cosine,
    infer_embeddings,
    pairwise_report,
    project_2d,
    top_k_similar,
    write_anomaly_csv,
    write_csv,
    write_embeddings_csv,
    write_projection_csv,
    write_similarity_csv,
)
from ipembed.synth import make_experiment
from ipembed.training import ModelBundle, TrainConfig, save_model, train


def embedding_set(ips, vectors, interval=0.0):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSet(
        interval=interval,
        ips=tuple(ips),
        vectors=vectors,
        edge_errors=np.zeros(0),
        anomaly={ip: 0.0 for ip in ips},
    )


@pytest.fixture(scope="module")
def pipeline():
    """Records -> graphs -> short training run, shared across tests."""
    rng = np.random.default_rng(7)
    ips = [f"172.16.0.{i}" for i in range(1, 9)]
    records = []
    for _ in range(120):
        src, dst = rng.choice(ips, 2, replace=False)
        rb = int(rng.integers(40, 4000))
        vb = int(rng.integers(40, 4000))
        records.append(
            make_record(
                ts=float(rng.uniform(0.0, 1800.0)),
                source_ip=src,
                destination_ip=dst,
                protocol_service=str(rng.choice(["dns", "http", "ssl"])),
                request_bytes=rb,
                response_bytes=vb,
                bytes=rb + vb,
            )
        )
    vocab = fit_protocol_vocab(aggregate_flows(records, 600.0, 0.0))
    graphs = build_interval_graphs(records, 600.0, vocab, origin=0.0)
    scaler = fit_scaler(graphs)
    normalized = [normalize(g, scaler) for g in graphs]
    config = ModelConfig(
        edge_dim=graphs[0].feat_dim + 1, hidden=6, layers=2, decoder_hidden=8
    )
    params, _ = train(normalized, config, TrainConfig(epochs=3, seed=0))
    return ModelBundle(params, config, vocab, scaler), graphs, normalized


# ---------------------------------------------------------------------------
# cosine


def test_cosine_hand_values():
    assert cosine(np.array([2.0, 0.0]), np.array([2.0, 0.0])) == 1.0
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0
    assert cosine(np.array([3.0, 4.0]), np.array([-3.0, -4.0])) == -1.0
    assert cosine(np.array([3.0, 4.0]), np.array([4.0, 3.0])) == pytest.approx(
        24.0 / 25.0, abs=1e-15
    )


def test_cosine_degenerate_inputs_flagged():
    zero = np.zeros(3)
    v = np.array([1.0, 2.0, 3.0])
    assert cosine(zero, v) == 0.0
    assert cosine(v, zero) == 0.0
    assert cosine(np.full(3, 1e-13), v) == 0.0
    assert cosine(np.full(3, 1e-6), v) != 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ValueError):
        cosine(np.zeros(3), np.zeros(4))


def degenerate(u, v):
    return min(np.linalg.norm(u), np.linalg.norm(v)) < DEGENERATE_NORM


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(0.1, 100.0),
)
def test_cosine_symmetry_bounds_scale(a, b, scale):
    n = min(len(a), len(b))
    u = np.array(a[:n])
    v = np.array(b[:n])
    x = cosine(u, v)
    y = cosine(v, u)
    assert x == y
    assert -1.0 <= x <= 1.0
    if degenerate(u, v):
        assert x == 0.0
    elif not degenerate(scale * u, v):
        assert cosine(scale * u, v) == pytest.approx(x, abs=1e-9)


# ---------------------------------------------------------------------------
# top-k ranking


def test_top_k_duplicate_vector_ranks_first():
    es = embedding_set(
        ["10.0.0.1", "10.0.0.2", "10.0.0.3"],
        [[1.0, 0.0], [0.6, 0.8], [2.0, 0.0]],
    )
    ranked = top_k_similar(es, "10.0.0.1", 2)
    assert ranked[0] == ("10.0.0.3", 1.0)
    assert ranked[1][0] == "10.0.0.2"
    assert ranked[1][1] == pytest.approx(0.6, abs=1e-12)


def test_top_k_clamps_k():
    es = embedding_set(["10.0.0.1", "10.0.0.2"], [[1.0, 0.0], [0.0, 1.0]])
    assert len(top_k_similar(es, "10.0.0.1", 50)) == 1


def test_top_k_tie_breaks_by_canonical_ip_order():
    # 10.0.0.9 sorts before 10.0.0.10 numerically, after it lexically
    es = embedding_set(
        ["10.0.0.10", "10.0.0.9", "10.0.0.2"],
        [[3.0, 0.0], [5.0, 0.0], [1.0, 0.0]],
    )
    ranked = top_k_similar(es, "10.0.0.2", 2)
    assert [ip for ip, _ in ranked] == ["10.0.0.9", "10.0.0.10"]


def test_top_k_matches_brute_force(rng):
    for trial in range(10):
        n = int(rng.integers(3, 50))
        ips = [f"10.3.{trial}.{i}" for i in range(1, n + 1)]
        vectors = rng.normal(size=(n, 5))
        es = embedding_set(ips, vectors)
        query = ips[int(rng.integers(n))]
        k = int(rng.integers(1, n))
        ranked = top_k_similar(es, query, k)

        oracle = sorted(
            (
                (other, cosine(es.vector(query), es.vector(other)))
                for other in ips
                if other != query
            ),
            key=lambda item: -item[1],
        )[:k]
        assert [ip for ip, _ in ranked] == [ip for ip, _ in oracle]
        np.testing.assert_allclose(
            [v for _, v in ranked], [v for _, v in oracle], atol=1e-12
        )


def reference_top_k(ips, vectors, query):
    """Every other IP by descending cosine, ties by canonical IP order,
    scored pair by pair with plain NumPy."""
    q = vectors[ips.index(query)]
    scored = []
    for ip, v in zip(ips, vectors):
        if ip != query:
            norms = np.linalg.norm(q) * np.linalg.norm(v)
            scored.append((ip, 0.0 if norms == 0.0 else float(q @ v / norms)))
    return sorted(scored, key=lambda item: (-item[1], ip_sort_key(item[0])))


def test_top_k_non_canonical_order_ties_and_zero_vector():
    ips = ["10.0.0.10", "::1", "10.0.0.9", "192.168.1.1", "10.0.0.2", "10.0.0.3",
           "172.16.0.1"]
    vectors = np.array(
        [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
         [3.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    )
    es = embedding_set(ips, vectors)
    ranked = top_k_similar(es, "10.0.0.2", 6)
    assert [ip for ip, _ in ranked] == [
        "10.0.0.10", "::1", "172.16.0.1", "10.0.0.9", "192.168.1.1", "10.0.0.3"
    ]
    assert [v for _, v in ranked[:2]] == [1.0, 1.0]
    assert [v for _, v in ranked[3:]] == [0.0, 0.0, -1.0]
    # the zero vector scores 0 against all, so canonical order decides
    assert top_k_similar(es, "192.168.1.1", 6) == [
        (ip, 0.0)
        for ip in ["10.0.0.2", "10.0.0.3", "10.0.0.9", "10.0.0.10", "172.16.0.1", "::1"]
    ]
    for query in ips:
        for k in (1, 3, 6, 10):
            ranked = top_k_similar(es, query, k)
            expected = reference_top_k(ips, vectors, query)[:k]
            assert [ip for ip, _ in ranked] == [ip for ip, _ in expected]
            np.testing.assert_allclose(
                [v for _, v in ranked], [v for _, v in expected], rtol=0, atol=1e-12
            )


def test_embedding_set_rejects_duplicate_ips():
    with pytest.raises(ValueError):
        embedding_set(["10.0.0.1", "10.0.0.2", "10.0.0.1"], np.eye(3))


def test_top_k_input_validation():
    es = embedding_set(["10.0.0.1", "10.0.0.2"], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        top_k_similar(es, "10.0.0.1", 0)
    with pytest.raises(KeyError):
        top_k_similar(es, "10.0.0.99", 1)


# ---------------------------------------------------------------------------
# pair reports


def test_pairwise_report_hand_stats(monkeypatch):
    # cosines 0.8 then 1.0, one sample per graph
    sets = iter(
        [
            embedding_set(
                ["10.0.0.1", "10.0.0.2"], [[1.0, 0.0], [0.8, 0.6]], interval=0.0
            ),
            embedding_set(
                ["10.0.0.1", "10.0.0.2"], [[1.0, 0.0], [1.0, 0.0]], interval=600.0
            ),
        ]
    )
    monkeypatch.setattr(serving, "infer_embeddings", lambda bundle, g: next(sets))
    graphs = [SimpleNamespace(start=0.0), SimpleNamespace(start=600.0)]
    report = pairwise_report(None, graphs, [("10.0.0.1", "10.0.0.2")])

    series = report.series[("10.0.0.1", "10.0.0.2")]
    assert [interval for interval, _ in series] == [0.0, 600.0]
    assert [v for _, v in series] == pytest.approx([0.8, 1.0], abs=1e-12)
    assert report.n_graphs == 2


def test_pairwise_report_identical_embeddings(monkeypatch):
    sets = iter(
        [embedding_set(["10.0.0.1", "10.0.0.2"], [[0.3, 0.4], [0.3, 0.4]])] * 2
    )
    monkeypatch.setattr(serving, "infer_embeddings", lambda bundle, g: next(sets))
    report = pairwise_report(
        None, [SimpleNamespace(start=0.0)] * 2, [("10.0.0.1", "10.0.0.2")]
    )
    assert report.series[("10.0.0.1", "10.0.0.2")] == [(0.0, 1.0), (0.0, 1.0)]


def test_pairwise_report_absent_pair(monkeypatch):
    monkeypatch.setattr(
        serving,
        "infer_embeddings",
        lambda bundle, g: embedding_set(["10.0.0.1"], [[1.0, 0.0]]),
    )
    report = pairwise_report(
        None, [SimpleNamespace(start=0.0)], [("10.0.0.8", "10.0.0.9")]
    )
    assert report.series[("10.0.0.8", "10.0.0.9")] == []


def test_pairwise_report_no_pairs_rejected():
    with pytest.raises(ValueError):
        pairwise_report(None, [], [])


def test_pairwise_report_counts_co_occurrence(pipeline):
    bundle, graphs, _ = pipeline
    a, b = graphs[0].nodes[0], graphs[0].nodes[1]
    report = pairwise_report(bundle, graphs, [(a, b)])
    expected = sum(1 for g in graphs if a in g.nodes and b in g.nodes)
    assert len(report.series[(a, b)]) == expected
    for _, value in report.series[(a, b)]:
        assert -1.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# embedding inference and anomaly scores


def test_infer_embeddings_is_pure(pipeline):
    bundle, graphs, _ = pipeline
    a = infer_embeddings(bundle, graphs[0])
    b = infer_embeddings(bundle, graphs[0])
    np.testing.assert_array_equal(a.vectors, b.vectors)
    np.testing.assert_array_equal(a.edge_errors, b.edge_errors)
    assert a.anomaly == b.anomaly


def test_infer_embeddings_leaves_the_running_statistics_alone(pipeline):
    bundle, graphs, _ = pipeline

    def bn_state():
        buffers = [(name, arr.tobytes()) for name, arr in bundle.params.named_buffers()]
        return buffers, [bn.initialized for _, bn in bundle.params.bn_pairs()]

    before = bn_state()
    for graph in graphs:
        infer_embeddings(bundle, graph)
    assert bn_state() == before


def test_anomaly_scores_are_the_incident_edge_mean_bit_for_bit(pipeline):
    # The reference is the per-node accumulation the scores were first
    # defined by: np.add.at over receiving ends, then over sending ends.
    bundle, graphs, _ = pipeline
    for graph in graphs:
        es = infer_embeddings(bundle, graph)
        gt = GraphTensors.from_graph(normalize(graph, bundle.scaler))
        total = np.zeros(gt.n_nodes)
        count = np.zeros(gt.n_nodes)
        np.add.at(total, gt.recv, es.edge_errors)
        np.add.at(count, gt.recv, 1.0)
        np.add.at(total, gt.send, es.edge_errors)
        np.add.at(count, gt.send, 1.0)
        expected = {
            ip: float(total[i] / count[i] if count[i] else 0.0)
            for i, ip in enumerate(graph.nodes)
        }
        assert list(es.anomaly) == list(expected)
        assert [v.hex() for v in es.anomaly.values()] == [
            v.hex() for v in expected.values()
        ]


def test_infer_embeddings_records_nothing_and_frees_its_tape(pipeline, monkeypatch):
    bundle, graphs, _ = pipeline
    made = []

    class WatchedTape(Tape):
        def __init__(self, record=True):
            super().__init__(record=record)
            made.append((weakref.ref(self), record))

    monkeypatch.setattr(serving, "Tape", WatchedTape)
    monkeypatch.setattr(model, "Tape", WatchedTape)
    with cyclic_gc_off():
        infer_embeddings(bundle, graphs[0])
        assert [(ref() is None, record) for ref, record in made] == [(True, False)]


def test_infer_embeddings_equals_a_recording_forward(pipeline, monkeypatch):
    bundle, graphs, _ = pipeline
    served = infer_embeddings(bundle, graphs[0])
    monkeypatch.setattr(serving, "Tape", lambda record: Tape())
    recorded = infer_embeddings(bundle, graphs[0])
    np.testing.assert_array_equal(served.vectors, recorded.vectors)
    np.testing.assert_array_equal(served.edge_errors, recorded.edge_errors)
    assert served.anomaly == recorded.anomaly


def test_infer_embeddings_computes_no_loss(pipeline, monkeypatch):
    bundle, graphs, _ = pipeline
    served = infer_embeddings(bundle, graphs[0])

    def refuse(*args, **kwargs):
        raise AssertionError("serving ran a loss primitive")

    for name in ("bce_with_logits_mean", "log_sigmoid", "sigmoid"):
        monkeypatch.setattr(ad, name, refuse)
    again = infer_embeddings(bundle, graphs[0])
    assert again.vectors.tobytes() == served.vectors.tobytes()
    assert again.edge_errors.tobytes() == served.edge_errors.tobytes()
    assert again.anomaly == served.anomaly


def test_infer_embeddings_normalizes_raw_graph(pipeline):
    bundle, graphs, normalized = pipeline
    raw = infer_embeddings(bundle, graphs[0])
    pre = infer_embeddings(bundle, normalized[0])
    np.testing.assert_array_equal(raw.vectors, pre.vectors)
    np.testing.assert_array_equal(raw.edge_errors, pre.edge_errors)


def test_anomaly_scores_are_incident_edge_means(pipeline):
    bundle, graphs, _ = pipeline
    graph = graphs[0]
    es = infer_embeddings(bundle, graph)
    for i, ip in enumerate(graph.nodes):
        incident = [
            err
            for err, s, d in zip(es.edge_errors, graph.edge_src, graph.edge_dst)
            if s == i or d == i
        ]
        assert incident, "pipeline graphs have no isolated nodes"
        assert es.anomaly[ip] == pytest.approx(np.mean(incident), abs=1e-12)
        assert es.anomaly[ip] >= 0.0


def mean_kl(t, z):
    """Per-row mean of the Bernoulli KL(t || sigmoid(z)), from its definition."""
    log_p = -np.logaddexp(0.0, -z)
    log_q = -np.logaddexp(0.0, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = np.where(t > 0.0, t * (np.log(t) - log_p), 0.0)
        neg = np.where(t < 1.0, (1.0 - t) * (np.log(1.0 - t) - log_q), 0.0)
    return (pos + neg).mean(axis=1)


def test_edge_errors_are_mean_kl_divergence(pipeline):
    """Edge error is the mean per-column KL(t || p): zero for an exact
    reconstruction, so the target's own entropy does not enter the score.
    The reference logits are the ones serving computes: float32 weights and
    features, cast to float64 before the KL."""
    bundle, _, normalized = pipeline
    graph = normalized[0]
    es = infer_embeddings(bundle, graph)
    gt = GraphTensors.from_graph(graph)
    gt.feats = gt.feats.astype(np.float32)
    tape = Tape()
    leaves = model.float32_leaves(tape, bundle.params)
    result = forward(bundle.params, bundle.config, gt, "eval", tape, leaves)
    z = result.logits.data.astype(np.float64)
    t = np.hstack(
        [np.repeat(graph.features, 2, axis=0), graph.reverse.astype(np.float64)[:, None]]
    )
    assert np.any(t == 0.0) and np.any(t == 1.0)
    assert np.any((t > 0.0) & (t < 1.0))
    expected = mean_kl(t, z)
    np.testing.assert_allclose(es.edge_errors, expected, rtol=0.0, atol=1e-12)
    assert np.all(es.edge_errors >= 0.0)


def test_serving_runs_the_encoder_in_float32(pipeline, monkeypatch):
    bundle, _, normalized = pipeline
    seen = {}

    def watch(name):
        primitive = getattr(ad, name)

        def watched(*args, **kwargs):
            dtypes = [a.data.dtype for a in args if isinstance(a, ad.Tensor)]
            seen.setdefault(name, set()).update(dtypes)
            return primitive(*args, **kwargs)

        monkeypatch.setattr(ad, name, watched)

    for name in ("linear", "gather_linear", "batch_norm"):
        watch(name)
    es = infer_embeddings(bundle, normalized[0])
    assert seen == {name: {np.dtype(np.float32)} for name in seen}
    assert set(seen) == {"linear", "gather_linear", "batch_norm"}
    assert es.vectors.dtype == es.edge_errors.dtype == np.float64


def test_serving_leaves_the_bundle_in_float64(pipeline):
    bundle, graphs, _ = pipeline
    params = bundle.params

    def state():
        named = [*params.named_arrays(), *params.named_buffers()]
        return [(name, arr.dtype, arr.tobytes()) for name, arr in named]

    before = state()
    for graph in graphs:
        infer_embeddings(bundle, graph)
    assert state() == before
    assert {dtype for _, dtype, _ in before} == {np.dtype(np.float64)}


def test_float32_serving_agrees_with_float64(pipeline):
    bundle, _, normalized = pipeline
    for graph in normalized:
        es = infer_embeddings(bundle, graph)
        gt = GraphTensors.from_graph(graph)
        exact = model.forward(bundle.params, bundle.config, gt, mode="eval")
        np.testing.assert_allclose(es.vectors, exact.embeddings, rtol=0.0, atol=1e-5)
        kl = mean_kl(gt.feats, exact.logits.data)
        np.testing.assert_allclose(es.edge_errors, kl, rtol=1e-6, atol=0.0)
        reference = embedding_set(graph.nodes, exact.embeddings)
        for ip in graph.nodes:
            served = [name for name, _ in top_k_similar(es, ip, 10)]
            assert served == [name for name, _ in top_k_similar(reference, ip, 10)]


def test_served_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Vectors and edge errors served at 1 and at 2 OpenBLAS threads are the
    same bytes, on a desk graph of more than 560 edges. OpenBLAS runs no
    more threads than there are CPUs, so this can only fail on a machine
    with 2 or more CPUs."""
    exp = make_experiment(seed=0)
    config = ModelConfig(edge_dim=edge_dim_for_vocab(exp.vocab.size))
    params, _ = train(exp.train_graphs, config, TrainConfig(epochs=1, seed=0))
    save_model(ModelBundle(params, config, exp.vocab, exp.scaler), tmp_path / "m.ipgm")
    graph = max(exp.test_graphs, key=lambda g: len(g.edge_src))
    assert len(graph.edge_src) > 560
    save_graph(graph, tmp_path / "g.ipgr")
    script = (
        "import hashlib\n"
        "from ipembed.graphs import load_graph\n"
        "from ipembed.serving import infer_embeddings\n"
        "from ipembed.training import load_model\n"
        "es = infer_embeddings(load_model('m.ipgm'), load_graph('g.ipgr'))\n"
        "for arr in (es.vectors, es.edge_errors):\n"
        "    print(arr.dtype, hashlib.sha256(arr.tobytes()).hexdigest())\n"
    )
    src = str(Path(ipembed.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    }
    assert digests["1"].count("float64") == 2
    assert digests["1"] == digests["2"]


@pytest.fixture(scope="module")
def wide(wide_experiment):
    """A briefly trained model and a graph of more than three edge blocks."""
    exp = wide_experiment
    config = ModelConfig(edge_dim=edge_dim_for_vocab(exp.vocab.size))
    params, _ = train(exp.train_graphs[:1], config, TrainConfig(epochs=1, seed=0))
    (graph,) = exp.test_graphs
    assert graph.n_edges > 3 * ad.BLOCK_ROWS
    return ModelBundle(params, config, exp.vocab, exp.scaler), graph


def test_block_size_does_not_change_served_bytes(wide, monkeypatch):
    """The patched size reaches both the segment sums and the edge blocks.
    It is odd and small, but not so small that a block's products have at
    most 1,200 output cells: there OpenBLAS switches to a small-matrix
    kernel that sums in another order (7-row blocks change the last bits of
    the edge errors)."""
    bundle, graph = wide
    default = infer_embeddings(bundle, graph)
    monkeypatch.setattr(ad, "BLOCK_ROWS", 97)
    small = infer_embeddings(bundle, graph)
    assert small.vectors.tobytes() == default.vectors.tobytes()
    assert small.edge_errors.tobytes() == default.edge_errors.tobytes()
    assert small.anomaly == default.anomaly


def test_edge_errors_match_a_dense_duplicated_reference(wide, monkeypatch):
    """Each block gathers its targets from the pair rows; scoring every
    block's logits against the matrix with one row per edge instead gives
    the same bytes, across block bounds that split a pair."""
    bundle, graph = wide
    assert graph.n_edges > 2 * ad.BLOCK_ROWS
    blocks = []

    score = serving._mean_kl

    def kept(t, logits):
        blocks.append(logits)
        return score(t, logits)

    monkeypatch.setattr(serving, "_mean_kl", kept)
    served = infer_embeddings(bundle, graph).edge_errors
    bounds = np.cumsum([0] + [len(b) for b in blocks])
    assert len(blocks) > 2 and bounds[-1] == graph.n_edges
    assert any(bound % 2 for bound in bounds)
    dense = np.column_stack(
        (np.repeat(graph.features, 2, axis=0), graph.reverse.astype(np.float64))
    )
    expected = np.concatenate(
        [
            score(dense[start:stop], logits)
            for start, stop, logits in zip(bounds, bounds[1:], blocks)
        ]
    )
    assert served.tobytes() == expected.tobytes()


def test_serving_peak_memory_is_a_few_edge_arrays(wide):
    """The traced peak of one ``infer_embeddings`` call, counted in (E,
    hidden) float32 arrays, stays under 6.5. It is about 5.6 on this graph,
    0.2 of it the float32 weights, and is reached in the first conv layer.
    Keeping every layer's gates would add about 1; decoding every edge at
    once as well, as serving did before edge blocks, peaks near 11.7."""
    bundle, graph = wide
    infer_embeddings(bundle, graph)
    unit = graph.n_edges * bundle.config.hidden * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        infer_embeddings(bundle, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * unit


def test_isolated_node_scores_zero(pipeline):
    from dataclasses import replace

    bundle, graphs, _ = pipeline
    padded = replace(graphs[0], nodes=graphs[0].nodes + ("203.0.113.200",))
    es = infer_embeddings(bundle, padded)
    assert es.anomaly["203.0.113.200"] == 0.0


def test_vector_lookup_unknown_ip(pipeline):
    bundle, graphs, _ = pipeline
    es = infer_embeddings(bundle, graphs[0])
    with pytest.raises(KeyError):
        es.vector("198.51.100.77")


def test_embedding_set_shape(pipeline):
    bundle, graphs, _ = pipeline
    es = infer_embeddings(bundle, graphs[0])
    assert es.vectors.shape == (len(graphs[0].nodes), bundle.config.hidden)
    assert es.edge_errors.shape == (graphs[0].n_edges,)
    assert es.interval == graphs[0].start


# ---------------------------------------------------------------------------
# 2D projection


def test_project_2d_identical_embeddings_at_origin():
    es = embedding_set(
        ["10.0.0.1", "10.0.0.2", "10.0.0.3"], np.tile([0.3, -0.2, 0.9], (3, 1))
    )
    projection = project_2d(es)
    for x, y in projection.values():
        assert abs(x) < 1e-12 and abs(y) < 1e-12


def test_project_2d_recovers_2d_geometry(rng):
    points = rng.normal(size=(6, 2))
    es = embedding_set([f"10.0.1.{i}" for i in range(1, 7)], points)
    projection = project_2d(es)
    coords = np.array([projection[ip] for ip in es.ips])
    # planar input: all pairwise distances survive exactly
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            want = np.linalg.norm(points[i] - points[j])
            got = np.linalg.norm(coords[i] - coords[j])
            assert got == pytest.approx(want, abs=1e-9)
    np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-9)


def test_project_2d_planar_rectangle_in_3d():
    # rectangle living in a tilted plane inside R^3
    base = np.array([1.0, 2.0, 3.0])
    e1 = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
    e2 = np.array([-1.0, 2.0, 2.0]) / 3.0
    corners = [base, base + 4 * e1, base + 4 * e1 + 2 * e2, base + 2 * e2]
    es = embedding_set([f"10.0.2.{i}" for i in range(1, 5)], corners)
    projection = project_2d(es)
    coords = np.array([projection[ip] for ip in es.ips])
    sides = [np.linalg.norm(coords[i] - coords[(i + 1) % 4]) for i in range(4)]
    assert sides == pytest.approx([4.0, 2.0, 4.0, 2.0], abs=1e-9)
    assert np.linalg.norm(coords[0] - coords[2]) == pytest.approx(
        np.sqrt(20.0), abs=1e-9
    )


def test_project_2d_deterministic(pipeline):
    bundle, graphs, _ = pipeline
    es = infer_embeddings(bundle, graphs[0])
    assert project_2d(es) == project_2d(es)


def test_project_2d_needs_two_ips():
    with pytest.raises(ValueError):
        project_2d(embedding_set(["10.0.0.1"], [[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# CSV output


def test_write_csv_cell_rule():
    buf = io.StringIO()
    row = (0.1, np.float64(0.1), np.float32(0.1), 3, np.uint8(7), "10.0.0.1")
    write_csv(buf, ["a", "b", "c", "d", "e", "f"], [row])
    # Floats of any width are repr of the Python float: never np.float64(...).
    assert buf.getvalue().splitlines() == [
        "a,b,c,d,e,f",
        "0.1,0.1,0.10000000149011612,3,7,10.0.0.1",
    ]


def test_embeddings_csv_format():
    es = embedding_set(["10.0.0.2", "10.0.0.1"], [[0.5, -1.5], [2.0, 0.25]])
    buf = io.StringIO()
    write_embeddings_csv(es, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "ip,dim_0,dim_1"
    assert lines[1] == "10.0.0.2,0.5,-1.5"
    assert lines[2] == "10.0.0.1,2.0,0.25"
    assert len(lines) == 3


def test_similarity_csv_is_one_table(monkeypatch):
    sets = iter(
        [
            embedding_set(
                ["10.0.0.1", "10.0.0.2"], [[1.0, 0.0], [0.8, 0.6]], interval=0.0
            )
        ]
    )
    monkeypatch.setattr(serving, "infer_embeddings", lambda bundle, g: next(sets))
    report = pairwise_report(
        None,
        [SimpleNamespace(start=0.0)],
        [("10.0.0.1", "10.0.0.2"), ("10.0.0.3", "10.0.0.4")],
    )
    buf = io.StringIO()
    write_similarity_csv(report, buf)
    lines = buf.getvalue().splitlines()
    # The pair that never co-occurs has no row.
    assert lines[0] == "pair,interval,cosine"
    assert lines[1].startswith("10.0.0.1|10.0.0.2,0.0,0.8")
    assert len(lines) == 2


def test_projection_csv_sorted_by_ip():
    projection = {
        "10.0.0.10": (1.0, 2.0),
        "10.0.0.9": (-0.5, 0.0),
        "10.0.0.2": (0.25, -4.0),
    }
    buf = io.StringIO()
    write_projection_csv(projection, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "ip,x,y"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "10.0.0.2",
        "10.0.0.9",
        "10.0.0.10",
    ]
    assert lines[1] == "10.0.0.2,0.25,-4.0"


def test_anomaly_csv_format():
    es = embedding_set(["10.0.0.1", "10.0.0.2"], [[1.0, 0.0], [0.0, 1.0]])
    es.anomaly["10.0.0.1"] = 0.125
    buf = io.StringIO()
    write_anomaly_csv(es, buf)
    lines = buf.getvalue().splitlines()
    assert lines == ["ip,score", "10.0.0.1,0.125", "10.0.0.2,0.0"]


def test_csv_floats_round_trip():
    value = 0.1234567890123456789
    es = embedding_set(["10.0.0.1", "10.0.0.2"], [[value, 0.0], [0.0, 1.0]])
    buf = io.StringIO()
    write_embeddings_csv(es, buf)
    cell = buf.getvalue().splitlines()[1].split(",")[1]
    assert float(cell) == np.float64(value)

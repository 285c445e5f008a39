"""End-to-end acceptance suite.

Ten checks: gradient correctness, gate bounds, zero-weight identities,
permutation equivariance, inductive holdout transfer, loss assembly,
anomaly scoring of inflated traffic, pipeline determinism, flow-log parser
conformance, and the holdout filter contract. Each check prints one
[PASS]/[FAIL] summary line with its measured numbers (hook in conftest.py).
"""

import json
import math
import time
from dataclasses import replace
from io import StringIO
from ipaddress import ip_address

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipembed.autodiff as ad
from conftest import (
    make_record,
    neighbor_loss,
    random_graph,
    reconstruction_loss,
    set_array,
)
from ipembed.autodiff import grad_check
from ipembed.cli import run
from ipembed.graphs import N_NUMERIC, NUMERIC_FEATURES, load_graph, normalize
from ipembed.model import (
    GraphTensors,
    ModelConfig,
    conv_layer,
    decode,
    edge_dim_for_vocab,
    forward,
    init_params,
)
from ipembed.serving import infer_embeddings
from ipembed.synth import default_roles, eval_inductive, make_experiment
from ipembed.training import ModelBundle, TrainConfig, filter_holdout, train
from ipembed.zeek import ParseError, read_conn_log, write_canonical_tsv

# Filled by tests, read by the conftest summary hook.
DETAILS: dict[str, str] = {}


def criterion(label):
    """Tag a test for the per-check summary line printed by conftest."""

    def tag(fn):
        fn._criterion_label = label
        return fn

    return tag


@criterion("gradient-check")
def test_gradients_match_central_differences():
    """Analytic gradients of the full training loss agree with central
    finite differences (step 1e-5) on 20 seeded small graphs, within 60 s."""
    started = time.perf_counter()
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        n_nodes = int(rng.integers(2, 7))
        feat_dim = int(rng.integers(2, 5))
        config = ModelConfig(
            edge_dim=feat_dim + 1,
            hidden=int(rng.integers(2, 5)),
            layers=2,
            decoder_hidden=int(rng.integers(2, 5)),
            lambda_recon=0.8,
            lambda_neighbor=0.05,
        )
        graph = random_graph(
            rng, n_nodes=n_nodes, n_pairs=int(rng.integers(1, 8)), feat_dim=feat_dim
        )
        gt = GraphTensors.from_graph(graph)
        params = init_params(config, seed=case)
        # jitter off the init point so no coordinate sits on a relu kink
        arrays = {
            name: arr + 0.05 * rng.standard_normal(arr.shape)
            for name, arr in params.named_arrays()
        }

        def build(tape, leaves, params=params, config=config, gt=gt):
            return forward(
                params, config, gt, mode="train", tape=tape, leaves=leaves
            ).loss

        worst = max(worst, grad_check(build, arrays, step=1e-5))
    elapsed = time.perf_counter() - started
    DETAILS["gradient-check"] = (
        f"max rel error {worst:.2e} over 20 graphs in {elapsed:.1f}s"
    )
    assert worst < 1e-4
    assert elapsed < 60.0


@criterion("gate-bounds")
def test_gates_bounded_componentwise_and_per_node():
    """Every gate component and every receiving node's per-dimension gate
    sum lies strictly inside (0, 1), over 1000 randomized forward passes."""
    cases = 0
    for case in range(1000):
        rng = np.random.default_rng(20_000 + case)
        feat_dim = int(rng.integers(1, 6))
        config = ModelConfig(
            edge_dim=feat_dim + 1,
            hidden=int(rng.integers(1, 7)),
            layers=int(rng.integers(1, 4)),
            decoder_hidden=int(rng.integers(1, 5)),
        )
        graph = random_graph(
            rng,
            n_nodes=int(rng.integers(2, 9)),
            n_pairs=int(rng.integers(1, 12)),
            feat_dim=feat_dim,
        )
        gt = GraphTensors.from_graph(graph)
        params = init_params(config, seed=case)
        for name, arr in params.named_arrays():
            set_array(params, name, arr + rng.normal(0.0, 0.7, arr.shape))
        mode = "train" if case % 2 == 0 else "eval"
        if mode == "eval":
            for name, buf in params.named_buffers():
                if name.endswith("running_var"):
                    buf[...] = rng.uniform(0.2, 3.0, buf.shape)
                else:
                    buf[...] = rng.normal(0.0, 0.5, buf.shape)
            params.mark_bn_initialized()
        result = forward(params, config, gt, mode=mode)
        assert len(result.gates) == config.layers + 1
        receiving = np.unique(gt.recv)
        for gates in result.gates:
            g = gates.data
            assert np.all(g > 0.0) and np.all(g < 1.0)
            sums = np.zeros((gt.n_nodes, g.shape[1]))
            np.add.at(sums, gt.recv, g)
            assert np.all(sums[receiving] > 0.0)
            assert np.all(sums[receiving] < 1.0)
        cases += 1
    DETAILS["gate-bounds"] = f"{cases} forward passes, all layers in (0,1)"
    assert cases == 1000


@criterion("zero-weight-identities")
def test_zero_weight_layers_reproduce_identities():
    """Zeroed conv weights pass node states through untouched; a zeroed
    decoder outputs exactly 0.5; the reconstruction term at target =
    prediction = 0.5 equals its weight times ln 2 within 1e-12."""
    rng = np.random.default_rng(33)
    feat_dim = 4
    config = ModelConfig(edge_dim=feat_dim + 1, hidden=4, layers=2, decoder_hidden=3)
    graph = random_graph(rng, n_nodes=5, n_pairs=7, feat_dim=feat_dim)
    gt = GraphTensors.from_graph(graph)
    n_edges = gt.feats.shape[0]

    params = init_params(config, seed=0)
    for name, arr in params.named_arrays():
        if name.startswith("conv") and ".bn_" not in name:
            set_array(params, name, np.zeros_like(arr))
    params.mark_bn_initialized()
    h = rng.standard_normal((graph.n_nodes, config.hidden))
    for layer, es_dim in ((0, config.edge_dim), (1, config.hidden)):
        edge_state = rng.standard_normal((n_edges, es_dim))
        for mode in ("eval", "train"):
            h_next, _, _ = conv_layer(
                params, config, gt, h, edge_state, layer, mode=mode
            )
            assert np.array_equal(h_next.data, h), (layer, mode)

    dec = init_params(config, seed=1)
    for name in ("dec_hidden_w", "dec_hidden_b", "dec_out_w", "dec_out_b"):
        set_array(dec, name, np.zeros_like(dict(dec.named_arrays())[name]))
    probs = decode(dec, config, gt, h, rng.standard_normal((n_edges, config.hidden)))
    assert np.all(probs.data == 0.5)

    gt_half = GraphTensors(
        n_nodes=gt.n_nodes, recv=gt.recv, send=gt.send,
        feats=np.full_like(gt.feats, 0.5),
    )
    for weight in (1.0, 0.37):
        cfg = ModelConfig(
            edge_dim=config.edge_dim, hidden=config.hidden, layers=config.layers,
            decoder_hidden=config.decoder_hidden, lambda_recon=weight,
        )
        res = forward(dec, cfg, gt_half, mode="train")
        decoded = ad.stable_sigmoid(res.logits.data)
        assert np.array_equal(decoded, np.full_like(gt.feats, 0.5))
        assert abs(res.recon_loss.data.item() - weight * math.log(2.0)) <= 1e-12
    DETAILS["zero-weight-identities"] = (
        "conv pass-through exact, decoder at 0.5, weighted ln2 within 1e-12"
    )


@criterion("permutation-equivariance")
def test_node_relabeling_permutes_embeddings():
    """Relabeling the nodes of a graph permutes the eval-mode embeddings
    and leaves per-edge outputs unchanged, within 1e-9, on 50 graphs."""
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(4000 + case)
        feat_dim = int(rng.integers(2, 5))
        config = ModelConfig(
            edge_dim=feat_dim + 1,
            hidden=int(rng.integers(2, 6)),
            layers=2,
            decoder_hidden=int(rng.integers(2, 5)),
        )
        graph = random_graph(
            rng,
            n_nodes=int(rng.integers(3, 9)),
            n_pairs=int(rng.integers(2, 14)),
            feat_dim=feat_dim,
        )
        params = init_params(config, seed=case)
        for name, arr in params.named_arrays():
            set_array(params, name, arr + rng.normal(0.0, 0.3, arr.shape))
        for name, buf in params.named_buffers():
            if name.endswith("running_var"):
                buf[...] = rng.uniform(0.5, 2.0, buf.shape)
            else:
                buf[...] = rng.normal(0.0, 0.4, buf.shape)
        params.mark_bn_initialized()
        base = forward(params, config, GraphTensors.from_graph(graph), mode="eval")

        perm = rng.permutation(graph.n_nodes)
        nodes = [""] * graph.n_nodes
        for old, ip in enumerate(graph.nodes):
            nodes[perm[old]] = ip
        relabeled = replace(
            graph,
            nodes=tuple(nodes),
            edge_src=perm[graph.edge_src].astype(np.int32),
            edge_dst=perm[graph.edge_dst].astype(np.int32),
        )
        out = forward(params, config, GraphTensors.from_graph(relabeled), mode="eval")
        worst = max(
            worst,
            float(np.abs(out.embeddings[perm] - base.embeddings).max()),
            float(np.abs(out.logits.data - base.logits.data).max()),
        )
    DETAILS["permutation-equivariance"] = (
        f"max deviation {worst:.2e} over 50 relabelings"
    )
    assert worst < 1e-9


@criterion("inductive-holdout")
def test_unseen_ips_embed_near_their_role():
    """An IP never seen in training embeds close to its functional peers:
    three-role synthetic traffic (42 IPs, 12 ten-minute windows), one of the
    four dns servers held out, default loss weights, at most 300 epochs.
    In at least 90% of scoreable test windows across 3 seeds the held-out
    IP's mean cosine to its role is >= 0.9 with a margin >= 0.2 over the
    contrast role. Budget: 5 minutes.

    What this shows: the trained pipeline (graph build, inductive inference
    on an unseen IP, cosine scoring) places a held-out DNS server with its
    role. What it does not show: that training taught the network anything.
    DNS servers receive only ``dns`` and web servers only ``http``/``ssl``,
    so the protocol one-hot blocks separate the roles from any single edge.
    An untrained network (one epoch at learning rate 0, which only sets the
    batch norm statistics) passes every window with a margin near 0.21, and
    a feature-only baseline that gives each node the mean of its incoming
    normalized edge features passes with a margin of 1.0. A check of
    learned structure needs roles that share a protocol and both controls
    reported next to the trained margin."""
    started = time.perf_counter()
    wins = total = 0
    for seed in (0, 1, 2):
        exp = make_experiment(
            roles=default_roles(32, 4, 6),
            holdout_fraction=0.25,
            interval_len=600.0,
            seed=seed,
            duration=7200.0,
            train_fraction=0.7,
        )
        assert len(exp.holdout_ips) == 1
        config = ModelConfig(edge_dim=edge_dim_for_vocab(exp.vocab.size))
        assert (config.lambda_recon, config.lambda_neighbor) == (1.0, 0.01)
        params, history = train(
            exp.train_graphs, config, TrainConfig(epochs=300, seed=seed)
        )
        assert len(history) <= 300
        bundle = ModelBundle(params, config, exp.vocab, exp.scaler)
        result = eval_inductive(
            bundle, exp.train_graphs, exp.test_graphs,
            exp.holdout_ips, exp.in_role_ips, exp.out_role_ips,
        )
        for _, in_mean, _, margin in result.per_graph:
            total += 1
            wins += bool(in_mean >= 0.9 and margin >= 0.2)
    elapsed = time.perf_counter() - started
    DETAILS["inductive-holdout"] = (
        f"{wins}/{total} test windows at cosine>=0.9 and margin>=0.2, "
        f"{elapsed:.0f}s"
    )
    assert total >= 10
    assert wins / total >= 0.9
    assert elapsed < 300.0


@criterion("loss-assembly")
def test_loss_terms_match_independent_arithmetic():
    """Both loss terms match scalar-arithmetic oracles within 1e-10 and the
    reported total equals the sum of the reported terms exactly."""
    targets = np.array([[1.0, 0.25]])
    probs = np.array([[0.5, 0.75]])
    hand_bce = 0.5 * (
        math.log(2.0) - (0.25 * math.log(0.75) + 0.75 * math.log(0.25))
    )
    assert abs(reconstruction_loss(targets, probs, 1.0) - hand_bce) <= 1e-10
    assert abs(reconstruction_loss(targets, probs, 0.3) - 0.3 * hand_bce) <= 1e-10

    h_fixture = np.array([[1.0, 0.0], [0.5, 0.5]])
    hand_nm = 2.0 * math.log1p(math.exp(-0.5))  # both directed dots are 0.5
    assert abs(neighbor_loss(h_fixture, [0, 1], [1, 0], 0.01) - 0.01 * hand_nm) <= 1e-10

    worst_recon = worst_neighbor = 0.0
    for case in range(10):
        rng = np.random.default_rng(6000 + case)
        feat_dim = int(rng.integers(2, 5))
        config = ModelConfig(
            edge_dim=feat_dim + 1,
            hidden=int(rng.integers(2, 6)),
            layers=2,
            decoder_hidden=int(rng.integers(2, 5)),
            lambda_recon=float(rng.uniform(0.1, 2.0)),
            lambda_neighbor=float(rng.uniform(0.0, 0.3)),
        )
        graph = random_graph(
            rng,
            n_nodes=int(rng.integers(3, 7)),
            n_pairs=int(rng.integers(2, 9)),
            feat_dim=feat_dim,
        )
        gt = GraphTensors.from_graph(graph)
        res = forward(init_params(config, seed=case), config, gt, mode="train")

        z = res.logits.data
        acc = 0.0
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                v = float(z[i, j])
                softplus = max(v, 0.0) + math.log1p(math.exp(-abs(v)))
                acc += softplus - gt.feats[i, j] * v
        recon_ref = config.lambda_recon * acc / z.size
        worst_recon = max(worst_recon, abs(res.recon_loss.data.item() - recon_ref))

        emb = res.embeddings
        acc = 0.0
        for r, s in zip(gt.recv, gt.send):
            dot = float(np.dot(emb[r], emb[s]))
            acc += max(-dot, 0.0) + math.log1p(math.exp(-abs(dot)))
        neighbor_ref = config.lambda_neighbor * acc
        worst_neighbor = max(
            worst_neighbor, abs(res.neighbor_loss.data.item() - neighbor_ref)
        )

        assert res.loss.data.item() == (
            res.recon_loss.data.item() + res.neighbor_loss.data.item()
        )
    DETAILS["loss-assembly"] = (
        f"recon dev {worst_recon:.1e}, neighbor dev {worst_neighbor:.1e}, "
        "totals exact"
    )
    assert worst_recon <= 1e-10
    assert worst_neighbor <= 1e-10


@criterion("anomaly-signal")
def test_inflated_edges_score_above_training_p95():
    """Edges whose traffic counters are inflated 100x should score a median
    per-edge reconstruction error above the 95th percentile of the
    training-edge errors, in at least 19 of 20 seeded trials.

    The edge error is the KL divergence from input to reconstruction, which
    is zero for an exact reconstruction whatever the target's own entropy.
    The scaler clamps each inflated counter at its per-dimension training
    maximum, so the signal is the model's failure to reproduce that
    saturated, out-of-pattern edge, not its distance from the clamp."""
    duration_col = NUMERIC_FEATURES.index("duration")
    wins = 0
    medians, cutoffs = [], []
    for trial in range(20):
        exp = make_experiment(
            roles=default_roles(8, 2, 3),
            holdout_fraction=0.25,
            interval_len=600.0,
            seed=100 + trial,
            duration=3000.0,
            train_fraction=0.8,
        )
        config = ModelConfig(
            edge_dim=edge_dim_for_vocab(exp.vocab.size),
            hidden=16,
            layers=2,
            decoder_hidden=32,
        )
        params, _ = train(
            exp.train_graphs, config, TrainConfig(epochs=100, seed=trial)
        )
        bundle = ModelBundle(params, config, exp.vocab, exp.scaler)
        train_errors = np.concatenate(
            [infer_embeddings(bundle, g).edge_errors for g in exp.train_graphs]
        )
        p95 = float(np.percentile(train_errors, 95))

        rng = np.random.default_rng(trial)
        graph = exp.train_graphs[trial % len(exp.train_graphs)]
        p = exp.vocab.size
        counters = np.ones(graph.raw_features.shape[1], dtype=bool)
        counters[:p] = False  # protocol indicator block is not a counter
        for slot in range(p):  # neither is duration
            counters[p + slot * N_NUMERIC + duration_col] = False
        n_pairs = graph.n_edges // 2
        chosen = rng.choice(n_pairs, size=max(1, n_pairs // 10), replace=False)
        rows = np.concatenate([2 * chosen, 2 * chosen + 1])
        raw = graph.raw_features.copy()
        # Row k serves both edges of pair k: the cells of both directions.
        raw[np.ix_(chosen, np.flatnonzero(counters))] *= 100.0
        inflated = normalize(
            replace(graph, raw_features=raw, features=None), exp.scaler
        )
        errors = infer_embeddings(bundle, inflated).edge_errors
        median = float(np.median(errors[rows]))
        medians.append(median)
        cutoffs.append(p95)
        wins += median > p95
    ratios = [median / cutoff for median, cutoff in zip(medians, cutoffs)]
    thinnest = int(np.argmin(ratios))
    DETAILS["anomaly-signal"] = (
        f"{wins}/20 trials above the cutoff; inflated medians "
        f"{min(medians):.3f}-{max(medians):.3f} vs train p95 "
        f"{min(cutoffs):.3f}-{max(cutoffs):.3f}; thinnest trial {thinnest} "
        f"at median/p95 {ratios[thinnest]:.4f}"
    )
    assert wins >= 19, (
        "inflated-edge reconstruction error does not clear the training p95: "
        f"{wins}/20 trials; medians {min(medians):.3f}-{max(medians):.3f}, "
        f"cutoffs {min(cutoffs):.3f}-{max(cutoffs):.3f}"
    )


@criterion("pipeline-determinism")
def test_seeded_pipeline_is_byte_identical(tmp_path):
    """The full seeded chain (synth, ingest, build-graphs, train, report,
    embed) run twice produces byte-identical artifacts."""

    def chain(base):
        base.mkdir()
        conn = base / "conn.log"
        canon = base / "canon.tsv"
        gdir = base / "graphs"
        model = base / "model.ipgm"
        steps = [
            ["synth", "--out", str(conn), "--duration", "1800", "--clients", "5",
             "--dns-servers", "2", "--web-servers", "2", "--seed", "11"],
            ["ingest", "--input", str(conn), "--out", str(canon)],
            ["build-graphs", "--input", str(canon), "--interval", "600",
             "--origin", "0", "--out", str(gdir)],
            ["train", "--graphs", str(gdir), "--out", str(model), "--epochs", "3",
             "--hidden", "6", "--decoder-hidden", "8", "--seed", "5"],
        ]
        for argv in steps:
            assert run(argv) == 0, argv
        graph0 = sorted(gdir.glob("graph_*.ipgr"))[0]
        nodes = load_graph(graph0).nodes
        pair = f"{nodes[0]}:{nodes[1]}"
        assert run(["report", "--model", str(model), "--graphs", str(gdir),
                    "--pairs", pair, "--out", str(base / "report.csv")]) == 0
        assert run(["embed", "--model", str(model), "--graph", str(graph0),
                    "--out", str(base / "embeddings.csv")]) == 0
        return {
            str(path.relative_to(base)): path.read_bytes()
            for path in sorted(base.rglob("*"))
            if path.is_file()
        }

    first = chain(tmp_path / "a")
    second = chain(tmp_path / "b")
    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    DETAILS["pipeline-determinism"] = (
        f"{len(first)} artifacts byte-identical across reruns"
    )
    assert not differing, differing


@criterion("parser-conformance")
def test_flow_log_fixtures_and_canonical_round_trip():
    """Native TSV and JSON-lines fixtures (unset markers, header directives,
    IPv6, corrupt rows) yield exactly the expected records and skip counts,
    and the canonical dump format round-trips records losslessly."""
    tsv = (
        "#separator \\x09\n"
        "#set_separator\t,\n"
        "#empty_field\t(empty)\n"
        "#unset_field\t-\n"
        "#fields\tts\tid.orig_h\tid.resp_h\tid.orig_p\tid.resp_p\tproto\tservice"
        "\tduration\torig_bytes\tresp_bytes\torig_pkts\tresp_pkts"
        "\torig_ip_bytes\tresp_ip_bytes\n"
        "#types\ttime\taddr\taddr\tport\tport\tenum\tstring\tinterval\tcount"
        "\tcount\tcount\tcount\tcount\tcount\n"
        "1600000000.123456\t192.168.1.10\t2001:0DB8::0001\t51000\t53\tudp\tdns"
        "\t0.0417\t62\t130\t1\t1\t90\t158\n"
        "1600000001.5\t10.0.0.5\t10.0.0.9\t44321\t443\ttcp\tssl"
        "\t-\t-\t-\t3\t2\t164\t112\n"
        "1600000002.0\t10.0.0.5\t10.0.0.9\t44322\t80\ttcp\t(empty)"
        "\t1.25\t100\t200\t2\t2\t156\t256\n"
        "one malformed row without enough columns\n"
        "1600000003.0\t999.999.1.1\t10.0.0.9\t1\t2\ttcp\thttp"
        "\t0.1\t1\t2\t1\t1\t29\t30\n"
        "#close\t2020-09-13-17-01-01\n"
    )
    records, stats = read_conn_log(StringIO(tsv), format="tsv")
    assert (stats.read, stats.emitted, stats.skipped) == (5, 3, 2)
    first, second, third = records
    assert first.ts == 1600000000.123456
    assert first.destination_ip == "2001:db8::1"  # canonical IPv6 form
    assert (first.source_port, first.destination_port) == (51000, 53)
    assert first.protocol_service == "dns"
    assert (first.request_bytes, first.response_bytes, first.bytes) == (62, 130, 192)
    assert (first.request_ip_bytes, first.response_ip_bytes) == (90, 158)
    assert first.duration == 0.0417
    assert second.duration == 0.0  # unset markers fall back to zero
    assert (second.request_bytes, second.response_bytes, second.bytes) == (0, 0, 0)
    assert (second.request_packets, second.response_packets) == (3, 2)
    assert second.protocol_service == "ssl"
    assert third.protocol_service == "tcp"  # empty service falls back to proto
    assert (third.request_bytes, third.bytes) == (100, 300)
    with pytest.raises(ParseError):
        read_conn_log(StringIO(tsv), format="tsv", strict=True)

    lines = [
        json.dumps({
            "ts": 1.5, "id.orig_h": "10.1.1.1", "id.resp_h": "10.1.1.2",
            "id.orig_p": 1234, "id.resp_p": 53, "proto": "udp", "service": "dns",
            "duration": 0.01, "orig_bytes": 60, "resp_bytes": 120,
            "orig_pkts": 1, "resp_pkts": 1, "orig_ip_bytes": 88,
            "resp_ip_bytes": 148,
        }),
        json.dumps({
            "ts": 2.5, "id.orig_h": "10.1.1.3", "id.resp_h": "10.1.1.4",
            "service": None, "proto": "tcp", "orig_bytes": None, "duration": "-",
        }),
        '{"ts": 3.0, "id.orig_h": broken',
        '["not", "an", "object"]',
        json.dumps({"id.orig_h": "10.1.1.5", "id.resp_h": "10.1.1.6"}),
    ]
    jrecords, jstats = read_conn_log(StringIO("\n".join(lines)), format="auto")
    assert (jstats.read, jstats.emitted, jstats.skipped) == (5, 2, 3)
    assert jrecords[0].destination_port == 53
    assert jrecords[0].bytes == 180
    assert jrecords[1].protocol_service == "tcp"  # null service, proto fallback
    assert (jrecords[1].source_port, jrecords[1].request_bytes) == (0, 0)
    assert jrecords[1].duration == 0.0

    mixed = records + jrecords + [
        make_record(ts=0.1, duration=1.0 / 3.0, source_ip="2001:db8::9",
                    protocol_service="quic"),
    ]
    buf = StringIO()
    assert write_canonical_tsv(mixed, buf) == len(mixed)
    back, rstats = read_conn_log(StringIO(buf.getvalue()), format="tsv")
    assert back == mixed
    assert (rstats.emitted, rstats.skipped) == (len(mixed), 0)
    DETAILS["parser-conformance"] = (
        "tsv 3 emitted / 2 skipped, jsonl 2 / 3, "
        f"round trip of {len(mixed)} records lossless"
    )


@criterion("holdout-filter")
def test_holdout_filter_matches_brute_force():
    """No surviving record touches a held-out IP (under address
    canonicalization) and every untouched record survives, compared against
    a brute-force oracle over random record and holdout sets."""
    pool = [
        "10.0.0.1", "10.0.0.2", "10.0.0.3", "192.168.7.7",
        "2001:db8::1", "2001:0db8:0000:0000:0000:0000:0000:0001",
        "fe80::2", "172.16.3.4",
    ]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def property_holds(data):
        count = data.draw(st.integers(min_value=0, max_value=25))
        records = []
        for k in range(count):
            src = data.draw(st.sampled_from(pool))
            dst = data.draw(st.sampled_from([ip for ip in pool if ip != src]))
            records.append(
                make_record(ts=float(k), source_ip=src, destination_ip=dst)
            )
        holdout = data.draw(st.lists(st.sampled_from(pool), max_size=4))
        banned = {str(ip_address(ip)) for ip in holdout}
        expected = [
            r for r in records
            if r.source_ip not in banned and r.destination_ip not in banned
        ]
        got = filter_holdout(records, holdout)
        assert got == expected
        assert all(
            r.source_ip not in banned and r.destination_ip not in banned
            for r in got
        )

    property_holds()
    DETAILS["holdout-filter"] = "matches brute-force oracle on 200 random cases"

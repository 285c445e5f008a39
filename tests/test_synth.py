"""Synthetic traffic generator and the inductive holdout experiment
harness."""

import hashlib
import io
import json
import math

import numpy as np
import pytest

from conftest import assert_graphs_equal
from ipembed.graphs import build_interval_graphs, fit_scaler, normalize, save_graph
from ipembed.model import ModelConfig
from ipembed.synth import (
    DEFAULT_TRANSPORTS,
    FlowProfile,
    RoleSpec,
    default_roles,
    eval_inductive,
    generate,
    make_experiment,
    write_zeek_tsv,
)
from ipembed.training import TrainConfig, filter_holdout, train
from ipembed.zeek import ParseError, parse_conn_log, write_canonical_tsv


def simple_profile(peer, service="dns", fpm=6.0, req=(200.0, 0.4)):
    return FlowProfile(
        service=service,
        peer_role=peer,
        flows_per_min=fpm,
        request_bytes=req,
        response_bytes=(2.0 * req[0], req[1]),
        request_packets=(2.0, 0.2),
        response_packets=(2.0, 0.2),
        mean_duration=0.1,
    )


def two_roles(fpm=6.0, req=(200.0, 0.4)):
    return [
        RoleSpec(
            name="talker",
            members=5,
            ip_prefix="10.5.0.",
            profiles=(simple_profile("listener", fpm=fpm, req=req),),
        ),
        RoleSpec(name="listener", members=3, ip_prefix="10.5.1."),
    ]


# ---------------------------------------------------------------------------
# generation


def test_generate_is_deterministic():
    a = generate(two_roles(), 600.0, seed=5)
    b = generate(two_roles(), 600.0, seed=5)
    assert a == b
    c = generate(two_roles(), 600.0, seed=6)
    assert a != c


def test_generate_stream_is_time_sorted_and_bounded():
    records = generate(two_roles(), 900.0, seed=1)
    assert records
    ts = [r.ts for r in records]
    assert ts == sorted(ts)
    assert all(0.0 <= t < 900.0 for t in ts)


def test_generate_respects_role_topology():
    records = generate(two_roles(), 600.0, seed=2)
    talkers = {f"10.5.0.{i}" for i in range(1, 6)}
    listeners = {f"10.5.1.{i}" for i in range(1, 4)}
    assert {r.source_ip for r in records} <= talkers
    assert {r.destination_ip for r in records} <= listeners
    assert {r.protocol_service for r in records} == {"dns"}
    assert all(r.destination_port == 53 for r in records)


def test_generate_record_internal_consistency():
    for r in generate(two_roles(), 600.0, seed=3):
        assert r.bytes == r.request_bytes + r.response_bytes
        assert r.request_ip_bytes == r.request_bytes + 28 * r.request_packets
        assert r.response_ip_bytes == r.response_bytes + 28 * r.response_packets
        assert r.request_packets >= 1 and r.response_packets >= 1
        assert r.duration >= 0.0


def test_generate_mean_request_bytes_matches_profile():
    target = 500.0
    records = generate(two_roles(fpm=30.0, req=(target, 0.5)), 4800.0, seed=11)
    assert len(records) > 10000
    mean = np.mean([r.request_bytes for r in records])
    assert abs(mean - target) / target < 0.05


def test_generate_input_validation():
    with pytest.raises(ValueError):
        generate(two_roles()[:1], 600.0, seed=0)
    with pytest.raises(ValueError):
        generate(two_roles(), 0.0, seed=0)
    empty = RoleSpec(name="ghost", members=0, ip_prefix="10.9.0.")
    with pytest.raises(ValueError):
        generate([two_roles()[0], empty], 600.0, seed=0)
    dupes = [two_roles()[0], RoleSpec(name="talker", members=1, ip_prefix="10.9.1.")]
    with pytest.raises(ValueError):
        generate(dupes, 600.0, seed=0)
    bad_peer = [
        RoleSpec(
            name="a", members=1, ip_prefix="10.9.2.",
            profiles=(simple_profile("nobody"),),
        ),
        RoleSpec(name="b", members=1, ip_prefix="10.9.3."),
    ]
    with pytest.raises(ValueError):
        generate(bad_peer, 600.0, seed=0)


def test_role_specs_canonicalize_or_refuse_as_records_do():
    # Each member IP and service is read as a ConnRecord reads it, at its
    # first flow: source before destination before service.
    talker, listener = two_roles()
    v6 = RoleSpec(name="talker", members=3, ip_prefix="FE80::",
                  profiles=(simple_profile("listener", service="DNS"),))
    table = generate([v6, listener], 600.0, seed=0)
    assert {r.source_ip for r in table} == {"fe80::1", "fe80::2", "fe80::3"}
    assert {r.protocol_service for r in table} == {"dns"}
    bad_source = RoleSpec(name="talker", members=2, ip_prefix="10.0.00.",
                          profiles=talker.profiles)
    with pytest.raises(ParseError, match=r"^bad source_ip: '10\.0\.00\.1'$"):
        generate([bad_source, listener], 600.0, seed=0)
    empty = RoleSpec(name="talker", members=2, ip_prefix="10.5.0.",
                     profiles=(simple_profile("listener", service="(empty)"),))
    with pytest.raises(ParseError, match=r"^bad protocol_service: '\(empty\)'$"):
        generate([empty, listener], 600.0, seed=0)
    untouched = RoleSpec(name="idle", members=2, ip_prefix="10.0.00.")
    assert generate([talker, listener, untouched], 600.0, seed=0) == generate(
        [talker, listener], 600.0, seed=0
    )


def test_generated_bytes_are_pinned(experiment, tmp_path):
    # Digests taken before the generator drew into columns: any change to
    # the draw order, the checks or the sort shows here.
    buf = io.StringIO()
    write_canonical_tsv(generate(default_roles(8, 2, 2), 1800.0, seed=0), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "2c1b9c8fdfb51c81526ae7824534ae17bbb9068bf7575f47b3ce7fcbffa7490a"
    )
    digest = hashlib.sha256()
    for i, graph in enumerate(experiment.train_graphs + experiment.test_graphs):
        save_graph(graph, tmp_path / f"{i}.ipgr")
        digest.update((tmp_path / f"{i}.ipgr").read_bytes())
        digest.update(graph.features.tobytes())
    digest.update(json.dumps(experiment.vocab.tokens).encode())
    digest.update(experiment.scaler.log_max.tobytes())
    assert digest.hexdigest() == (
        "1050419b355fdd5adb7e79aaded4caefb5241daef04bd8e64f155d7c913d9737"
    )


def test_flow_profile_validation():
    # An infinite rate would make generate draw inter-arrival gaps of 0
    # forever; a NaN rate would silently draw no flows.
    for fpm in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="flows_per_min"):
            simple_profile("x", fpm=fpm)
    for mean_duration in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="mean_duration"):
            FlowProfile(
                service="dns", peer_role="x", flows_per_min=1.0,
                request_bytes=(1.0, 0.1), response_bytes=(1.0, 0.1),
                request_packets=(1.0, 0.1), response_packets=(1.0, 0.1),
                mean_duration=mean_duration,
            )


def test_default_roles_shape():
    roles = default_roles()
    assert [r.name for r in roles] == ["client", "dns_server", "web_server"]
    assert roles[0].members == 32
    assert {p.peer_role for p in roles[0].profiles} == {"dns_server", "web_server"}
    assert not roles[1].profiles and not roles[2].profiles


# ---------------------------------------------------------------------------
# TSV round trip through the parser


def test_write_zeek_tsv_round_trips_through_parser():
    records = generate(two_roles(), 600.0, seed=4)
    buf = io.StringIO()
    count = write_zeek_tsv(records, buf, transports=DEFAULT_TRANSPORTS)
    assert count == len(records)

    buf.seek(0)
    parsed, stats = parse_conn_log(buf)
    parsed = list(parsed)
    assert stats.read == len(records)
    assert stats.skipped == 0
    assert parsed == records


def test_write_zeek_tsv_header_block():
    buf = io.StringIO()
    write_zeek_tsv(generate(two_roles(), 60.0, seed=0), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "#separator \\x09"
    fields = next(line for line in lines if line.startswith("#fields"))
    assert "\tid.orig_h\t" in fields and "\tresp_ip_bytes" in fields


# ---------------------------------------------------------------------------
# experiment harness


@pytest.fixture(scope="module")
def experiment():
    return make_experiment(
        roles=default_roles(clients=6, dns_servers=4, web_servers=3),
        holdout_fraction=0.25,
        interval_len=600.0,
        seed=1,
        duration=2400.0,
        train_fraction=0.7,
    )


def test_experiment_holdout_never_in_training(experiment):
    holdout = set(experiment.holdout_ips)
    for graph in experiment.train_graphs:
        assert not holdout.intersection(graph.nodes)
    assert any(
        holdout.intersection(graph.nodes) for graph in experiment.test_graphs
    )


def test_experiment_holdout_size(experiment):
    # 4 dns servers at fraction 0.25 -> exactly one held out
    assert len(experiment.holdout_ips) == 1
    assert len(experiment.in_role_ips) == 3
    assert set(experiment.holdout_ips).isdisjoint(experiment.in_role_ips)
    assert all(ip.startswith("10.0.1.") for ip in experiment.holdout_ips)
    assert all(ip.startswith("10.0.2.") for ip in experiment.out_role_ips)


def test_experiment_time_split(experiment):
    # 4 intervals, train_fraction 0.7 -> split after interval 2
    assert experiment.split_ts == 1200.0
    for graph in experiment.train_graphs:
        assert graph.end <= experiment.split_ts
    for graph in experiment.test_graphs:
        assert graph.start >= experiment.split_ts
    assert experiment.train_graphs and experiment.test_graphs


def test_experiment_graphs_are_normalized(experiment):
    for graph in experiment.train_graphs + experiment.test_graphs:
        assert graph.features is not None
        assert graph.features.min() >= 0.0
        assert graph.features.max() <= 1.0


def test_experiment_graphs_come_from_the_interval_builder(experiment):
    split = experiment.split_ts
    train_records = filter_holdout(
        [r for r in experiment.records if r.ts < split], experiment.holdout_ips
    )
    test_records = [r for r in experiment.records if r.ts >= split]
    raw_train = build_interval_graphs(train_records, 600.0, experiment.vocab, 0.0)
    raw_test = build_interval_graphs(test_records, 600.0, experiment.vocab, 0.0)
    np.testing.assert_array_equal(
        fit_scaler(raw_train).log_max, experiment.scaler.log_max
    )
    for got, raw in ((experiment.train_graphs, raw_train), (experiment.test_graphs, raw_test)):
        assert len(got) == len(raw)
        for graph, want in zip(got, raw):
            assert_graphs_equal(graph, normalize(want, experiment.scaler))


def test_experiment_vocab_covers_services(experiment):
    assert {"dns", "http", "ssl", "other"} <= set(experiment.vocab.tokens)


def test_experiment_is_deterministic(experiment):
    again = make_experiment(
        roles=default_roles(clients=6, dns_servers=4, web_servers=3),
        holdout_fraction=0.25,
        interval_len=600.0,
        seed=1,
        duration=2400.0,
        train_fraction=0.7,
    )
    assert again.holdout_ips == experiment.holdout_ips
    assert again.records == experiment.records
    assert len(again.train_graphs) == len(experiment.train_graphs)
    np.testing.assert_array_equal(
        again.train_graphs[0].features, experiment.train_graphs[0].features
    )


def test_experiment_input_validation():
    roles = default_roles(clients=4, dns_servers=2, web_servers=2)
    with pytest.raises(ValueError):
        make_experiment(roles=roles, holdout_fraction=0.0)
    with pytest.raises(ValueError):
        make_experiment(roles=roles, train_fraction=1.5)
    with pytest.raises(ValueError):
        make_experiment(roles=roles, holdout_role="missing")
    one_server = default_roles(clients=4, dns_servers=1, web_servers=2)
    with pytest.raises(ValueError):
        make_experiment(roles=one_server)


def test_eval_inductive_rejects_leaked_holdout(experiment):
    from ipembed.training import ModelBundle
    from ipembed.model import init_params

    config = ModelConfig(
        edge_dim=experiment.train_graphs[0].feat_dim + 1,
        hidden=4,
        layers=2,
        decoder_hidden=4,
    )
    params, _ = train(
        experiment.train_graphs, config, TrainConfig(epochs=1, seed=0)
    )
    bundle = ModelBundle(params, config, experiment.vocab, experiment.scaler)
    with pytest.raises(ValueError, match="holdout"):
        eval_inductive(
            bundle,
            experiment.test_graphs,  # holdout leaks from here
            experiment.test_graphs,
            experiment.holdout_ips,
            experiment.in_role_ips,
            experiment.out_role_ips,
        )


def test_eval_inductive_result_consistency(experiment):
    from ipembed.training import ModelBundle

    config = ModelConfig(
        edge_dim=experiment.train_graphs[0].feat_dim + 1,
        hidden=8,
        layers=2,
        decoder_hidden=16,
    )
    params, _ = train(
        experiment.train_graphs, config, TrainConfig(epochs=10, seed=0)
    )
    bundle = ModelBundle(params, config, experiment.vocab, experiment.scaler)
    result = eval_inductive(
        bundle,
        experiment.train_graphs,
        experiment.test_graphs,
        experiment.holdout_ips,
        experiment.in_role_ips,
        experiment.out_role_ips,
    )
    assert result.n_graphs == len(result.per_graph) > 0
    for _, in_mean, out_mean, margin in result.per_graph:
        assert -1.0 <= in_mean <= 1.0
        assert -1.0 <= out_mean <= 1.0
        assert margin == pytest.approx(in_mean - out_mean, abs=1e-12)
    assert result.in_role_mean == pytest.approx(
        np.mean([v for _, v, _, _ in result.per_graph]), abs=1e-12
    )
    assert result.margin_mean == pytest.approx(
        result.in_role_mean - result.out_role_mean, abs=1e-12
    )


def test_eval_inductive_matches_per_pair_numpy(experiment):
    from ipembed.serving import infer_embeddings
    from ipembed.training import ModelBundle

    config = ModelConfig(
        edge_dim=experiment.train_graphs[0].feat_dim + 1,
        hidden=8,
        layers=2,
        decoder_hidden=16,
    )
    params, _ = train(experiment.train_graphs, config, TrainConfig(epochs=1, seed=0))
    bundle = ModelBundle(params, config, experiment.vocab, experiment.scaler)
    result = eval_inductive(
        bundle,
        experiment.train_graphs,
        experiment.test_graphs,
        experiment.holdout_ips,
        experiment.in_role_ips,
        experiment.out_role_ips,
    )

    def mean_cosine(es, held, group):
        values = []
        for a in held:
            for b in group:
                u = es.vectors[es.ips.index(a)]
                v = es.vectors[es.ips.index(b)]
                nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                values.append(0.0 if min(nu, nv) < 1e-12 else float(u @ v) / (nu * nv))
        return sum(values) / len(values)

    expected = []
    for graph in experiment.test_graphs:
        es = infer_embeddings(bundle, graph)
        held = sorted(ip for ip in experiment.holdout_ips if ip in es.ips)
        in_ips = [ip for ip in experiment.in_role_ips if ip in es.ips]
        out_ips = [ip for ip in experiment.out_role_ips if ip in es.ips]
        if held and in_ips and out_ips:
            expected.append(
                (graph.start, mean_cosine(es, held, in_ips), mean_cosine(es, held, out_ips))
            )
    assert expected
    assert [row[0] for row in result.per_graph] == [row[0] for row in expected]
    np.testing.assert_allclose(
        [row[1:3] for row in result.per_graph],
        [row[1:] for row in expected],
        rtol=0,
        atol=1e-12,
    )


def test_eval_inductive_requires_scoreable_graph(experiment):
    from ipembed.training import ModelBundle
    from ipembed.model import init_params

    config = ModelConfig(
        edge_dim=experiment.train_graphs[0].feat_dim + 1,
        hidden=4,
        layers=2,
        decoder_hidden=4,
    )
    bundle = ModelBundle(
        init_params(config, seed=0),
        config,
        experiment.vocab,
        experiment.scaler,
    )
    with pytest.raises(ValueError, match="no test graph"):
        eval_inductive(
            bundle,
            [],
            experiment.test_graphs,
            ["203.0.113.1"],  # never generated
            experiment.in_role_ips,
            experiment.out_role_ips,
        )

"""Training loop behavior, holdout filtering, the optimizer, and the model
file round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, random_graph, rewrite_model_config
from ipembed.binio import FormatError
from ipembed.graphs import (
    FeatureScaler,
    ProtocolVocab,
    aggregate_flows,
    build_interval_graphs,
    drop_nodes,
    fit_protocol_vocab,
    fit_scaler,
    normalize,
)
from ipembed.model import GraphTensors, ModelConfig, forward, init_params
from ipembed.training import (
    Adam,
    ModelBundle,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    filter_holdout,
    load_model,
    save_model,
    train,
)

VOCAB = ProtocolVocab(("dns", "http", "other"))


def toy_records(rng, n=60, ips=None, span=1800.0):
    ips = ips or [f"192.168.2.{i}" for i in range(10, 20)]
    records = []
    for _ in range(n):
        src, dst = rng.choice(ips, 2, replace=False)
        rb = int(rng.integers(1, 4000))
        vb = int(rng.integers(1, 4000))
        records.append(
            make_record(
                ts=float(rng.uniform(0, span)),
                source_ip=src,
                destination_ip=dst,
                protocol_service=str(rng.choice(["dns", "http"])),
                request_bytes=rb,
                response_bytes=vb,
                bytes=rb + vb,
            )
        )
    return records


def training_setup(seed=0, n_nodes=4, feat_dim=3, hidden=3):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_nodes=n_nodes, n_pairs=4, feat_dim=feat_dim)
    config = ModelConfig(
        edge_dim=feat_dim + 1, hidden=hidden, layers=2, decoder_hidden=4
    )
    return [graph], config


# ---------------------------------------------------------------------------
# holdout filtering


def test_filter_holdout_removes_touching_records():
    records = [
        make_record(source_ip="192.168.2.15", destination_ip="192.168.2.19"),
        make_record(source_ip="192.168.2.19", destination_ip="192.168.2.15"),
        make_record(source_ip="192.168.2.15", destination_ip="192.168.2.16"),
    ]
    kept = filter_holdout(records, {"192.168.2.19"})
    assert kept == [records[2]]


def test_filter_holdout_identity_and_empty():
    records = [make_record(), make_record(ts=200.0)]
    assert filter_holdout(records, set()) == records
    assert filter_holdout(records, {"10.0.0.1", "10.0.0.2"}) == []


def test_filter_holdout_canonicalizes_ips():
    records = [make_record(source_ip="2001:db8::1")]
    assert filter_holdout(records, {"2001:0db8::0001"}) == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=30
    ),
    st.sets(st.integers(0, 9), max_size=5),
)
def test_filter_holdout_matches_brute_force(pairs, holdout_idx):
    ips = [f"10.0.0.{i + 1}" for i in range(10)]
    records = [
        make_record(ts=float(i), source_ip=ips[a], destination_ip=ips[b])
        for i, (a, b) in enumerate(pairs)
    ]
    holdout = {ips[i] for i in holdout_idx}
    kept = filter_holdout(records, holdout)

    oracle = [
        r
        for r in records
        if r.source_ip not in holdout and r.destination_ip not in holdout
    ]
    assert kept == oracle
    # idempotent
    assert filter_holdout(kept, holdout) == kept


def test_filter_holdout_commutes_with_interval_split(rng):
    records = toy_records(rng)
    holdout = {"192.168.2.12", "192.168.2.17"}
    filtered_first = aggregate_flows(filter_holdout(records, holdout), 600.0, 0.0)
    split_first = aggregate_flows(records, 600.0, 0.0)
    pruned = {}
    for idx, groups in split_first.items():
        keep = {
            k: v
            for k, v in groups.items()
            if k.source_ip not in holdout and k.destination_ip not in holdout
        }
        if keep:
            pruned[idx] = keep
    assert set(filtered_first) == set(pruned)
    for idx in pruned:
        assert set(filtered_first[idx]) == set(pruned[idx])
        for key in pruned[idx]:
            np.testing.assert_array_equal(filtered_first[idx][key], pruned[idx][key])


def test_drop_nodes_equals_record_level_filtering(rng):
    records = toy_records(rng, n=80)
    holdout = ["192.168.2.11", "192.168.2.18"]
    vocab = fit_protocol_vocab(
        aggregate_flows(filter_holdout(records, holdout), 600.0, 0.0)
    )

    by_records = build_interval_graphs(
        filter_holdout(records, holdout), 600.0, vocab, origin=0.0
    )
    by_graphs = [
        g
        for g in (
            drop_nodes(graph, holdout)
            for graph in build_interval_graphs(records, 600.0, vocab, origin=0.0)
        )
        if g is not None
    ]

    assert len(by_records) == len(by_graphs)
    for a, b in zip(by_records, by_graphs):
        assert a.nodes == b.nodes
        np.testing.assert_array_equal(a.edge_src, b.edge_src)
        np.testing.assert_array_equal(a.edge_dst, b.edge_dst)
        np.testing.assert_array_equal(a.reverse, b.reverse)
        np.testing.assert_array_equal(a.raw_features, b.raw_features)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_is_noop(rng):
    arrays = [("w", rng.normal(size=(3, 3))), ("b", rng.normal(size=(1, 3)))]
    before = {name: arr.copy() for name, arr in arrays}
    opt = Adam(lr=0.05)
    opt.step(arrays, {name: np.zeros_like(arr) for name, arr in arrays})
    for name, arr in arrays:
        np.testing.assert_array_equal(arr, before[name])


def test_adam_moves_against_gradient(rng):
    w = rng.normal(size=(2, 2))
    before = w.copy()
    opt = Adam(lr=0.1)
    opt.step([("w", w)], {"w": np.ones_like(w)})
    assert np.all(w < before)


def test_zero_learning_rate_leaves_params_bitwise(rng):
    graphs, config = training_setup()
    params, _ = train(
        graphs, config, TrainConfig(epochs=3, learning_rate=0.0, seed=4)
    )
    fresh = init_params(config, seed=4)
    for (name, arr), (_, ref) in zip(params.named_arrays(), fresh.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)


# ---------------------------------------------------------------------------
# training loop


def test_loss_drops_by_10x_on_binary_targets():
    # A graph whose normalized features are exactly 0/1 has zero BCE floor:
    # one identical record per directed pair, so every aggregated value
    # equals the per-column max and normalizes to exactly 1.
    ips = [f"10.1.0.{i}" for i in range(1, 7)]
    pairs = [(0, 1), (2, 3), (4, 5), (1, 2)]
    records = [
        make_record(ts=10.0 * i, source_ip=ips[a], destination_ip=ips[b])
        for i, (a, b) in enumerate(pairs)
    ]
    vocab = fit_protocol_vocab(aggregate_flows(records, 600.0, 0.0))
    graphs = build_interval_graphs(records, 600.0, vocab, origin=0.0)
    scaler = fit_scaler(graphs)
    graphs = [normalize(g, scaler) for g in graphs]
    assert set(np.unique(graphs[0].features)) <= {0.0, 1.0}

    config = ModelConfig(
        edge_dim=graphs[0].feat_dim + 1,
        hidden=8,
        layers=2,
        decoder_hidden=16,
        lambda_neighbor=0.0,
    )
    _, history = train(
        graphs,
        config,
        TrainConfig(epochs=200, learning_rate=0.01, seed=0, patience=200),
    )
    assert history.recon[-1] < 0.1 * history.recon[0]


def test_training_is_deterministic(rng):
    graphs, config = training_setup(seed=2)
    cfg = TrainConfig(epochs=5, seed=9)
    params_a, hist_a = train(graphs, config, cfg)
    params_b, hist_b = train(graphs, config, cfg)
    assert hist_a.loss == hist_b.loss
    assert hist_a.recon == hist_b.recon
    assert hist_a.neighbor == hist_b.neighbor
    for (name, a), (_, b) in zip(params_a.named_arrays(), params_b.named_arrays()):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_history_lengths_and_best_epoch():
    graphs, config = training_setup()
    _, history = train(graphs, config, TrainConfig(epochs=4, seed=0))
    assert len(history) == 4
    assert len(history.recon) == len(history.neighbor) == len(history.seconds) == 4
    assert history.best_epoch == int(np.argmin(history.loss))


def test_divergence_aborts_with_location():
    graphs, config = training_setup()
    poisoned = init_params(config, seed=0)
    poisoned.dec_out_w[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError) as err, np.errstate(invalid="ignore"):
        train(graphs, config, TrainConfig(epochs=3, seed=0), initial_params=poisoned)
    assert err.value.epoch == 0
    assert err.value.graph_index == 0
    assert "epoch 0" in str(err.value)


def test_early_stop_on_plateau():
    graphs, config = training_setup()
    _, history = train(
        graphs, config, TrainConfig(epochs=50, learning_rate=0.0, seed=0, patience=3)
    )
    # epoch 0 sets the best; 3 stalled epochs then stop
    assert len(history) == 4


def test_epoch_log_format():
    graphs, config = training_setup()
    lines = []
    train(graphs, config, TrainConfig(epochs=2, seed=0), log=lines.append)
    assert len(lines) == 2
    head, *rest = lines[0].split()
    assert head == "epoch"
    assert rest[0] == "0"
    assert rest[1] == "loss" and rest[3] == "recon" and rest[5] == "neighbor"
    assert rest[7] == "seconds"
    float(rest[2]), float(rest[4]), float(rest[6]), float(rest[8])


def test_empty_graph_list_rejected():
    _, config = training_setup()
    with pytest.raises(ValueError):
        train([], config)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


# ---------------------------------------------------------------------------
# model file


def toy_scaler():
    return FeatureScaler(log_max=np.linspace(0.5, 4.5, 24))


def trained_bundle(tmp_seed=0):
    graphs, config = training_setup(seed=tmp_seed)
    params, _ = train(graphs, config, TrainConfig(epochs=3, seed=tmp_seed))
    return ModelBundle(params, config, VOCAB, toy_scaler())


def test_model_file_round_trip(tmp_path):
    bundle = trained_bundle()
    path = tmp_path / "model.ipgm"
    save_model(bundle, path)
    loaded = load_model(path)

    assert loaded.config == bundle.config
    assert loaded.vocab.tokens == bundle.vocab.tokens
    np.testing.assert_array_equal(loaded.scaler.log_max, bundle.scaler.log_max)
    for (name, a), (_, b) in zip(
        loaded.params.named_arrays(), bundle.params.named_arrays()
    ):
        np.testing.assert_array_equal(a, b, err_msg=name)
    for (name, a), (_, b) in zip(
        loaded.params.named_buffers(), bundle.params.named_buffers()
    ):
        np.testing.assert_array_equal(a, b, err_msg=name)
    for (_, pa), (_, pb) in zip(loaded.params.bn_pairs(), bundle.params.bn_pairs()):
        assert pa.state.initialized == pb.state.initialized


def test_loaded_model_reproduces_inference(tmp_path, rng):
    bundle = trained_bundle()
    path = tmp_path / "model.ipgm"
    save_model(bundle, path)
    loaded = load_model(path)

    graph = random_graph(rng, n_nodes=5, n_pairs=5, feat_dim=3)
    gt = GraphTensors.from_graph(graph)
    a = forward(bundle.params, bundle.config, gt, mode="eval")
    b = forward(loaded.params, loaded.config, gt, mode="eval")
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    np.testing.assert_array_equal(a.decoded.data, b.decoded.data)


def test_model_file_corrupted_magic(tmp_path):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"ZZZZ"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_file_bad_version(tmp_path):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (999).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_file_truncated(tmp_path):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(len(blob) * 0.8)])
    with pytest.raises(FormatError):
        load_model(path)


def test_model_file_missing_running_stats(tmp_path):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"bn_edge_in.running_mean", b"xx_edge_in.running_mean"))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_file_trailing_garbage(tmp_path):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {**doc, "unknown_key": 1},
        lambda doc: list(doc),
        lambda doc: {**doc, "hidden": "x"},
        lambda doc: {**doc, "bn_initialized": [True]},
    ],
    ids=["unknown-key", "json-list", "hidden-not-int", "bn-flags-not-object"],
)
def test_model_file_bad_config_section(tmp_path, edit):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    rewrite_model_config(path, edit)
    with pytest.raises(FormatError):
        load_model(path)


def test_model_file_legacy_neg_samples_key(tmp_path):
    # Files from before negative sampling was removed store neg_samples = 0
    # and still load; any other count is refused.
    bundle = trained_bundle()
    path = tmp_path / "model.ipgm"
    save_model(bundle, path)
    rewrite_model_config(path, lambda doc: {**doc, "neg_samples": 0})
    assert load_model(path).config == bundle.config
    rewrite_model_config(path, lambda doc: {**doc, "neg_samples": 2})
    with pytest.raises(FormatError):
        load_model(path)


def test_checkpointing(tmp_path):
    graphs, config = training_setup()
    ckpt = tmp_path / "ckpt.ipgm"
    scaler = toy_scaler()
    train(
        graphs,
        config,
        TrainConfig(epochs=4, seed=0, checkpoint_every=2, checkpoint_path=str(ckpt)),
        vocab=VOCAB,
        scaler=scaler,
    )
    assert ckpt.exists()
    loaded = load_model(ckpt)
    assert loaded.vocab.tokens == VOCAB.tokens

"""Training loop behavior, holdout filtering, the optimizer, and the model
file round trip."""

import importlib.util
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipembed.autodiff as ad
import ipembed.model as model
import ipembed.training as training
from conftest import (
    cyclic_gc_off,
    damaged,
    make_record,
    model_tensor_record,
    random_graph,
    rewrite_model_config,
    rewrite_model_section,
    with_model_tensor,
)
from ipembed.autodiff import backward
from ipembed.binio import FormatError
from ipembed.graphs import (
    N_NUMERIC,
    FeatureScaler,
    ProtocolVocab,
    aggregate_flows,
    build_interval_graphs,
    fit_protocol_vocab,
    fit_scaler,
    normalize,
)
from ipembed.model import (
    GraphTensors, ModelConfig, edge_dim_for_vocab, forward, init_params
)
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
# The width of a graph built with VOCAB: its one-hot block and numeric blocks.
VOCAB_FEATURES = VOCAB.size * (1 + N_NUMERIC)


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


def test_adam_matches_the_out_of_place_update(rng):
    # The arrays of a dtype step on views into one shared scratch pair; an
    # array larger than the pair that joins at a later step grows it.
    arrays = [
        ("w", rng.normal(size=(4, 3))),
        ("b", rng.normal(size=(1, 3))),
        ("h", rng.normal(size=(2, 5)).astype(np.float32)),
    ]
    late = ("big", rng.normal(size=(6, 6)))
    expected = {name: arr.copy() for name, arr in [*arrays, late]}
    m = {name: np.zeros_like(arr) for name, arr in expected.items()}
    v = {name: np.zeros_like(arr) for name, arr in expected.items()}
    opt = Adam(lr=0.01)
    b1, b2, eps = TrainConfig.beta1, TrainConfig.beta2, TrainConfig.adam_eps
    for t in (1, 2, 3):
        stepped = arrays + [late] * (t > 1)
        grads = {name: rng.normal(size=arr.shape) for name, arr in stepped}
        opt.step(stepped, grads)
        for name, _ in stepped:
            g = grads[name].astype(expected[name].dtype)
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (g * g) * (1.0 - b2)
            expected[name] -= (
                0.01 * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
            )
        for name, arr in stepped:
            assert arr.tobytes() == expected[name].tobytes(), (t, name)


def test_training_step_tape_dies_with_its_result():
    # forward, backward and an optimizer step, as train() takes them: once
    # the caller drops the result, reference counting alone frees the tape.
    graphs, config = training_setup()
    gt = GraphTensors.from_graph(graphs[0])
    params = init_params(config, seed=0)
    opt = Adam(lr=0.01)
    with cyclic_gc_off():
        result = forward(params, config, gt, mode="train")
        tape = weakref.ref(result.loss.tape)
        backward(result.loss)
        opt.step(params.named_arrays(), {n: t.grad for n, t in result.leaves.items()})
        del result
        assert tape() is None


def test_training_steps_run_in_float32_on_float64_state(monkeypatch):
    # One float64 constant in a primitive upcasts a whole step and leaves
    # every result near enough to pass: every node and gradient of every
    # step train() takes is float32, and everything it keeps is float64.
    # Backward keeps no gradient of a node that is not a leaf, so each vjp
    # is wrapped to check the gradient it receives, which is its node's
    # accumulated gradient, and every part it hands on.
    graphs, config = training_setup()
    tapes, optimizers, vjp_calls = [], [], []

    def float32_vjp(vjp):
        def checked(grad):
            assert grad.dtype == np.float32
            parts = vjp(grad)
            assert all(part is None or part.dtype == np.float32 for part in parts)
            vjp_calls.append(len(parts))
            return parts

        return checked

    def recording_backward(loss):
        tapes.append(loss.tape)
        for node in loss.tape._nodes:
            if node.vjp is not None:
                node.vjp = float32_vjp(node.vjp)
        backward(loss)

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(training, "Adam", RecordingAdam)
    params, _ = train(graphs, config, TrainConfig(epochs=2, seed=0))

    assert len(tapes) == 2 and len(optimizers) == 1
    # Every node that is not a leaf passed its gradient on.
    inner = [node for tape in tapes for node in tape._nodes if node.parents]
    assert len(vjp_calls) == len(inner) > 0
    for tape in tapes:
        assert len(tape) > 0
        for node in tape._nodes:
            assert node.tensor.data.dtype == np.float32
            if not node.parents:
                assert node.tensor.grad.dtype == np.float32
    opt = optimizers[0]
    moments = [*opt._m.values(), *opt._v.values()]
    assert len(moments) == 2 * len(params.arrays)
    buffers = [arr for _, arr in params.named_buffers()]
    for arr in [*params.arrays.values(), *buffers, *moments]:
        assert arr.dtype == np.float64


def test_train_holds_one_step_tape_at_a_time(monkeypatch):
    # The next step's forward starts only after the previous step's tape,
    # with its forward values, vjps and gradients, has been freed by
    # reference counting alone.
    graphs, config = training_setup()
    tapes = []

    def recording_backward(loss):
        tapes.append(weakref.ref(loss.tape))
        backward(loss)

    def checked_forward(*args, **kwargs):
        assert all(tape() is None for tape in tapes), "a previous step's tape is alive"
        return forward(*args, **kwargs)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(training, "forward", checked_forward)
    with cyclic_gc_off():
        train(graphs, config, TrainConfig(epochs=3, seed=0, patience=3))
        assert len(tapes) == 3
        assert all(tape() is None for tape in tapes)


def test_training_step_peak_memory_is_a_few_dozen_edge_arrays(wide_experiment):
    """The traced peak of one training step on a 5,436-edge graph, counted
    in (E, hidden) float32 arrays, stays under 35. It is about 25.5: the
    arrays the vjps read plus the gradients not yet propagated. A tape that
    kept every forward value until the step returned peaked near 56.8."""
    exp = wide_experiment
    config = ModelConfig(edge_dim=edge_dim_for_vocab(exp.vocab.size))
    (graph,) = exp.test_graphs
    tensors = [GraphTensors.from_graph(graph, np.float32)]
    params = init_params(config, seed=0)
    optimizer = Adam()
    training._step(params, config, tensors, optimizer, 0, 0)  # Adam's state
    unit = graph.n_edges * config.hidden * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        training._step(params, config, tensors, optimizer, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 * unit


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
    graphs[0].features[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError) as err, np.errstate(invalid="ignore"):
        train(graphs, config, TrainConfig(epochs=3, seed=0))
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
    """A bundle whose graphs, config, vocab and scaler agree on the width."""
    graphs, config = training_setup(seed=tmp_seed, feat_dim=VOCAB_FEATURES)
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
        assert pa.initialized == pb.initialized


def test_loaded_model_reproduces_inference(tmp_path, rng):
    bundle = trained_bundle()
    path = tmp_path / "model.ipgm"
    save_model(bundle, path)
    loaded = load_model(path)

    graph = random_graph(rng, n_nodes=5, n_pairs=5, feat_dim=VOCAB_FEATURES)
    gt = GraphTensors.from_graph(graph)
    a = forward(bundle.params, bundle.config, gt, mode="eval")
    b = forward(loaded.params, loaded.config, gt, mode="eval")
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    np.testing.assert_array_equal(
        ad.stable_sigmoid(a.logits.data), ad.stable_sigmoid(b.logits.data)
    )


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


def test_model_file_section_length_past_end_is_refused_before_reading(tmp_path):
    # A 2**40-byte config section would need a terabyte buffer; the length
    # is checked against the file before any is allocated.
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    blob = bytearray(path.read_bytes())
    blob[6:14] = (2**40).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="truncated"):
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
        lambda doc: {**doc, "bn_eps": -5},
        lambda doc: {**doc, "bn_eps": float("inf")},
        lambda doc: {**doc, "gate_eps": 0.0},
        lambda doc: {**doc, "gate_eps": float("nan")},
        lambda doc: {**doc, "bn_momentum": 1.5},
        lambda doc: {**doc, "bn_momentum": -0.1},
        lambda doc: {**doc, "lambda_recon": -0.5},
        lambda doc: {**doc, "lambda_neighbor": float("nan")},
    ],
    ids=[
        "unknown-key",
        "json-list",
        "hidden-not-int",
        "bn-flags-not-object",
        "bn-eps-negative",
        "bn-eps-infinite",
        "gate-eps-zero",
        "gate-eps-nan",
        "bn-momentum-above-one",
        "bn-momentum-negative",
        "loss-weight-negative",
        "loss-weight-nan",
    ],
)
def test_model_file_bad_config_section(tmp_path, edit):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    rewrite_model_config(path, edit)
    with pytest.raises(FormatError):
        load_model(path)


def edit_bn_flags(edit):
    """A config-section edit that applies ``edit`` to the batch norm flags."""

    def apply(raw):
        doc = json.loads(raw)
        edit(doc["bn_initialized"])
        return json.dumps(doc).encode("utf-8")

    return apply


def first_tensor_record(table):
    name_len = int.from_bytes(table[4:6], "little")
    rows = int.from_bytes(table[6 + name_len : 10 + name_len], "little")
    cols = int.from_bytes(table[10 + name_len : 14 + name_len], "little")
    return table[4 : 14 + name_len + 8 * rows * cols]


def huge_first_shape(table):
    name_len = int.from_bytes(table[4:6], "little")
    return table[: 6 + name_len] + b"\xff" * 8 + table[14 + name_len :]


@pytest.mark.parametrize(
    "index, edit",
    [
        (0, lambda raw: b"{not json"),
        (1, lambda raw: b"5"),
        (1, lambda raw: b'["tcp"]'),
        (1, lambda raw: b'[5, "other"]'),
        (1, lambda raw: b"\xff\xfe"),
        (2, lambda raw: (len(raw) // 8 + 1).to_bytes(4, "little") + raw[4:]),
        (2, lambda raw: raw + b"\x00" * 8),
        (2, lambda raw: raw[:2]),
        (2, lambda raw: raw[:4] + np.zeros((len(raw) - 4) // 8).tobytes()),
        (0, edit_bn_flags(lambda flags: flags.update(bn_edge_in="false"))),
        (0, edit_bn_flags(lambda flags: flags.update(bn_edge_in=1))),
        (0, edit_bn_flags(lambda flags: flags.update(bn_bogus=True))),
        (3, lambda table: with_model_tensor(table, model_tensor_record("bogus.w"))),
        (3, lambda table: with_model_tensor(table, first_tensor_record(table))),
        (3, lambda table: table.replace(b"edge_embed", b"\xffdge_embed", 1)),
        (3, huge_first_shape),
    ],
    ids=[
        "config-not-json",
        "vocab-int",
        "vocab-no-other-slot",
        "vocab-non-string-token",
        "vocab-not-utf8",
        "scaler-count-past-payload",
        "scaler-bytes-past-count",
        "scaler-truncated-count",
        "scaler-zero-maxima",
        "bn-flag-string",
        "bn-flag-int",
        "bn-flag-unknown-key",
        "tensor-unknown-name",
        "tensor-repeated",
        "tensor-name-not-utf8",
        "tensor-huge-shape",
    ],
)
def test_model_file_malformed_section(tmp_path, index, edit):
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)
    rewrite_model_section(path, index, edit)
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize(
    "edge_dim, tokens, n_scaler",
    [
        (19, ("dns", "http", "tcp", "other"), 40),
        (VOCAB_FEATURES + 2, VOCAB.tokens, 3 * N_NUMERIC),
        (VOCAB_FEATURES + 1, VOCAB.tokens, 4 * N_NUMERIC),
    ],
    ids=["all-disagree", "edge-dim-off-by-one", "scaler-too-wide"],
)
def test_model_file_width_mismatch_is_refused(tmp_path, edge_dim, tokens, n_scaler):
    config = ModelConfig(edge_dim=edge_dim, hidden=3, layers=1, decoder_hidden=4)
    scaler = FeatureScaler(log_max=np.ones(n_scaler))
    path = tmp_path / "model.ipgm"
    save_model(
        ModelBundle(init_params(config), config, ProtocolVocab(tokens), scaler), path
    )
    with pytest.raises(FormatError, match="do not fit"):
        load_model(path)


FIXTURE = Path(__file__).parent / "data" / "init_seed7.ipgm"


def fixture_bundle():
    """The bundle ``tests/data/init_seed7.ipgm`` was saved from, by the
    ``save_model`` of the release before parameters became name tables."""
    config = ModelConfig(edge_dim=19, hidden=4, layers=2, decoder_hidden=4)
    params = init_params(config, seed=7)
    params.mark_bn_initialized()
    scaler = FeatureScaler(log_max=np.arange(1.0, 1.0 + 2 * N_NUMERIC))
    return ModelBundle(params, config, ProtocolVocab(("tcp", "other")), scaler)


def test_committed_model_file_resaves_byte_for_byte(tmp_path):
    path = tmp_path / "model.ipgm"
    save_model(load_model(FIXTURE), path)
    assert path.read_bytes() == FIXTURE.read_bytes()


def test_loading_draws_no_weights(tmp_path, monkeypatch):
    # The loader allocates the arrays and the file fills every one of them.
    path = tmp_path / "model.ipgm"
    save_model(trained_bundle(), path)

    def no_draw(*args):
        raise AssertionError("load_model drew random weights")

    monkeypatch.setattr(model, "_glorot", no_draw)
    resaved = tmp_path / "resaved.ipgm"
    save_model(load_model(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_seeded_init_saves_to_the_committed_bytes(tmp_path):
    # Pins the random draw order of init_params and the tensor order.
    path = tmp_path / "model.ipgm"
    save_model(fixture_bundle(), path)
    assert path.read_bytes() == FIXTURE.read_bytes()


@pytest.fixture(scope="module")
def damaged_model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "model.ipgm"


@settings(max_examples=200, deadline=None)
@given(blob=damaged(FIXTURE.read_bytes()))
def test_damaged_model_file_loads_or_is_format_error(damaged_model_path, blob):
    damaged_model_path.write_bytes(blob)
    try:
        load_model(damaged_model_path)
    except FormatError:
        pass


def test_perfbench_bundle_check_reads_the_package_surface():
    # perfbench/checks.py is loaded as it stands: a rename in ModelParams
    # or BatchNorm that it still spells the old way fails here.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)

    bundle = load_model(FIXTURE)
    assert checks.bundles_equal(bundle, load_model(FIXTURE))
    flipped = load_model(FIXTURE)
    flipped.params.bns["conv1.bn_node"].initialized = False
    assert not checks.bundles_equal(bundle, flipped)
    nudged = load_model(FIXTURE)
    nudged.params.arrays["conv0.gate_edge"][2, 3] += 1e-9
    assert not checks.bundles_equal(bundle, nudged)


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

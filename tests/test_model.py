"""Network forward pass: hand-evaluated layer oracles, residual identities,
loss arithmetic, gate bounds, and permutation equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipembed.autodiff as ad
from conftest import (
    legacy_forward,
    neighbor_loss,
    random_graph,
    reconstruction_loss,
)
from ipembed.autodiff import Tape, backward, grad_check
from ipembed.model import (
    ForwardResult,
    GraphTensors,
    ModelConfig,
    conv_layer,
    decode,
    edge_dim_for_vocab,
    forward,
    init_params,
    input_layer,
)
from ipembed.synth import default_roles, make_experiment

LN2 = 0.6931471805599453


def unit_config(**kw):
    base = dict(edge_dim=1, hidden=1, layers=2, decoder_hidden=1)
    base.update(kw)
    return ModelConfig(**base)


def zero_params(config, seed=0):
    params = init_params(config, seed=seed)
    for name, arr in params.named_arrays():
        if not name.endswith(".gamma") and not name.endswith(".beta"):
            arr[:] = 0.0
    return params


def set_running_identity(params):
    for _, bn in params.bn_pairs():
        width = bn.running_mean.shape[1]
        bn.running_mean, bn.running_var = np.zeros((1, width)), np.ones((1, width))
        bn.initialized = True


def test_edge_dim_for_vocab():
    assert edge_dim_for_vocab(2) == 2 + 2 * 8 + 1 == 19
    assert edge_dim_for_vocab(4) == 37


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(edge_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(edge_dim=4, hidden=0)
    with pytest.raises(ValueError):
        ModelConfig(edge_dim=4, layers=0)
    with pytest.raises(ValueError):
        ModelConfig(edge_dim=4, lambda_recon=-1.0)


# ---------------------------------------------------------------------------
# hand-evaluated oracles at one dimension


def test_input_layer_hand_oracle():
    # Pair A<->B carrying 0.8 forward and 0.3 back; scalar weights 1.5 / 2.0.
    config = unit_config(edge_dim=1, layers=1)
    params = zero_params(config)
    params.arrays["edge_embed"][:] = 1.5
    params.arrays["edge_to_node"][:] = 2.0
    # A graph stores one row per pair, so the asymmetric pair is built as
    # tensors directly: edge 0 sends A->B, edge 1 B->A, no direction flag.
    gt = GraphTensors(
        n_nodes=2,
        recv=np.array([1, 0]),
        send=np.array([0, 1]),
        feats=np.array([[0.8], [0.3]]),
    )

    h, edge_state, gates = input_layer(params, config, gt, mode="train")
    np.testing.assert_allclose(
        edge_state.data[:, 0],
        [1.7999644463406284, 0.3],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        gates.data[:, 0],
        [0.99999883469659256, 0.99999825918480967],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        h.data[:, 0],
        [0.0, 0.99998000056718206],
        rtol=0,
        atol=1e-12,
    )


def test_conv_layer_hand_oracle():
    # Single node with a self-loop pair, scalar weights, eval-mode BN at
    # unit running stats.
    config = unit_config(edge_dim=1)
    params = zero_params(config)
    params.arrays["conv1.gate_recv"][:] = 1.1
    params.arrays["conv1.gate_send"][:] = 0.9
    params.arrays["conv1.gate_edge"][:] = 1.3
    params.arrays["conv1.node_self"][:] = 0.6
    params.arrays["conv1.node_msg"][:] = 1.7
    set_running_identity(params)

    gt = GraphTensors(
        n_nodes=1,
        recv=np.array([0, 0]),
        send=np.array([0, 0]),
        feats=np.zeros((2, 1)),
    )
    h = np.array([[0.7]])
    edge_state = np.array([[0.5], [-0.2]])
    new_h, new_edge, gates = conv_layer(params, config, gt, h, edge_state, layer=1)

    np.testing.assert_allclose(
        new_edge.data[:, 0],
        [2.5499897500768745, 0.93999430004274975],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        gates.data[:, 0],
        [0.56330139758958364, 0.43669799512505642],
        rtol=0,
        atol=1e-12,
    )
    assert new_h.data[0, 0] == pytest.approx(2.3099912273944092, abs=1e-12)


def test_decode_hand_oracle():
    config = unit_config(edge_dim=1)
    params = zero_params(config)
    params.arrays["dec_hidden_w"][:] = [[1.0, -2.0, 3.0]]
    params.arrays["dec_hidden_b"][:] = 0.1
    params.arrays["dec_out_w"][:] = 0.5
    params.arrays["dec_out_b"][:] = -0.3

    gt = GraphTensors(
        n_nodes=2,
        recv=np.array([1]),
        send=np.array([0]),
        feats=np.zeros((1, 1)),
    )
    h = np.array([[0.2], [0.5]])
    edge_state = np.array([[0.4]])
    out = decode(params, config, gt, h, edge_state)
    assert out.data[0, 0] == pytest.approx(0.59868766011245211, abs=1e-15)


# ---------------------------------------------------------------------------
# residual and zero-weight identities


def test_input_layer_zero_weight_edge_identity():
    config = ModelConfig(edge_dim=3, hidden=4, layers=1, decoder_hidden=4)
    params = zero_params(config)
    rng = np.random.default_rng(0)
    graph = random_graph(rng, n_nodes=4, n_pairs=4, feat_dim=2)
    gt = GraphTensors.from_graph(graph)

    _, edge_state, _ = input_layer(params, config, gt, mode="train")
    np.testing.assert_array_equal(edge_state.data, gt.feats)


def test_conv_zero_weights_double_residual():
    # Zero weights: node states pass through exactly at every layer; edge
    # states pass through exactly at hidden-to-hidden layers.
    config = ModelConfig(edge_dim=5, hidden=3, layers=2, decoder_hidden=4)
    params = zero_params(config)
    set_running_identity(params)
    rng = np.random.default_rng(1)
    graph = random_graph(rng, n_nodes=5, n_pairs=6, feat_dim=4)
    gt = GraphTensors.from_graph(graph)

    h = rng.normal(size=(5, 3))
    edge_state = rng.normal(size=(gt.feats.shape[0], 3))
    new_h, new_edge, _ = conv_layer(
        params, config, gt, h, edge_state, layer=1, mode="eval"
    )
    np.testing.assert_array_equal(new_h.data, h)
    np.testing.assert_array_equal(new_edge.data, edge_state)


def test_conv_boundary_layer_node_identity():
    # The first conv layer re-projects the edge state, so only the node
    # residual survives zero weights there.
    config = ModelConfig(edge_dim=5, hidden=3, layers=1, decoder_hidden=4)
    params = zero_params(config)
    set_running_identity(params)
    rng = np.random.default_rng(2)
    graph = random_graph(rng, n_nodes=5, n_pairs=5, feat_dim=4)
    gt = GraphTensors.from_graph(graph)

    h = rng.normal(size=(5, 3))
    edge_state = rng.normal(size=(gt.feats.shape[0], 5))
    new_h, new_edge, _ = conv_layer(
        params, config, gt, h, edge_state, layer=0, mode="eval"
    )
    np.testing.assert_array_equal(new_h.data, h)
    np.testing.assert_array_equal(new_edge.data, np.zeros((gt.feats.shape[0], 3)))


def test_decoder_zero_weights_give_half():
    config = ModelConfig(edge_dim=4, hidden=3, layers=1, decoder_hidden=5)
    params = zero_params(config)
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_nodes=4, n_pairs=3, feat_dim=3)
    gt = GraphTensors.from_graph(graph)
    out = decode(
        params, config, gt, rng.normal(size=(4, 3)),
        rng.normal(size=(gt.feats.shape[0], 3)),
    )
    np.testing.assert_array_equal(out.data, np.full(out.shape, 0.5))


def test_loss_at_half_is_ln2():
    targets = np.full((4, 3), 0.5)
    probs = np.full((4, 3), 0.5)
    assert reconstruction_loss(targets, probs, 1.0) == pytest.approx(LN2, abs=1e-12)
    assert reconstruction_loss(targets, probs, 0.35) == pytest.approx(
        0.35 * LN2, abs=1e-12
    )


# ---------------------------------------------------------------------------
# loss arithmetic


def test_reconstruction_loss_oracle():
    value = reconstruction_loss(np.array([[1.0, 0.0]]), np.array([[0.9, 0.2]]), 1.0)
    assert value == pytest.approx(0.164252033486018, abs=1e-10)
    assert value == pytest.approx(0.1643, abs=1e-4)


def test_reconstruction_loss_limits_and_errors():
    assert reconstruction_loss(np.ones((2, 2)), np.ones((2, 2)), 1.0) == 0.0
    assert reconstruction_loss(np.zeros((2, 2)), np.zeros((2, 2)), 1.0) == 0.0
    with pytest.raises(ValueError):
        reconstruction_loss(np.ones((2, 2)), np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        reconstruction_loss(np.ones((1, 1)), np.array([[1.5]]), 1.0)
    with pytest.raises(FloatingPointError):
        reconstruction_loss(np.ones((1, 1)), np.zeros((1, 1)), 1.0)


def test_neighbor_loss_oracles():
    # Zero embeddings: every directed edge contributes ln 2.
    h = np.zeros((3, 4))
    recv = np.array([0, 1, 2, 0])
    send = np.array([1, 0, 0, 2])
    assert neighbor_loss(h, recv, send, 0.01) == pytest.approx(
        0.01 * 4 * LN2, abs=1e-12
    )
    # Two nodes with identical unit embeddings and both directed edges.
    h = np.array([[1.0, 0.0], [1.0, 0.0]])
    value = neighbor_loss(h, np.array([1, 0]), np.array([0, 1]), 0.01)
    assert value == pytest.approx(0.01 * 0.62652337503644562, abs=1e-10)


def test_neighbor_loss_vanishes_for_aligned_large_embeddings():
    h = np.array([[100.0], [100.0]])
    assert neighbor_loss(h, np.array([1, 0]), np.array([0, 1]), 1.0) == pytest.approx(
        0.0, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1e-4, 0.4))
def test_clipped_targets_beat_uniform_half(seed, delta):
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.0, 1.0, (6, 5))
    clipped = np.clip(targets, delta, 1.0 - delta)
    uniform = np.full_like(targets, 0.5)
    assert reconstruction_loss(targets, clipped, 1.0) < reconstruction_loss(
        targets, uniform, 1.0
    )


# ---------------------------------------------------------------------------
# full forward semantics


def small_setup(seed=0, n_nodes=5, n_pairs=6, feat_dim=4, hidden=3):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_nodes=n_nodes, n_pairs=n_pairs, feat_dim=feat_dim)
    config = ModelConfig(
        edge_dim=feat_dim + 1, hidden=hidden, layers=2, decoder_hidden=4
    )
    params = init_params(config, seed=seed)
    return params, config, GraphTensors.from_graph(graph)


def test_forward_losses_match_numpy_helpers():
    params, config, gt = small_setup()
    res = forward(params, config, gt, mode="train")

    decoded = ad.stable_sigmoid(res.logits.data)
    recon = reconstruction_loss(gt.feats, decoded, config.lambda_recon)
    assert res.recon_loss.item() == pytest.approx(recon, abs=1e-12)

    neighbor = neighbor_loss(res.embeddings, gt.recv, gt.send, config.lambda_neighbor)
    assert res.neighbor_loss.item() == pytest.approx(neighbor, abs=1e-12)
    assert res.loss.item() == pytest.approx(
        res.recon_loss.item() + res.neighbor_loss.item(), abs=0
    )


def test_forward_shapes_and_ranges():
    params, config, gt = small_setup(seed=5)
    res = forward(params, config, gt, mode="train")
    n_edges = gt.feats.shape[0]
    assert res.embeddings.shape == (gt.n_nodes, config.hidden)
    assert res.edge_states.data.shape == (n_edges, config.hidden)
    decoded = ad.stable_sigmoid(res.logits.data)
    assert decoded.shape == (n_edges, config.edge_dim)
    assert np.all(decoded > 0.0) and np.all(decoded < 1.0)
    assert len(res.gates) == 1 + config.layers
    for gates in res.gates:
        assert np.all(gates.data > 0.0) and np.all(gates.data < 1.0)
    assert np.all(np.isfinite(res.embeddings))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_from_graph_writes_each_row_into_both_edges_of_its_pair(dtype):
    graph = random_graph(np.random.default_rng(3), n_nodes=6, n_pairs=7, feat_dim=5)
    gt = GraphTensors.from_graph(graph, dtype)
    assert gt.feats.dtype == dtype and gt.feats.shape == (graph.n_edges, 6)
    rows = graph.features.astype(dtype).tobytes()
    assert gt.feats[0::2, :-1].tobytes() == rows
    assert gt.feats[1::2, :-1].tobytes() == rows
    assert gt.feats[:, -1].tolist() == [0.0, 1.0] * (graph.n_edges // 2)
    assert gt.recv.tolist() == graph.edge_dst.tolist()
    assert gt.send.tolist() == graph.edge_src.tolist()


def test_forward_rejects_bad_inputs():
    params, config, gt = small_setup()
    with pytest.raises(ValueError):
        forward(params, config, gt, mode="predict")
    bad = GraphTensors(gt.n_nodes, gt.recv, gt.send, gt.feats[:, :-2])
    with pytest.raises(ValueError):
        forward(params, config, bad)


def test_eval_before_train_rejected():
    params, config, gt = small_setup()
    with pytest.raises(RuntimeError):
        forward(params, config, gt, mode="eval")


def test_eval_deterministic_after_stats_frozen():
    params, config, gt = small_setup(seed=11)
    forward(params, config, gt, mode="train")  # initialize running stats
    a = forward(params, config, gt, mode="eval")
    b = forward(params, config, gt, mode="eval")
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    np.testing.assert_array_equal(
        ad.stable_sigmoid(a.logits.data), ad.stable_sigmoid(b.logits.data)
    )


def test_train_mode_gradient_check_full_model():
    params, config, gt = small_setup(seed=21, n_nodes=5, n_pairs=5)
    named = dict(params.named_arrays())

    def build(tape, leaves):
        return forward(
            params, config, gt, mode="train", tape=tape, leaves=leaves
        ).loss

    assert grad_check(build, named, step=1e-5) < 1e-4


def test_train_mode_reads_no_running_statistic():
    # Why the train-mode gradient checks are pure although every call folds
    # its batch statistics into the running ones.
    params, config, gt = small_setup(seed=24)
    rng = np.random.default_rng(24)

    def step():
        res = forward(params, config, gt, mode="train")
        backward(res.loss)
        grads = {name: leaf.grad.tobytes() for name, leaf in res.leaves.items()}
        return res.loss.data.tobytes(), grads

    first = step()
    for bn in params.bns.values():
        bn.running_mean = rng.normal(size=bn.running_mean.shape)
        bn.running_var = rng.uniform(0.1, 10.0, bn.running_var.shape)
    assert step() == first


def test_eval_mode_gradient_check_full_model():
    params, config, gt = small_setup(seed=22, n_nodes=5, n_pairs=5)
    forward(params, config, gt, mode="train")  # freeze running stats
    named = dict(params.named_arrays())

    def build(tape, leaves):
        return forward(
            params, config, gt, mode="eval", tape=tape, leaves=leaves
        ).loss

    assert grad_check(build, named, step=1e-5) < 1e-4


@pytest.mark.parametrize("part", ["forward", "input_layer", "conv_layer", "decode"])
def test_results_land_on_the_callers_empty_tape(part):
    # An empty tape has length 0; it must still be used, not replaced.
    params, config, gt = small_setup(seed=23)
    set_running_identity(params)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((gt.n_nodes, config.hidden))
    tape = Tape()
    if part == "forward":
        out = forward(params, config, gt, mode="eval", tape=tape).loss
    elif part == "input_layer":
        out = input_layer(params, config, gt, tape=tape)[0]
    elif part == "conv_layer":
        out = conv_layer(params, config, gt, h, gt.feats, 0, tape=tape)[0]
    else:
        edges = rng.standard_normal((len(gt.recv), config.hidden))
        out = decode(params, config, gt, h, edges, tape=tape)
    assert out.tape is tape
    assert len(tape) > 0


def test_permutation_equivariance():
    params, config, gt = small_setup(seed=31, n_nodes=6, n_pairs=8)
    forward(params, config, gt, mode="train")  # initialize running stats

    rng = np.random.default_rng(99)
    for _ in range(5):
        perm = rng.permutation(gt.n_nodes)
        permuted = GraphTensors(
            n_nodes=gt.n_nodes,
            recv=perm[gt.recv],
            send=perm[gt.send],
            feats=gt.feats,
        )
        base = forward(params, config, gt, mode="eval").embeddings
        moved = forward(params, config, permuted, mode="eval").embeddings
        np.testing.assert_allclose(moved[perm], base, atol=1e-9, rtol=0)


def test_desk_training_step_records_at_most_100_tape_nodes():
    # Batch norm and gate normalization are one tape node each; as chains
    # of elementwise nodes they would put a desk step far above 100.
    data = make_experiment(default_roles(32, 4, 6), duration=1200.0, seed=0)
    config = ModelConfig(edge_dim=edge_dim_for_vocab(data.vocab.size))
    gt = GraphTensors.from_graph(data.train_graphs[0])
    res = forward(init_params(config), config, gt, mode="train")
    assert len(res.loss.tape) <= 100


def _desk_cases():
    data = make_experiment(default_roles(32, 4, 6), duration=1800.0, seed=3)
    config = ModelConfig(edge_dim=edge_dim_for_vocab(data.vocab.size))
    params = init_params(config, seed=3)
    return [(params, config, GraphTensors.from_graph(g)) for g in data.train_graphs]


def _isolated_case():
    # Three trailing nodes own no edge, so their segments are empty.
    params, config, gt = small_setup(seed=61, n_nodes=7, n_pairs=9, hidden=5)
    wider = GraphTensors(gt.n_nodes + 3, gt.recv, gt.send, gt.feats)
    return [(params, config, wider)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("cases", [_desk_cases, _isolated_case])
def test_node_side_layers_match_edge_side_oracle(cases, mode):
    # Projecting on nodes and then gathering only reorders sums, so states,
    # logits, loss, every parameter gradient and the running statistics
    # agree with the edge-side reference to rounding.
    for params, config, gt in cases():
        if mode == "eval":
            forward(params, config, gt, mode="train")  # set running stats
        ours, ref = params.copy(), params.copy()
        got = forward(ours, config, gt, mode=mode)
        want = legacy_forward(ref, config, gt, mode=mode)
        backward(got.loss)
        backward(want.loss)
        pairs = [
            ("node states", got.node_states.data, want.node_states.data),
            ("logits", got.logits.data, want.logits.data),
            ("loss", got.loss.data, want.loss.data),
        ]
        pairs += [
            (name, got.leaves[name].grad, want.leaves[name].grad)
            for name in params.arrays
        ]
        pairs += [
            (name, a, b)
            for (name, a), (_, b) in zip(ours.named_buffers(), ref.named_buffers())
        ]
        for what, a, b in pairs:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=what)


def test_isolated_nodes_share_constant_embedding():
    # Two extra nodes with no incident edges; at unit running stats the
    # empty-neighborhood state is exactly zero.
    params, config, gt = small_setup(seed=41, n_nodes=4, n_pairs=4)
    set_running_identity(params)
    bigger = GraphTensors(
        n_nodes=gt.n_nodes + 2, recv=gt.recv, send=gt.send, feats=gt.feats
    )
    res = forward(params, config, bigger, mode="eval")
    iso = res.embeddings[gt.n_nodes:]
    np.testing.assert_array_equal(iso[0], iso[1])
    np.testing.assert_array_equal(iso, np.zeros_like(iso))


def test_bce_from_logits_matches_literal_formula():
    params, config, gt = small_setup(seed=51)
    res = forward(params, config, gt, mode="train")
    p = ad.stable_sigmoid(res.logits.data)
    t = gt.feats
    literal = -np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert res.recon_loss.item() == pytest.approx(literal, abs=1e-12)

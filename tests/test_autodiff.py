"""Tape engine: primitive forward values, backward rules against central
finite differences, batch norm, gate normalization, and the checker itself."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipembed.autodiff as ad
import ipembed.training as training
from conftest import cyclic_gc_off, random_graph
from ipembed.autodiff import BatchNorm, Segments, ShapeError, Tape, backward, grad_check
from ipembed.model import GraphTensors, ModelConfig, float32_leaves, forward, init_params

TOL = 1e-6  # far below the 1e-4 contract; these programs are smooth


def weighted(tape, out, weights):
    # Reduce with fixed non-uniform weights so FD sees every output entry.
    return ad.sum_all(ad.hadamard(out, tape.leaf(weights)))


def check(make_out, arrays, rng, step=1e-5):
    """FD-check d(weighted sum of output)/d(each array in ``arrays``)."""
    shapes = {}

    def build(tape, leaves):
        out = make_out(tape, leaves)
        if "w" not in shapes:
            shapes["w"] = rng.uniform(0.5, 1.5, out.shape)
        return weighted(tape, out, shapes["w"])

    return grad_check(build, arrays, step=step)


# ---------------------------------------------------------------------------
# forward oracles


def test_relu_forward_and_mask():
    tape = Tape()
    x = tape.leaf([[-1.0, 2.0]])
    y = ad.relu(x)
    np.testing.assert_array_equal(y.data, [[0.0, 2.0]])
    loss = ad.sum_all(y)
    backward(loss)
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])


def test_segment_sum_forward():
    tape = Tape()
    x = tape.leaf([[1.0], [2.0], [3.0]])
    y = ad.segment_sum(x, [0, 0, 1], 2)
    np.testing.assert_array_equal(y.data, [[3.0], [3.0]])


def test_segment_sum_rejects_bad_ids():
    tape = Tape()
    x = tape.leaf([[1.0], [2.0]])
    with pytest.raises(ValueError):
        ad.segment_sum(x, [0, 5], 2)
    with pytest.raises(ValueError):
        ad.segment_sum(x, [0, -1], 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(1, 12),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
def test_segments_sum_matches_add_at(n_rows, count, cols, seed):
    # Fewer rows than ids leave segments empty; count 1 and 0 rows are
    # drawn too.
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, count, n_rows)
    rows = rng.normal(size=(n_rows, cols))
    expected = np.zeros((count, cols))
    np.add.at(expected, ids, rows)
    got = Segments(ids, count).sum(rows)
    assert got.shape == (count, cols)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_segments_edge_cases_and_plain_ids():
    empty = Segments(np.zeros(0, dtype=np.int64), 3)
    np.testing.assert_array_equal(empty.sum(np.zeros((0, 2))), np.zeros((3, 2)))
    assert Segments([0, 0, 0], 1).sum(np.ones((3, 2))).tolist() == [[3.0, 3.0]]
    with pytest.raises(ShapeError):
        Segments([[0, 1]], 2)
    seg = Segments([2, 0, 2], 4)
    tape = Tape()
    x = tape.leaf([[1.0], [2.0], [3.0]])
    by_seg = ad.segment_sum(x, seg)
    np.testing.assert_array_equal(
        by_seg.data, ad.segment_sum(x, [2, 0, 2], 4).data
    )
    np.testing.assert_array_equal(by_seg.data, [[2.0], [0.0], [4.0], [0.0]])
    with pytest.raises(ShapeError):
        ad.segment_sum(x, seg, 5)  # count disagrees with the segments
    with pytest.raises(ShapeError):
        ad.gather_rows(x, seg)  # 4 segments but x has 3 rows
    with pytest.raises(ShapeError):
        ad.segment_sum(x, [2, 0, 2])  # plain ids need a count


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_segments_sum_is_one_reduceat_bit_for_bit(dtype):
    # Segment 3 is longer than a block, every fifth id is empty, and the
    # row count leaves a partial last block.
    rng = np.random.default_rng(5)
    block = ad.BLOCK_ROWS
    count = 200
    used = np.array([i for i in range(count) if i % 5])
    ids = np.concatenate(
        [np.full(block * 5 // 2, 3), rng.choice(used, 2 * block + block // 3)]
    )
    rng.shuffle(ids)
    rows = rng.normal(size=(len(ids), 9)).astype(dtype)
    seg = Segments(ids, count)
    assert len(seg.blocks) > 3
    # Blocks hold whole segments, so one holds all of segment 3.
    assert max(order.size for _, order, _ in seg.blocks) >= block * 5 // 2
    order = np.argsort(ids, kind="stable")
    sizes = np.bincount(ids, minlength=count)
    expected = np.zeros((count, 9), dtype=dtype)
    expected[sizes > 0] = np.add.reduceat(
        rows[order], (np.cumsum(sizes) - sizes)[sizes > 0], axis=0
    )
    got = seg.sum(rows)
    assert got.dtype == dtype
    assert got.tobytes() == expected.tobytes()


def test_leaf_aliases_a_float64_matrix():
    # No copy: a leaf is the caller's array, recorded or not.
    arr = np.arange(6.0).reshape(2, 3)
    for record in (True, False):
        assert np.shares_memory(Tape(record=record).leaf(arr).data, arr)


def test_leaf_keeps_float32_and_turns_the_rest_into_float64():
    arr = np.arange(6.0, dtype=np.float32).reshape(2, 3)
    for record in (True, False):
        leaf = Tape(record=record).leaf(arr)
        assert leaf.data.dtype == np.float32
        assert np.shares_memory(leaf.data, arr)
    assert Tape().leaf([[1, 2]]).data.dtype == np.float64
    assert Tape().leaf(np.ones((2, 2), np.float16)).data.dtype == np.float64


def test_sigmoid_forward_and_grad():
    tape = Tape()
    x = tape.leaf([[0.0]])
    y = ad.sigmoid(x)
    assert y.data[0, 0] == 0.5
    backward(ad.sum_all(y))
    assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_sigmoid_saturation_stable():
    tape = Tape()
    x = tape.leaf([[800.0, -800.0]])
    y = ad.sigmoid(x)
    assert np.all(np.isfinite(y.data))
    assert y.data[0, 0] == pytest.approx(1.0)
    assert y.data[0, 1] == pytest.approx(0.0)


def test_linear_gradient_oracle():
    # loss = sum(x W^T) with W=[[1,2]], x=[[3,4]] -> dloss/dW = [3,4]
    tape = Tape()
    w = tape.leaf([[1.0, 2.0]])
    x = tape.leaf([[3.0, 4.0]])
    loss = ad.sum_all(ad.linear(x, w))
    assert loss.item() == 11.0
    backward(loss)
    np.testing.assert_array_equal(w.grad, [[3.0, 4.0]])
    np.testing.assert_array_equal(x.grad, [[1.0, 2.0]])


def test_bce_with_logits_forward():
    tape = Tape()
    logits = tape.leaf([[0.0, 0.0]])
    loss = ad.bce_with_logits_mean(logits, np.array([[0.5, 0.5]]))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-15)


def test_log_sigmoid_matches_numpy_helper():
    x = np.array([[-50.0, -1.0, 0.0, 1.0, 50.0]])
    tape = Tape()
    t = tape.leaf(x)
    np.testing.assert_allclose(
        ad.log_sigmoid(t).data, ad.log_sigmoid_np(x), atol=1e-15
    )
    assert np.all(np.isfinite(ad.log_sigmoid_np(np.array([[-800.0]]))))


def _kernel_grid(dtype):
    """Signed zeros, infinities, subnormals and magnitudes up to 1e4 in
    both signs, then a seeded random block."""
    info = np.finfo(dtype)
    special = [0.0, np.inf, info.smallest_subnormal, info.smallest_normal, 1e-30]
    special += list(np.logspace(-8, 4, 49))
    values = np.array(special, dtype=dtype)
    block = np.random.default_rng(18).standard_normal(4096) * 20.0
    grid = np.concatenate([values, -values, block.astype(dtype)])
    return grid.reshape(-1, 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_and_sigmoid_match_the_masked_formulas_bit_for_bit(dtype):
    x = _kernel_grid(dtype)
    assert np.signbit(x).any() and (x == 0).any()
    y = ad.relu(Tape().leaf(x)).data
    masked = np.where(x > 0, x, 0.0)
    assert y.dtype == masked.dtype == dtype
    assert y.tobytes() == masked.tobytes()
    e = np.exp(-np.abs(x))
    branched = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = ad.stable_sigmoid(x)
    assert s.dtype == branched.dtype == dtype
    assert s.tobytes() == branched.tobytes()


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-15)])
def test_softplus_matches_logaddexp(dtype, rtol):
    x = _kernel_grid(dtype)
    got = ad.softplus(x)
    want = np.logaddexp(0.0, x)
    assert got.dtype == want.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    edges = np.array([[np.inf, -np.inf]], dtype=dtype)
    assert ad.softplus(edges).tobytes() == np.logaddexp(0.0, edges).tobytes()


def test_relu_lets_nan_through():
    tape = Tape()
    x = tape.leaf(np.array([[np.nan, -1.0, 2.0]], dtype=np.float32))
    y = ad.relu(x)
    assert np.isnan(y.data[0, 0]) and y.data[0, 1:].tolist() == [0.0, 2.0]
    backward(ad.sum_all(ad.columns(y, 1, 3)))
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]


def test_nan_behind_a_relu_stops_float32_training(monkeypatch):
    # A NaN decoder bias reaches only a relu. The masked relu turned it into a
    # dead unit and training went on with finite losses; now the NaN reaches
    # the loss and training stops with the divergence error (CLI exit 3).
    real_init = training.init_params

    def init_with_nan_bias(config, seed):
        params = real_init(config, seed=seed)
        params.arrays["dec_hidden_b"][0, 0] = np.nan
        return params

    monkeypatch.setattr(training, "init_params", init_with_nan_bias)
    graph = random_graph(np.random.default_rng(0), n_nodes=4, n_pairs=4, feat_dim=3)
    config = ModelConfig(edge_dim=4, hidden=3, layers=2, decoder_hidden=4)
    with pytest.raises(training.TrainingDivergedError) as err:
        with np.errstate(invalid="ignore"):
            training.train([graph], config, training.TrainConfig(epochs=2, seed=0))
    assert (err.value.epoch, err.value.graph_index) == (0, 0)


# ---------------------------------------------------------------------------
# finite-difference checks per primitive


def test_fd_linear(rng):
    arrays = {"x": rng.normal(size=(6, 4)), "w": rng.normal(size=(3, 4))}
    err = check(lambda t, l: ad.linear(l["x"], l["w"]), arrays, rng)
    assert err < TOL


def test_fd_add_same_shape(rng):
    arrays = {"a": rng.normal(size=(5, 5)), "b": rng.normal(size=(5, 5))}
    err = check(lambda t, l: ad.add(l["a"], l["b"]), arrays, rng)
    assert err < TOL


def test_fd_add_bias_row(rng):
    arrays = {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=(1, 3))}
    err = check(lambda t, l: ad.add(l["a"], l["b"]), arrays, rng)
    assert err < TOL


def test_fd_hadamard(rng):
    arrays = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=(4, 4))}
    err = check(lambda t, l: ad.hadamard(l["a"], l["b"]), arrays, rng)
    assert err < TOL


def test_fd_relu_away_from_kink(rng):
    x = rng.normal(size=(6, 6))
    x[np.abs(x) < 0.1] = 0.5
    err = check(lambda t, l: ad.relu(l["x"]), {"x": x}, rng)
    assert err < TOL


def test_fd_sigmoid_log_logsigmoid_rsqrt(rng):
    err = check(lambda t, l: ad.sigmoid(l["x"]), {"x": rng.normal(size=(3, 4))}, rng)
    assert err < TOL
    err = check(
        lambda t, l: ad.log_sigmoid(l["x"]), {"x": rng.normal(size=(3, 4))}, rng
    )
    assert err < TOL


def test_fd_scalar_ops_and_neg(rng):
    arrays = {"x": rng.normal(size=(3, 3))}
    err = check(
        lambda t, l: ad.scalar_mul(ad.scalar_mul(l["x"], -1.0), 2.5),
        arrays,
        rng,
    )
    assert err < TOL


def test_fd_columns(rng):
    arrays = {"w": rng.normal(size=(3, 7))}
    for start, stop in ((0, 2), (2, 5), (5, 7), (0, 7)):
        err = check(lambda t, l: ad.columns(l["w"], start, stop), arrays, rng)
        assert err < TOL


def test_columns_forward_and_bad_ranges():
    tape = Tape()
    w = tape.leaf(np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(ad.columns(w, 1, 3).data, w.data[:, 1:3])
    for start, stop in ((-1, 2), (2, 2), (3, 1), (0, 5)):
        with pytest.raises(ShapeError):
            ad.columns(w, start, stop)


def test_fd_gather_linear(rng):
    # Node 2 owns no row, so its gradient rows come only from zeros.
    ids = np.array([0, 3, 3, 1, 0, 3])
    arrays = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(5, 3))}
    for indices in (ids, Segments(ids, 4)):
        err = check(
            lambda t, l: ad.gather_linear(l["x"], l["w"], indices), arrays, rng
        )
        assert err < TOL


def test_gather_linear_matches_gather_then_linear(rng):
    ids = np.array([1, 0, 1, 1, 4])
    x_data, w_data = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
    g = rng.normal(size=(5, 2))
    results = []
    for fused in (True, False):
        tape = Tape()
        x, w = tape.leaf(x_data), tape.leaf(w_data)
        if fused:
            out = ad.gather_linear(x, w, ids)
        else:
            out = ad.linear(ad.gather_rows(x, ids), w)
        backward(ad.sum_all(ad.hadamard(out, tape.leaf(g))))
        results.append((out.data, x.grad, w.grad))
    for fused, plain in zip(*results):
        np.testing.assert_allclose(fused, plain, rtol=0, atol=1e-12)
    tape = Tape()
    with pytest.raises(ShapeError):
        ad.gather_linear(tape.leaf(x_data), tape.leaf(rng.normal(size=(2, 4))), ids)
    with pytest.raises(ShapeError):
        ad.gather_linear(tape.leaf(x_data), tape.leaf(w_data), Segments(ids, 6))


def test_fd_gather_and_segment(rng):
    ids = np.array([0, 2, 2, 1, 0, 3])
    arrays = {"x": rng.normal(size=(4, 3))}
    err = check(lambda t, l: ad.gather_rows(l["x"], ids), arrays, rng)
    assert err < TOL
    arrays = {"x": rng.normal(size=(6, 3))}
    err = check(lambda t, l: ad.segment_sum(l["x"], ids, 4), arrays, rng)
    assert err < TOL


def test_fd_reductions(rng):
    arrays = {"x": rng.normal(size=(5, 4))}
    err = check(lambda t, l: ad.row_sums(l["x"]), arrays, rng)
    assert err < TOL
    err = grad_check(lambda t, l: ad.sum_all(l["x"]), arrays)
    assert err < 1e-10  # linear program, exact to FD resolution


def test_fd_bce_with_logits(rng):
    targets = rng.uniform(0.05, 0.95, (5, 4))
    arrays = {"z": rng.normal(size=(5, 4))}
    err = grad_check(lambda t, l: ad.bce_with_logits_mean(l["z"], targets), arrays)
    assert err < TOL


def test_fd_batch_norm_train(rng):
    arrays = {
        "x": rng.normal(size=(7, 3)),
        "g": rng.uniform(0.5, 1.5, (1, 3)),
        "b": rng.normal(size=(1, 3)),
    }
    state = BatchNorm.create(3)

    def make(tape, leaves):
        return ad.batch_norm(
            leaves["x"], leaves["g"], leaves["b"], state, mode="train"
        )

    err = check(make, arrays, rng)
    assert err < TOL


def test_fd_batch_norm_eval(rng):
    state = BatchNorm(rng.normal(size=(1, 3)), rng.uniform(0.5, 2.0, (1, 3)), True)
    arrays = {
        "x": rng.normal(size=(4, 3)),
        "g": rng.uniform(0.5, 1.5, (1, 3)),
        "b": rng.normal(size=(1, 3)),
    }

    def make(tape, leaves):
        return ad.batch_norm(
            leaves["x"], leaves["g"], leaves["b"], state, mode="eval"
        )

    err = check(make, arrays, rng)
    assert err < TOL


def test_fd_gate_normalize(rng):
    ids = np.array([0, 0, 1, 2, 2, 2])
    arrays = {"s": rng.normal(size=(6, 3))}
    err = check(lambda t, l: ad.gate_normalize(l["s"], Segments(ids, 3)), arrays, rng)
    assert err < TOL


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(2, 16), st.integers(0, 2**31 - 1))
def test_fd_random_shapes_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    arrays = {
        "x": rng.normal(size=(rows, cols)),
        "w": rng.normal(size=(cols, cols)),
    }

    def make(tape, leaves):
        return ad.sigmoid(ad.linear(leaves["x"], leaves["w"]))

    err = check(make, arrays, rng)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# batch norm semantics


def test_bn_two_point_column():
    tape = Tape()
    x = tape.leaf([[1.0], [3.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    state = BatchNorm.create(1)
    out = ad.batch_norm(x, g, b, state, mode="train")
    # population variance 1, so +-1 up to the 1e-5 epsilon inside the sqrt
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)
    assert state.initialized


def test_bn_affine_parameters():
    tape = Tape()
    x = tape.leaf([[-1.0], [1.0]])  # already standardized
    g = tape.leaf([[2.0]])
    b = tape.leaf([[5.0]])
    out = ad.batch_norm(x, g, b, BatchNorm.create(1), mode="train")
    np.testing.assert_allclose(out.data, [[3.0], [7.0]], rtol=1e-4)


def test_bn_constant_column_guard():
    tape = Tape()
    x = tape.leaf([[4.0], [4.0], [4.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    out = ad.batch_norm(x, g, b, BatchNorm.create(1), mode="train")
    np.testing.assert_array_equal(out.data, [[0.0], [0.0], [0.0]])


def test_bn_running_stat_update():
    state = BatchNorm.create(2)
    tape = Tape()
    x = tape.leaf([[1.0, 10.0], [3.0, 30.0]])
    g = tape.leaf([[1.0, 1.0]])
    b = tape.leaf([[0.0, 0.0]])
    ad.batch_norm(x, g, b, state, mode="train")
    np.testing.assert_allclose(state.running_mean, [[0.9 * 0 + 0.1 * 2, 0.1 * 20]])
    np.testing.assert_allclose(state.running_var, [[0.9 * 1 + 0.1 * 1, 0.9 + 0.1 * 100]])


def test_bn_eval_uses_running_stats():
    state = BatchNorm(np.zeros((1, 1)), np.ones((1, 1)), True)
    tape = Tape()
    x = tape.leaf([[2.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    out = ad.batch_norm(x, g, b, state, mode="eval")
    assert out.data[0, 0] == pytest.approx(2.0 / np.sqrt(1.0 + 1e-5), abs=1e-12)


def test_bn_eval_before_init_rejected():
    tape = Tape()
    x = tape.leaf([[1.0], [2.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    with pytest.raises(RuntimeError):
        ad.batch_norm(x, g, b, BatchNorm.create(1), mode="eval")


def test_bn_train_needs_two_rows():
    tape = Tape()
    x = tape.leaf([[1.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    with pytest.raises(ValueError):
        ad.batch_norm(x, g, b, BatchNorm.create(1), mode="train")


# ---------------------------------------------------------------------------
# gate normalization semantics


def test_gate_single_edge_value():
    tape = Tape()
    score = tape.leaf([[0.0]])
    gates = ad.gate_normalize(score, Segments([0], 1))
    assert gates.data[0, 0] == pytest.approx(0.5 / (0.5 + 1e-6), abs=1e-12)


def test_gate_two_edges_split():
    tape = Tape()
    score = tape.leaf([[0.0], [0.0]])
    gates = ad.gate_normalize(score, Segments([0, 0], 1))
    np.testing.assert_allclose(gates.data, 0.5 / (1.0 + 1e-6), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_gate_bounds_property(n_edges, n_dims, seed):
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, n_edges + 1))
    ids = rng.integers(0, n_nodes, n_edges)
    tape = Tape()
    score = tape.leaf(rng.normal(scale=4.0, size=(n_edges, n_dims)))
    gates = ad.gate_normalize(score, Segments(ids, n_nodes)).data
    assert np.all(gates > 0.0)
    assert np.all(gates < 1.0)
    sums = np.zeros((n_nodes, n_dims))
    np.add.at(sums, ids, gates)
    occupied = np.zeros(n_nodes, dtype=bool)
    occupied[ids] = True
    assert np.all(sums[occupied] > 0.0)
    assert np.all(sums[occupied] < 1.0)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        backward(x)


def test_unreachable_leaf_gets_zero_grad():
    tape = Tape()
    x = tape.leaf([[1.0]])
    unused = tape.leaf([[5.0, 6.0]])
    backward(ad.sum_all(ad.scalar_mul(x, 2.0)))
    np.testing.assert_array_equal(unused.grad, [[0.0, 0.0]])
    assert x.grad[0, 0] == 2.0


def test_reused_node_visited_once_with_accumulated_grad():
    tape = Tape()
    x = tape.leaf([[3.0]])
    y = ad.scalar_mul(x, 1.0)
    calls = []
    node = tape._nodes[y.nid]
    orig = node.vjp
    node.vjp = lambda g: calls.append(g.copy()) or orig(g)
    backward(ad.sum_all(ad.add(y, y)))
    assert len(calls) == 1
    assert calls[0][0, 0] == 2.0
    assert x.grad[0, 0] == 2.0


def test_unrecorded_tape_keeps_values_but_refuses_backward():
    tape = Tape(record=False)
    x = tape.leaf([[1.0, 2.0]])
    loss = ad.sum_all(ad.scalar_mul(x, 3.0))
    assert loss.item() == 9.0
    assert len(tape) == 0
    assert x.grad is None
    with pytest.raises(ValueError, match="records nothing"):
        backward(loss)


def test_tensor_with_two_consumers_gets_summed_gradient():
    # x feeds hadamard and, later on the tape, add. Backward reaches the add
    # first, whose vjp hands one array to x, y and the outer add's operands;
    # adding hadamard's part to x in place would change y's gradient too.
    tape = Tape()
    x = tape.leaf([[1.0, -2.0]])
    y = tape.leaf([[3.0, 5.0]])
    loss = ad.sum_all(ad.add(ad.hadamard(x, x), ad.add(x, y)))
    backward(loss)
    # d/dx sum(x*x + x + y) = 2x + 1; d/dy = 1.
    np.testing.assert_array_equal(x.grad, [[3.0, -3.0]])
    np.testing.assert_array_equal(y.grad, [[1.0, 1.0]])


def test_gradients_are_read_only_after_backward():
    # add's vjp passes the same array to both operands, so the two leaves'
    # gradients may share memory; writing into one must not reach the other.
    tape = Tape()
    a = tape.leaf([[1.0, 2.0]])
    b = tape.leaf([[3.0, 4.0]])
    unused = tape.leaf([[0.0]])
    backward(ad.sum_all(ad.add(a, b)))
    for leaf in (a, b, unused):
        with pytest.raises(ValueError, match="read-only"):
            leaf.grad[0, 0] = 99.0
    np.testing.assert_array_equal(a.grad, [[1.0, 1.0]])
    np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])


def test_backward_keeps_leaf_gradients_only():
    # loss = sum(relu(x @ w.T) + x @ w.T): the intermediate nodes hand their
    # gradients on and keep none, while the leaves keep theirs read-only.
    tape = Tape()
    x = tape.leaf([[1.0, -2.0], [0.5, 3.0]])
    w = tape.leaf([[2.0, 1.0], [-1.0, 0.5]])
    unused = tape.leaf([[4.0]])
    y = ad.linear(x, w)
    z = ad.add(ad.relu(y), y)
    loss = ad.sum_all(z)
    backward(loss)
    for inner in (y, z, loss):
        assert inner.grad is None
    assert all(node.vjp is None for node in tape._nodes)
    g = 1.0 + (y.data > 0)  # d loss / d y
    np.testing.assert_array_equal(x.grad, g @ w.data)
    np.testing.assert_array_equal(w.grad, g.T @ x.data)
    np.testing.assert_array_equal(unused.grad, [[0.0]])
    for leaf in (x, w, unused):
        with pytest.raises(ValueError, match="read-only"):
            leaf.grad[0, 0] = 99.0


def test_recording_tape_keeps_no_non_leaf_value():
    # A non-leaf value lives as long as a handle or a vjp holds it, not as
    # long as its tape: add's vjp captures nothing, while relu's captures
    # its output until backward drops the vjp.
    tape = Tape()
    x = tape.leaf([[1.0, -2.0], [0.5, 3.0]])
    w = tape.leaf([[2.0, 1.0], [-1.0, 0.5]])
    total = ad.add(x, w)
    rectified = ad.relu(x)
    loss = ad.add(ad.sum_all(total), ad.sum_all(rectified))
    with cyclic_gc_off():
        uncaptured, captured = weakref.ref(total.data), weakref.ref(rectified.data)
        del total, rectified
        assert uncaptured() is None
        assert captured() is not None
        backward(loss)
        assert captured() is None
    assert [node.tensor.data.size for node in tape._nodes] == [4, 4, 0, 0, 0, 0, 0]
    np.testing.assert_array_equal(x.grad, [[2.0, 1.0], [2.0, 2.0]])  # 1 + (x > 0)
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_recorded_node_exposes_an_array_of_its_dtype(dtype):
    # A reader of the tape may sum ``node.tensor.data.nbytes`` over all
    # nodes: every record holds an ndarray of its value's dtype, a leaf its
    # own value and any other node a zero-size stand-in.
    graph = random_graph(np.random.default_rng(0), n_nodes=5, n_pairs=6, feat_dim=4)
    gt = GraphTensors.from_graph(graph, dtype)
    config = ModelConfig(edge_dim=gt.feats.shape[1], hidden=3, decoder_hidden=4)
    params = init_params(config)
    tape = Tape()
    leaves = float32_leaves(tape, params) if dtype == np.float32 else None
    result = forward(params, config, gt, mode="train", tape=tape, leaves=leaves)
    for node in tape._nodes:
        assert isinstance(node.tensor.data, np.ndarray)
        assert node.tensor.data.dtype == dtype
        if node.parents:
            assert node.tensor.data.nbytes == 0
    for leaf in result.leaves.values():
        assert tape._nodes[leaf.nid].tensor.data is leaf.data


def test_spent_tape_refuses_a_second_backward():
    tape = Tape()
    x = tape.leaf([[2.0]])
    loss = ad.sum_all(ad.scalar_mul(x, 3.0))
    backward(loss)
    with pytest.raises(ValueError, match="already run"):
        backward(loss)
    # A loss recorded after the pass would reach the spent nodes too.
    with pytest.raises(ValueError, match="already run"):
        backward(ad.add(loss, ad.sum_all(x)))
    assert x.grad[0, 0] == 3.0


def test_gather_on_unrecorded_tape_sorts_nothing(monkeypatch, rng):
    # A plain id array's sort plan is built by the first sum: a gather's
    # backward, which a tape that records nothing never runs.
    sorts = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    ids = rng.integers(0, 5, 40)
    x_data, w_data = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
    for record in (False, True):
        tape = Tape(record=record)
        x, w = tape.leaf(x_data), tape.leaf(w_data)
        rows = ad.gather_rows(x, ids)
        product = ad.gather_linear(x, w, ids)
        assert not sorts
        assert rows.data.tobytes() == x_data[ids].tobytes()
        assert product.data.tobytes() == (x_data @ w_data.T)[ids].tobytes()
    backward(ad.add(ad.sum_all(rows), ad.sum_all(product)))
    assert len(sorts) == 2
    expected = np.zeros((5, 3))
    np.add.at(expected, ids, 1.0 + w_data.sum(axis=0))
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_mixed_tapes_rejected():
    a = Tape().leaf([[1.0]])
    b = Tape().leaf([[1.0]])
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_shape_errors_name_both_shapes():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((4, 5)))
    with pytest.raises(ShapeError) as err:
        ad.linear(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        ad.hadamard(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_item_requires_scalar():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.leaf([[1.0, 2.0]]).item()


def test_tape_replay_deterministic(rng):
    x0 = rng.normal(size=(6, 4))
    w0 = rng.normal(size=(4, 4))

    def run():
        tape = Tape()
        x, w = tape.leaf(x0), tape.leaf(w0)
        loss = ad.sum_all(ad.sigmoid(ad.linear(x, w)))
        backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, xg1, wg1 = run()
    l2, xg2, wg2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(xg1, xg2)
    np.testing.assert_array_equal(wg1, wg2)


# ---------------------------------------------------------------------------
# the checker itself


def test_grad_check_linear_nearly_exact(rng):
    arrays = {"w": rng.normal(size=(3, 4))}
    err = grad_check(lambda t, l: ad.sum_all(l["w"]), arrays)
    assert err < 1e-10


def test_grad_check_negative_control():
    # A deliberately corrupted backward rule must be caught loudly.
    def build(tape, leaves):
        y = ad.sigmoid(leaves["x"])
        node = tape._nodes[y.nid]
        orig = node.vjp
        node.vjp = lambda g: tuple(3.0 * p for p in orig(g))
        return ad.sum_all(y)

    err = grad_check(build, {"x": np.zeros((2, 2))})
    assert err > 1e-2


def test_grad_check_sampling(rng):
    arrays = {"x": rng.normal(size=(8, 8))}
    err = grad_check(
        lambda t, l: ad.sum_all(ad.sigmoid(l["x"])),
        arrays,
        sample=10,
        rng=np.random.default_rng(0),
    )
    assert err < TOL


# ---------------------------------------------------------------------------
# dtype: results and vjp parts keep the operands' dtype


def _bn_case(mode):
    def make(x, gamma, beta):
        # float64 running statistics, as training keeps them.
        state = BatchNorm(np.full((1, 3), 0.5), np.full((1, 3), 2.0), True)
        return ad.batch_norm(x, gamma, beta, state, mode=mode)

    return make


# name -> (operand shapes, primitive applied to the operand leaves)
PRIMITIVES = {
    "linear": ([(4, 3), (2, 3)], ad.linear),
    "add_bias_row": ([(4, 3), (1, 3)], ad.add),
    "hadamard": ([(4, 3), (4, 3)], ad.hadamard),
    "relu": ([(4, 3)], ad.relu),
    "log_sigmoid": ([(4, 3)], ad.log_sigmoid),
    "scalar_mul": ([(4, 3)], lambda x: ad.scalar_mul(x, -0.5)),
    "columns": ([(2, 6)], lambda w: ad.columns(w, 2, 4)),
    "gather_rows": (
        [(3, 2)], lambda x: ad.gather_rows(x, Segments([2, 0, 2, 1], 3))
    ),
    "gather_linear": (
        [(3, 2), (4, 2)],
        lambda x, w: ad.gather_linear(x, w, Segments([2, 0, 2, 1], 3)),
    ),
    "segment_sum_empty_segment": (
        [(4, 2)], lambda x: ad.segment_sum(x, Segments([0, 0, 2, 2], 4))
    ),
    "segment_sum_no_rows": (
        [(0, 2)], lambda x: ad.segment_sum(x, Segments([], 2))
    ),
    "sum_all": ([(4, 3)], ad.sum_all),
    "row_sums": ([(4, 3)], ad.row_sums),
    "bce_with_logits_mean": (
        # float64 targets, cast to the logits' dtype.
        [(4, 3)], lambda z: ad.bce_with_logits_mean(z, np.full((4, 3), 0.25))
    ),
    "batch_norm_train": ([(5, 3), (1, 3), (1, 3)], _bn_case("train")),
    "batch_norm_eval": ([(5, 3), (1, 3), (1, 3)], _bn_case("eval")),
    "gate_normalize": (
        [(6, 3)], lambda s: ad.gate_normalize(s, Segments([0, 0, 1, 2, 2, 2], 3))
    ),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_keeps_the_operand_dtype(name, dtype, rng):
    shapes, make = PRIMITIVES[name]
    tape = Tape()
    out = make(*(tape.leaf(rng.normal(size=s).astype(dtype)) for s in shapes))
    assert out.data.dtype == dtype
    parts = tape._nodes[out.nid].vjp(np.ones(out.shape, dtype=dtype))
    assert len(parts) == len(shapes)
    for part in parts:
        assert part.dtype == dtype


def test_grad_check_runs_in_float64_on_float32_params(rng):
    seen = []

    def build(tape, leaves):
        seen.append(leaves["x"].data.dtype)
        return ad.sum_all(ad.sigmoid(leaves["x"]))

    x = rng.normal(size=(2, 3)).astype(np.float32)
    assert grad_check(build, {"x": x}) < TOL
    assert set(seen) == {np.dtype(np.float64)}

"""Tape engine: primitive forward values, backward rules against central
finite differences, batch norm, gate normalization, and the checker itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipembed.autodiff as ad
from ipembed.autodiff import BatchNormState, ShapeError, Tape, backward, grad_check

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


def test_fd_scale_columns(rng):
    arrays = {"x": rng.normal(size=(5, 4)), "s": rng.uniform(0.5, 2.0, (1, 4))}
    err = check(lambda t, l: ad.scale_columns(l["x"], l["s"]), arrays, rng)
    assert err < TOL


def test_fd_div(rng):
    arrays = {"a": rng.normal(size=(4, 3)), "b": rng.uniform(0.5, 2.0, (4, 3))}
    err = check(lambda t, l: ad.div(l["a"], l["b"]), arrays, rng)
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
    err = check(
        lambda t, l: ad.rsqrt(l["x"], 1e-5), {"x": rng.uniform(0.5, 3.0, (3, 4))}, rng
    )
    assert err < TOL


def test_fd_scalar_ops_and_neg(rng):
    arrays = {"x": rng.normal(size=(3, 3))}
    err = check(
        lambda t, l: ad.scalar_add(ad.scalar_mul(ad.neg(l["x"]), 2.5), 0.7),
        arrays,
        rng,
    )
    assert err < TOL


def test_fd_concat(rng):
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 5))}
    err = check(lambda t, l: ad.concat_cols([l["a"], l["b"]]), arrays, rng)
    assert err < TOL


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
    err = check(lambda t, l: ad.col_sums(l["x"]), arrays, rng)
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
    state = BatchNormState.create(3)

    def make(tape, leaves):
        return ad.batch_norm(
            leaves["x"], leaves["g"], leaves["b"], state,
            mode="train", update_running=False,
        )

    err = check(make, arrays, rng)
    assert err < TOL


def test_fd_batch_norm_eval(rng):
    state = BatchNormState.create(3)
    state.set_running(rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
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
    err = check(lambda t, l: ad.gate_normalize(l["s"], ids, 3), arrays, rng)
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
    state = BatchNormState.create(1)
    out = ad.batch_norm(x, g, b, state, mode="train")
    # population variance 1, so +-1 up to the 1e-5 epsilon inside the sqrt
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)
    assert state.initialized


def test_bn_affine_parameters():
    tape = Tape()
    x = tape.leaf([[-1.0], [1.0]])  # already standardized
    g = tape.leaf([[2.0]])
    b = tape.leaf([[5.0]])
    out = ad.batch_norm(x, g, b, BatchNormState.create(1), mode="train")
    np.testing.assert_allclose(out.data, [[3.0], [7.0]], rtol=1e-4)


def test_bn_constant_column_guard():
    tape = Tape()
    x = tape.leaf([[4.0], [4.0], [4.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    out = ad.batch_norm(x, g, b, BatchNormState.create(1), mode="train")
    np.testing.assert_array_equal(out.data, [[0.0], [0.0], [0.0]])


def test_bn_running_stat_update():
    state = BatchNormState.create(2)
    tape = Tape()
    x = tape.leaf([[1.0, 10.0], [3.0, 30.0]])
    g = tape.leaf([[1.0, 1.0]])
    b = tape.leaf([[0.0, 0.0]])
    ad.batch_norm(x, g, b, state, mode="train", momentum=0.1)
    np.testing.assert_allclose(state.running_mean, [[0.9 * 0 + 0.1 * 2, 0.1 * 20]])
    np.testing.assert_allclose(state.running_var, [[0.9 * 1 + 0.1 * 1, 0.9 + 0.1 * 100]])


def test_bn_eval_uses_running_stats():
    state = BatchNormState.create(1)
    state.set_running([0.0], [1.0])
    tape = Tape()
    x = tape.leaf([[2.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    out = ad.batch_norm(x, g, b, state, mode="eval", eps=1e-5)
    assert out.data[0, 0] == pytest.approx(2.0 / np.sqrt(1.0 + 1e-5), abs=1e-12)


def test_bn_eval_before_init_rejected():
    tape = Tape()
    x = tape.leaf([[1.0], [2.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    with pytest.raises(RuntimeError):
        ad.batch_norm(x, g, b, BatchNormState.create(1), mode="eval")


def test_bn_train_needs_two_rows():
    tape = Tape()
    x = tape.leaf([[1.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    with pytest.raises(ValueError):
        ad.batch_norm(x, g, b, BatchNormState.create(1), mode="train")


def test_bn_update_running_flag_off():
    state = BatchNormState.create(1)
    before_mean = state.running_mean.copy()
    tape = Tape()
    x = tape.leaf([[1.0], [9.0]])
    g = tape.leaf([[1.0]])
    b = tape.leaf([[0.0]])
    ad.batch_norm(x, g, b, state, mode="train", update_running=False)
    np.testing.assert_array_equal(state.running_mean, before_mean)
    assert not state.initialized


# ---------------------------------------------------------------------------
# gate normalization semantics


def test_gate_single_edge_value():
    tape = Tape()
    score = tape.leaf([[0.0]])
    gates = ad.gate_normalize(score, [0], 1, eps=1e-6)
    assert gates.data[0, 0] == pytest.approx(0.5 / (0.5 + 1e-6), abs=1e-12)


def test_gate_two_edges_split():
    tape = Tape()
    score = tape.leaf([[0.0], [0.0]])
    gates = ad.gate_normalize(score, [0, 0], 1, eps=1e-6)
    np.testing.assert_allclose(gates.data, 0.5 / (1.0 + 1e-6), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_gate_bounds_property(n_edges, n_dims, seed):
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, n_edges + 1))
    ids = rng.integers(0, n_nodes, n_edges)
    tape = Tape()
    score = tape.leaf(rng.normal(scale=4.0, size=(n_edges, n_dims)))
    gates = ad.gate_normalize(score, ids, n_nodes).data
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

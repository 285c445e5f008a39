"""Dense reverse-mode automatic differentiation on 2-D float64 arrays.

A small tape-based engine with just the primitives the gated graph
convolution model uses: linear maps, elementwise maps, row gathers,
segment sums, batch normalization and gate normalization. Backward rules
are hand-written per primitive and checked against central finite
differences by :func:`grad_check`.

Conventions: every tensor is a 2-D float64 matrix; scalars are (1, 1).
The only implicit broadcast is adding a (1, m) row vector to an (n, m)
matrix (bias addition); column scaling has its own primitive. Operations
record onto the tape in execution order, which is a valid topological
order, and :func:`backward` replays it once in reverse.

Memory follows reference counting. A :class:`Tensor` handle holds its tape;
the tape holds, per node, the parents' ids, the vjp closure (which captures
arrays only) and a value record with the forward data and, after
:func:`backward`, the gradient. Nothing on a tape points back at a handle,
so a tape and every array it keeps alive are freed the moment its last
handle is dropped, without waiting for the cyclic collector. A tape built
with ``record=False`` keeps nothing at all: each intermediate dies as soon
as the code computing the forward pass lets go of it, and the result cannot
be differentiated. Training and gradient checks record; serving does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "BatchNormState",
    "backward",
    "grad_check",
    "linear",
    "add",
    "hadamard",
    "scale_columns",
    "div",
    "relu",
    "sigmoid",
    "log_sigmoid",
    "rsqrt",
    "neg",
    "scalar_mul",
    "scalar_add",
    "concat_cols",
    "gather_rows",
    "segment_sum",
    "sum_all",
    "row_sums",
    "col_sums",
    "bce_with_logits_mean",
    "batch_norm",
    "gate_normalize",
    "stable_sigmoid",
    "log_sigmoid_np",
]


class ShapeError(ValueError):
    """Operand shapes do not fit the operation."""


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"tensors must be 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """A handle on a value computed on a tape. Holds the data, the tape and
    the node id; after a backward pass, ``grad`` is the accumulated
    gradient. On a tape that records nothing, ``nid`` and ``grad`` are
    ``None``."""

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data: np.ndarray, tape: "Tape", nid: int | None):
        self.data = data
        self.tape = tape
        self.nid = nid

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.nid is None else self.tape._nodes[self.nid].tensor.grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a (1, 1) tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, nid={self.nid})"


class _Value:
    """What a tape keeps of a node's tensor: its forward data and, after a
    backward pass, its gradient. No reference to the handle, so handles and
    tapes form no cycle."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad: np.ndarray | None = None


class _Node:
    __slots__ = ("parents", "vjp", "tensor")

    def __init__(self, parents, vjp, tensor: _Value):
        self.parents = parents
        self.vjp = vjp
        self.tensor = tensor


class Tape:
    """Append-only record of operations; insertion order is topological.

    ``record=False`` makes a tape that keeps no nodes: tensors computed on it
    carry their data, but no vjp or intermediate value outlives its handle,
    and :func:`backward` refuses its losses.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, data) -> Tensor:
        """Record an input tensor (parameter or constant)."""
        return self._record(_as_matrix(data).copy(), (), None)

    def _record(self, data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
        for parent in parents:
            if parent.tape is not self:
                raise ValueError("operands recorded on different tapes")
        if not self.record:
            return Tensor(data, self, None)
        self._nodes.append(_Node(tuple(p.nid for p in parents), vjp, _Value(data)))
        return Tensor(data, self, len(self._nodes) - 1)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every tensor on its tape.

    Visits nodes in reverse insertion order exactly once. Tensors that do
    not influence the loss receive a zero gradient.
    """
    if loss.data.shape != (1, 1):
        raise ShapeError(f"loss must be scalar (1, 1), got {loss.data.shape}")
    if not loss.tape.record:
        raise ValueError(
            "loss was computed on a tape that records nothing (record=False); "
            "there is nothing to differentiate"
        )
    nodes = loss.tape._nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[loss.nid] = np.ones((1, 1), dtype=np.float64)
    for nid in range(len(nodes) - 1, -1, -1):
        grad = grads[nid]
        node = nodes[nid]
        if grad is None or node.vjp is None:
            continue
        for pid, part in zip(node.parents, node.vjp(grad)):
            if part is None:
                continue
            if grads[pid] is None:
                grads[pid] = part.copy()
            else:
                grads[pid] += part
    for node, grad in zip(nodes, grads):
        value = node.tensor
        value.grad = np.zeros_like(value.data) if grad is None else grad


# ---------------------------------------------------------------------------
# primitives


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T``: apply a weight matrix stored as (out_dim, in_dim)."""
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear mismatch: {x.shape} with weight {w.shape}")
    x_data, w_data = x.data, w.data

    def vjp(g):
        return (g @ w_data, g.T @ x_data)

    return x.tape._record(x_data @ w_data.T, (x, w), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the second operand may be a (1, m) bias row."""
    if a.shape == b.shape:
        def vjp(g):
            return (g, g)
    elif b.shape == (1, a.shape[1]):
        def vjp(g):
            return (g, g.sum(axis=0, keepdims=True))
    else:
        raise ShapeError(f"add mismatch: {a.shape} + {b.shape}")
    return a.tape._record(a.data + b.data, (a, b), vjp)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"hadamard mismatch: {a.shape} * {b.shape}")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return (g * b_data, g * a_data)

    return a.tape._record(a_data * b_data, (a, b), vjp)


def scale_columns(x: Tensor, s: Tensor) -> Tensor:
    """Multiply column k of ``x`` by ``s[0, k]``."""
    if s.shape != (1, x.shape[1]):
        raise ShapeError(f"scale_columns needs (1, {x.shape[1]}), got {s.shape}")
    x_data, s_data = x.data, s.data

    def vjp(g):
        return (g * s_data, (g * x_data).sum(axis=0, keepdims=True))

    return x.tape._record(x_data * s_data, (x, s), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div mismatch: {a.shape} / {b.shape}")
    a_data, b_data = a.data, b.data
    out = a_data / b_data

    def vjp(g):
        return (g / b_data, -g * a_data / (b_data * b_data))

    return a.tape._record(out, (a, b), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return x.tape._record(np.where(mask, x.data, 0.0), (x,), vjp)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid_np(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed without overflow."""
    return -np.logaddexp(0.0, -x)


def sigmoid(x: Tensor) -> Tensor:
    out = stable_sigmoid(x.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return x.tape._record(out, (x,), vjp)


def log_sigmoid(x: Tensor) -> Tensor:
    x_data = x.data

    def vjp(g):
        return (g * stable_sigmoid(-x_data),)

    return x.tape._record(log_sigmoid_np(x_data), (x,), vjp)


def rsqrt(x: Tensor, eps: float = 0.0) -> Tensor:
    out = 1.0 / np.sqrt(x.data + eps)

    def vjp(g):
        return (-0.5 * g * out * out * out,)

    return x.tape._record(out, (x,), vjp)


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return x.tape._record(x.data * c, (x,), vjp)


def scalar_add(x: Tensor, c: float) -> Tensor:
    def vjp(g):
        return (g,)

    return x.tape._record(x.data + float(c), (x,), vjp)


def neg(x: Tensor) -> Tensor:
    return scalar_mul(x, -1.0)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors side by side (extend each row)."""
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0]
    for t in parts:
        if t.shape[0] != rows:
            raise ShapeError("concat_cols operands disagree on row count")
    sizes = [t.shape[1] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(sizes)))

    data = np.concatenate([t.data for t in parts], axis=1)
    return parts[0].tape._record(data, tuple(parts), vjp)


def gather_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs 1-D indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError("gather_rows index out of range")
    n_rows = x.shape[0]

    def vjp(g):
        out = np.zeros((n_rows, g.shape[1]), dtype=np.float64)
        np.add.at(out, idx, g)
        return (out,)

    return x.tape._record(x.data[idx], (x,), vjp)


def segment_sum(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``n_segments`` buckets; empty buckets are zero."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != x.shape[0]:
        raise ShapeError(
            f"segment ids shape {ids.shape} does not match {x.shape[0]} rows"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise ShapeError("segment id out of range")
    out = np.zeros((n_segments, x.shape[1]), dtype=np.float64)
    np.add.at(out, ids, x.data)

    def vjp(g):
        return (g[ids],)

    return x.tape._record(out, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return x.tape._record(x.data.sum().reshape(1, 1), (x,), vjp)


def row_sums(x: Tensor) -> Tensor:
    cols = x.shape[1]

    def vjp(g):
        return (np.repeat(g, cols, axis=1),)

    return x.tape._record(x.data.sum(axis=1, keepdims=True), (x,), vjp)


def col_sums(x: Tensor) -> Tensor:
    rows = x.shape[0]

    def vjp(g):
        return (np.repeat(g, rows, axis=0),)

    return x.tape._record(x.data.sum(axis=0, keepdims=True), (x,), vjp)


def bce_with_logits_mean(logits: Tensor, targets) -> Tensor:
    """Mean binary cross entropy against constant targets, from logits.

    Numerically equal to ``-mean(t*log(p) + (1-t)*log(1-p))`` with
    ``p = sigmoid(logits)`` but immune to saturation.
    """
    t = _as_matrix(targets)
    if t.shape != logits.shape:
        raise ShapeError(f"target shape {t.shape} != logits shape {logits.shape}")
    z = logits.data
    n = z.size
    if n == 0:
        raise ShapeError("bce_with_logits_mean needs at least one element")
    value = np.logaddexp(0.0, z) - t * z

    def vjp(g):
        return ((stable_sigmoid(z) - t) * (g[0, 0] / n),)

    return logits.tape._record(
        np.array([[value.mean()]]), (logits,), vjp
    )


# ---------------------------------------------------------------------------
# composites


@dataclass
class BatchNormState:
    """Running statistics for one batch normalization, kept outside the tape."""

    running_mean: np.ndarray
    running_var: np.ndarray
    initialized: bool = False

    @classmethod
    def create(cls, width: int) -> "BatchNormState":
        return cls(
            running_mean=np.zeros((1, width), dtype=np.float64),
            running_var=np.ones((1, width), dtype=np.float64),
        )

    def set_running(self, mean, var) -> None:
        self.running_mean = np.asarray(mean, dtype=np.float64).reshape(1, -1)
        self.running_var = np.asarray(var, dtype=np.float64).reshape(1, -1)
        self.initialized = True

    def copy(self) -> "BatchNormState":
        return BatchNormState(
            self.running_mean.copy(), self.running_var.copy(), self.initialized
        )


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str = "train",
    momentum: float = 0.1,
    eps: float = 1e-5,
    update_running: bool = True,
) -> Tensor:
    """Per-column batch normalization with affine parameters.

    Train mode normalizes by the batch mean and population variance and,
    unless ``update_running`` is off, folds them into the running stats
    with the given momentum. Eval mode uses the running stats and requires
    that they have been set at least once.
    """
    width = x.shape[1]
    if gamma.shape != (1, width) or beta.shape != (1, width):
        raise ShapeError(
            f"affine shapes {gamma.shape}/{beta.shape} do not match width {width}"
        )
    if mode == "train":
        n = x.shape[0]
        if n < 2:
            raise ValueError("batch norm in train mode needs at least 2 rows")
        mu = scalar_mul(col_sums(x), 1.0 / n)
        centered = add(x, neg(mu))
        var = scalar_mul(col_sums(hadamard(centered, centered)), 1.0 / n)
        inv_std = rsqrt(var, eps)
        normalized = scale_columns(centered, inv_std)
        if update_running:
            state.running_mean = (
                (1.0 - momentum) * state.running_mean + momentum * mu.data
            )
            state.running_var = (
                (1.0 - momentum) * state.running_var + momentum * var.data
            )
            state.initialized = True
    elif mode == "eval":
        if not state.initialized:
            raise RuntimeError(
                "batch norm used in eval mode before any running-stat update"
            )
        tape = x.tape
        shift = tape.leaf(-state.running_mean)
        scale = tape.leaf(1.0 / np.sqrt(state.running_var + eps))
        normalized = scale_columns(add(x, shift), scale)
    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    return add(scale_columns(normalized, gamma), beta)


def gate_normalize(
    edge_score: Tensor, recv_ids, n_nodes: int, eps: float = 1e-6
) -> Tensor:
    """Dimension-wise edge gates, normalized over each receiving node.

    ``sigmoid(score) / (sum of sigmoids over the node's incoming edges +
    eps)``; every component lies in (0, 1) and each node's gates sum to
    just under one.
    """
    sig = sigmoid(edge_score)
    totals = segment_sum(sig, recv_ids, n_nodes)
    denom = scalar_add(gather_rows(totals, recv_ids), eps)
    return div(sig, denom)


# ---------------------------------------------------------------------------
# verification


def grad_check(
    build: Callable[[Tape, dict[str, Tensor]], Tensor],
    params: dict[str, np.ndarray],
    step: float = 1e-5,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients with central finite differences.

    ``build(tape, leaves)`` must rebuild the same deterministic scalar loss
    from the given leaf tensors; it must be a pure function of them (batch
    norm must not update running statistics between calls). Checks every
    coordinate unless ``sample`` limits the count. Returns the maximum
    relative error ``|a - n| / max(1, |a|, |n|)``.
    """

    def run(values: dict[str, np.ndarray]) -> float:
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in values.items()}
        return build(tape, leaves).item()

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    loss = build(tape, leaves)
    backward(loss)
    analytic = {k: leaves[k].grad for k in params}

    coords = [
        (name, i, j)
        for name, arr in params.items()
        for i in range(arr.shape[0])
        for j in range(arr.shape[1])
    ]
    if sample is not None and sample < len(coords):
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(coords), size=sample, replace=False)
        coords = [coords[i] for i in picks]

    worst = 0.0
    work = {k: v.astype(np.float64).copy() for k, v in params.items()}
    for name, i, j in coords:
        original = work[name][i, j]
        work[name][i, j] = original + step
        up = run(work)
        work[name][i, j] = original - step
        down = run(work)
        work[name][i, j] = original
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name][i, j])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        worst = max(worst, err)
    return worst

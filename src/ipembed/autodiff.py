"""Dense reverse-mode automatic differentiation on 2-D float arrays.

A small tape-based engine with just the primitives the gated graph
convolution model uses: linear maps, elementwise maps, row gathers,
segment sums, batch normalization and gate normalization. Backward rules
are hand-written per primitive and checked against central finite
differences by :func:`grad_check`.

Conventions: every tensor is a 2-D float32 or float64 matrix; scalars are
(1, 1). The only implicit broadcast is adding a (1, m) row vector to an
(n, m) matrix (bias addition). Operations record onto the tape in execution
order, which is a valid topological order, and :func:`backward` replays it
once in reverse.

Dtype: a leaf keeps a float32 array as float32 and turns anything else into
float64. Every primitive's result and vjp parts keep the dtype of its
operands, so a tape on float32 leaves runs in float32 throughout and one on
float64 leaves computes exactly as a float64-only engine would.
:func:`grad_check` works in float64; training steps and serving run in
float32, on float32 copies of float64 master weights.

Fused primitives: :func:`batch_norm` (train and eval) and
:func:`gate_normalize` each record one node whose vjp is written out in
closed form, so neither leaves its intermediate steps on the tape.
:func:`gather_linear` applies a weight to node rows and gathers the product
to edge rows, so a per-endpoint product costs n rows of work, not E.

Memory follows reference counting. A tape keeps, per node, its parents'
ids, its vjp until :func:`backward` drops it, and a leaf's value, so an
intermediate lives exactly as long as a handle or a vjp holds it, and a
tape and all it holds are freed with its last handle, without the cyclic
collector. :class:`Tape`, :func:`backward` and :class:`Segments` (the sort
plans behind every sum of rows by id) give the details.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "Segments",
    "BatchNorm",
    "backward",
    "grad_check",
    "linear",
    "add",
    "hadamard",
    "relu",
    "sigmoid",
    "log_sigmoid",
    "scalar_mul",
    "columns",
    "gather_rows",
    "gather_linear",
    "segment_sum",
    "sum_all",
    "row_sums",
    "bce_with_logits_mean",
    "batch_norm",
    "gate_normalize",
    "stable_sigmoid",
    "softplus",
    "log_sigmoid_np",
]


class ShapeError(ValueError):
    """Operand shapes do not fit the operation."""


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"tensors must be 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """A handle on a value computed on a tape. Holds the data, the tape and
    the node id. ``grad`` is a leaf's accumulated gradient once a backward
    pass has run, read-only; it is ``None`` before that, for a tensor that
    is not a leaf, and on a tape that records nothing, where ``nid`` is
    ``None`` too."""

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


# Zero-size stand-ins, one per dtype, for the forward values a tape does not
# keep: a non-leaf record's ``data`` still names its value's dtype but holds
# no memory.
_NO_VALUE = {np.dtype(t): np.empty((0, 0), dtype=t) for t in (np.float32, np.float64)}


class _Value:
    """What a tape keeps of a node's tensor. A leaf keeps its forward data
    and, after a backward pass, its gradient. Any other node keeps only the
    shared zero-size array of its value's dtype: backward reads no non-leaf
    value, and each vjp captures the arrays it needs. No reference to the
    handle, so handles and tapes form no cycle."""

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

    A node keeps its parents' ids, its vjp and, for a leaf only, its value:
    an intermediate value outlives its handle only while a vjp captures it.
    ``record=False`` makes a tape that keeps no nodes: tensors computed on it
    carry their data, but no vjp outlives its handle, and :func:`backward`
    refuses its losses. ``spent`` turns true when :func:`backward` runs,
    which releases the vjps, so it runs once per tape.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.spent = False
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, data) -> Tensor:
        """Record an input tensor (parameter or constant). A float32 or
        float64 matrix is not copied: the leaf aliases the caller's array.
        That is safe as no primitive writes into an operand, and a training
        step finishes :func:`backward` before the optimizer updates its
        weights in place. Anything else becomes a float64 matrix."""
        return self._record(_as_matrix(data), (), None)

    def _record(self, data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
        for parent in parents:
            if parent.tape is not self:
                raise ValueError("operands recorded on different tapes")
        if not self.record:
            return Tensor(data, self, None)
        kept = _NO_VALUE[data.dtype] if parents else data
        self._nodes.append(_Node(tuple(p.nid for p in parents), vjp, _Value(kept)))
        return Tensor(data, self, len(self._nodes) - 1)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into the leaves of its tape.

    Visits nodes in reverse insertion order exactly once, copying no
    gradient: a node's first gradient part is kept as it is and later ones
    are added out of place, as one vjp may hand an array to two parents.
    Each node's vjp closure and incoming gradient are dropped as soon as it
    has passed that gradient on to its parents, so the pass holds the
    arrays the remaining vjps read and the gradients not yet propagated,
    not one gradient per node. Only leaves keep a gradient: zeros, shaped
    by the leaf's value, for a leaf the loss does not reach, and read-only,
    since it may be shared with another leaf. A non-leaf's ``grad`` stays
    ``None``, and its value is never read. The pass spends the tape: a
    second :func:`backward` on it raises ``ValueError``.
    """
    if loss.data.shape != (1, 1):
        raise ShapeError(f"loss must be scalar (1, 1), got {loss.data.shape}")
    tape = loss.tape
    if not tape.record:
        raise ValueError(
            "loss was computed on a tape that records nothing (record=False); "
            "there is nothing to differentiate"
        )
    if tape.spent:
        raise ValueError(
            "backward has already run on this tape and released its vjps; "
            "record the computation on a new tape"
        )
    tape.spent = True
    nodes = tape._nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[loss.nid] = np.ones((1, 1), dtype=loss.data.dtype)
    for nid in range(len(nodes) - 1, -1, -1):
        node, grad = nodes[nid], grads[nid]
        vjp = node.vjp
        if vjp is None:  # a leaf; every node after it has been propagated
            value = node.tensor
            value.grad = np.zeros_like(value.data) if grad is None else grad
            value.grad.flags.writeable = False
            continue
        node.vjp = grads[nid] = None
        if grad is None:
            continue
        for pid, part in zip(node.parents, vjp(grad)):
            if part is None:
                continue
            # Out of place: ``part`` may be shared with a sibling parent.
            grads[pid] = part if grads[pid] is None else grads[pid] + part


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


# The elementwise kernels below avoid ``np.where`` and ``np.logaddexp``:
# both branch once per element, which mispredicts on mixed signs and costs
# several times the arithmetic itself.


def relu(x: Tensor) -> Tensor:
    # np.maximum(-0.0, 0.0) is +0.0; a NaN passes through, on to the loss.
    out = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (out > 0),)

    return x.tape._record(out, (x,), vjp)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function: exp(min(x, 0)) / (1 + exp(-|x|)).

    A second exp is cheaper than np.maximum(e, x >= 0) / (1 + e) with one
    e = exp(-|x|): casting the boolean mask costs more than the exp saves.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed without overflow."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_sigmoid_np(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed without overflow."""
    return -softplus(-x)


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


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return x.tape._record(x.data * c, (x,), vjp)


def columns(w: Tensor, start: int, stop: int) -> Tensor:
    """Column block ``w[:, start:stop]``; its gradient fills that block of a
    zero matrix shaped like ``w``."""
    if not 0 <= start < stop <= w.shape[1]:
        raise ShapeError(f"columns [{start}, {stop}) outside width {w.shape[1]}")
    shape, dtype = w.shape, w.data.dtype

    def vjp(g):
        out = np.zeros(shape, dtype=dtype)
        out[:, start:stop] = g
        return (out,)

    return w.tape._record(w.data[:, start:stop], (w,), vjp)


# Rows per block: a segment sum reduces whole segments about this many
# sorted rows at a time, and serving decodes at least this many edges at a
# time, so that a block of 64 to 128 float32 columns stays in L2 cache.
BLOCK_ROWS = 1024


class Segments:
    """Rows grouped by an id in ``[0, count)``, sorted on first use.

    The constructor only checks the ids. The first :meth:`sum` builds the
    sort plan, which later sums reuse: a stable sort of ``ids``, the offsets
    in that order at which each non-empty id's run begins, and the mask of
    ids that own at least one row. ``blocks`` cuts the runs into blocks of
    whole runs: a new block begins at the first run that starts in a new
    :data:`BLOCK_ROWS` window of the sorted rows, so a run longer than a
    window gets a block of its own. Each block is stored as its slice of the
    runs, its slice of the sort order and its run offsets within that slice.
    :meth:`sum` then costs one gather and one ``np.add.reduceat`` per block.
    Each segment adds the same rows in the same order as one reduceat over
    the whole array, so blocking changes no bit of a sum. A gather that is
    never differentiated never sums, so it sorts nothing.
    """

    __slots__ = ("ids", "count", "_plan")

    def __init__(self, ids, count: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShapeError(f"segment ids must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= count):
            raise ShapeError("segment id out of range")
        self.ids = ids
        self.count = int(count)
        self._plan: tuple[np.ndarray, int, list] | None = None

    @property
    def blocks(self) -> list[tuple[slice, np.ndarray, np.ndarray]]:
        """The block plan; reading it builds the sort plan."""
        return self._sorted()[2]

    def _sorted(self) -> tuple[np.ndarray, int, list]:
        """``(nonempty, number of runs, blocks)``, built on the first call."""
        if self._plan is None:
            ids = self.ids
            sizes = np.bincount(ids, minlength=self.count)
            order = np.argsort(ids, kind="stable")
            nonempty = sizes > 0
            starts = (np.cumsum(sizes) - sizes)[nonempty]
            first = np.flatnonzero(np.diff(starts // BLOCK_ROWS, prepend=-1))
            runs = np.append(first, starts.size).tolist()
            rows = np.append(starts[first], ids.size).tolist()
            blocks = [
                (slice(a, b), order[lo:hi], starts[a:b] - lo)
                for a, b, lo, hi in zip(runs, runs[1:], rows, rows[1:])
            ]
            self._plan = (nonempty, starts.size, blocks)
        return self._plan

    def sum(self, rows: np.ndarray) -> np.ndarray:
        """Sum ``rows`` (one per id) into ``count`` rows; empty ids give 0."""
        nonempty, n_runs, blocks = self._sorted()
        sums = np.empty((n_runs, rows.shape[1]), dtype=rows.dtype)
        for runs, order, starts in blocks:
            np.add.reduceat(rows[order], starts, axis=0, out=sums[runs])
        if n_runs == self.count:
            return sums
        out = np.zeros((self.count, rows.shape[1]), dtype=rows.dtype)
        out[nonempty] = sums
        return out


def _segments(ids, count: int | None) -> Segments:
    if not isinstance(ids, Segments):
        if count is None:
            raise ShapeError("a plain id array needs the number of segments")
        return Segments(ids, count)
    if count is not None and count != ids.count:
        raise ShapeError(f"segments cover {ids.count} ids, expected {count}")
    return ids


def gather_rows(x: Tensor, indices) -> Tensor:
    """Rows ``x[indices]``; ``indices`` is an id array or :class:`Segments`."""
    seg = _segments(indices, x.shape[0])

    def vjp(g):
        return (seg.sum(g),)

    return x.tape._record(x.data[seg.ids], (x,), vjp)


def gather_linear(x: Tensor, w: Tensor, indices) -> Tensor:
    """Rows ``indices`` of ``x @ w.T``, one tape node.

    Equal to ``linear(gather_rows(x, indices), w)``, but the product runs on
    the rows of ``x`` and only its result is gathered; the vjp sums the
    gradient per row of ``x`` first, so both of its products run on those
    rows too. ``indices`` is an id array or :class:`Segments`.
    """
    seg = _segments(indices, x.shape[0])
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"gather_linear mismatch: {x.shape} with weight {w.shape}")
    x_data, w_data = x.data, w.data

    def vjp(g):
        pooled = seg.sum(g)
        return (pooled @ w_data, pooled.T @ x_data)

    return x.tape._record((x_data @ w_data.T)[seg.ids], (x, w), vjp)


def segment_sum(x: Tensor, segment_ids, n_segments: int | None = None) -> Tensor:
    """Sum rows of ``x`` into ``n_segments`` buckets; empty buckets are zero.

    ``segment_ids`` is an id array (then ``n_segments`` is required) or a
    :class:`Segments`."""
    seg = _segments(segment_ids, n_segments)
    if seg.ids.shape[0] != x.shape[0]:
        raise ShapeError(
            f"segment ids shape {seg.ids.shape} does not match {x.shape[0]} rows"
        )

    def vjp(g):
        return (g[seg.ids],)

    return x.tape._record(seg.sum(x.data), (x,), vjp)


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


def bce_with_logits_mean(logits: Tensor, targets) -> Tensor:
    """Mean binary cross entropy against constant targets, from logits.

    Numerically equal to ``-mean(t*log(p) + (1-t)*log(1-p))`` with
    ``p = sigmoid(logits)`` but immune to saturation. The targets are cast
    to the logits' dtype, which the mean keeps.
    """
    z = logits.data
    t = _as_matrix(targets).astype(z.dtype, copy=False)
    if t.shape != logits.shape:
        raise ShapeError(f"target shape {t.shape} != logits shape {logits.shape}")
    n = z.size
    if n == 0:
        raise ShapeError("bce_with_logits_mean needs at least one element")
    value = softplus(z) - t * z

    def vjp(g):
        return ((stable_sigmoid(z) - t) * (g[0, 0] / n),)

    return logits.tape._record(
        np.array([[value.mean()]], dtype=z.dtype), (logits,), vjp
    )


# ---------------------------------------------------------------------------
# batch norm and gates

# Fixed parts of the architecture, as in the reference gated GCN: the batch
# norm momentum and variance epsilon, and the gate denominator's epsilon.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
GATE_EPS = 1e-6


@dataclass
class BatchNorm:
    """Running statistics of one batch normalization, which eval mode
    normalizes by. The affine terms are ordinary trained arrays passed to
    :func:`batch_norm` as tape leaves."""

    running_mean: np.ndarray
    running_var: np.ndarray
    initialized: bool = False

    @classmethod
    def create(cls, width: int) -> "BatchNorm":
        return cls(np.zeros((1, width)), np.ones((1, width)))

    @property
    def state(self) -> "BatchNorm":
        """The object itself, for callers that reach the running statistics
        as ``bn.state``."""
        return self

    def copy(self) -> "BatchNorm":
        return BatchNorm(
            self.running_mean.copy(), self.running_var.copy(), self.initialized
        )


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNorm,
    mode: str = "train",
) -> Tensor:
    """Per-column batch normalization with affine parameters, one tape node.

    Train mode normalizes by the batch mean and population variance and
    folds them into ``state``'s running stats with momentum
    :data:`BN_MOMENTUM`; its output reads no running statistic. Eval mode
    normalizes by the running stats, never changes them, and requires that
    they have been set at least once.
    """
    width = x.shape[1]
    if gamma.shape != (1, width) or beta.shape != (1, width):
        raise ShapeError(
            f"affine shapes {gamma.shape}/{beta.shape} do not match width {width}"
        )
    gamma_data = gamma.data
    if mode == "train":
        n = x.shape[0]
        if n < 2:
            raise ValueError("batch norm in train mode needs at least 2 rows")
        mu = x.data.sum(axis=0, keepdims=True) * (1.0 / n)
        centered = x.data - mu
        var = (centered * centered).sum(axis=0, keepdims=True) * (1.0 / n)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        normalized = centered * inv_std
        state.running_mean = (1.0 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mu
        state.running_var = (1.0 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
        state.initialized = True

        def vjp(g):
            # dx = inv_std/n * (n*gh - sum(gh) - xhat*sum(gh*xhat)), gh = g*gamma;
            # both sums are gamma times the affine gradients.
            g_gamma = (g * normalized).sum(axis=0, keepdims=True)
            g_beta = g.sum(axis=0, keepdims=True)
            dx = (gamma_data * inv_std * (1.0 / n)) * (
                n * g - g_beta - normalized * g_gamma
            )
            return (dx, g_gamma, g_beta)

    elif mode == "eval":
        if not state.initialized:
            raise RuntimeError(
                "batch norm used in eval mode before any running-stat update"
            )
        dtype = x.data.dtype
        inv_std = (1.0 / np.sqrt(state.running_var + BN_EPS)).astype(dtype, copy=False)
        mean = state.running_mean.astype(dtype, copy=False)
        normalized = (x.data - mean) * inv_std

        def vjp(g):
            return (
                g * (gamma_data * inv_std),
                (g * normalized).sum(axis=0, keepdims=True),
                g.sum(axis=0, keepdims=True),
            )

    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    out = normalized * gamma_data
    out += beta.data  # in place: one (n, m) temporary fewer
    return x.tape._record(out, (x, gamma, beta), vjp)


def gate_normalize(edge_score: Tensor, recv: Segments) -> Tensor:
    """Dimension-wise edge gates, normalized over each receiving node.

    ``sigmoid(score) / (sum of sigmoids over the node's incoming edges +
    GATE_EPS)``; every component lies in (0, 1) and each node's gates sum to
    just under one. ``recv`` groups the edges by receiving node, one id per
    edge. One tape node.
    """
    if recv.ids.shape[0] != edge_score.shape[0]:
        raise ShapeError(
            f"receiver ids shape {recv.ids.shape} does not match "
            f"{edge_score.shape[0]} edges"
        )
    sig = stable_sigmoid(edge_score.data)
    denom = recv.sum(sig)[recv.ids] + GATE_EPS
    out = sig / denom

    def vjp(g):
        d_sig = (g - recv.sum(g * out)[recv.ids]) / denom
        return (d_sig * (sig * (1.0 - sig)),)

    return edge_score.tape._record(out, (edge_score,), vjp)


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
    from the given leaf tensors; it must be a pure function of them. Train
    mode batch norm qualifies: it updates running statistics but its output
    never reads them, while eval mode reads them without updating. Checks every
    coordinate unless ``sample`` limits the count. Returns the maximum
    relative error ``|a - n| / max(1, |a|, |n|)``. Both the analytic and the
    numeric gradients are taken in float64, whatever the dtype of ``params``.
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

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
    work = {k: v.copy() for k, v in params.items()}
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

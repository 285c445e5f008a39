"""Edge-feature gated graph convolution network with a reconstruction head.

The network consumes only edge features. An input layer turns each node's
incoming gated edge features into an initial hidden state; a stack of
residual gated graph convolution layers then refines node and edge states
together. A two-layer decoder reconstructs every edge's input features from
the embeddings of its endpoints plus the final edge state, trained with
binary cross entropy. A second, lightly weighted term pulls the embeddings
of communicating nodes together via ``-log sigmoid(h_i . h_j)`` summed over
the directed edge list.

Dimension handling: edge inputs have ``d`` dimensions (protocol one-hot,
per-protocol numeric blocks, reverse flag) while node states have ``H``.
Edge states stay ``d``-dimensional through the input layer; the first conv
layer projects them into ``H`` dimensions with its edge weight matrix and
applies the residual after that projection, so deeper layers work purely in
``H`` dimensions.

Work placement: a weight that reads one endpoint's state (the conv gates'
``gate_recv``/``gate_send``, ``node_msg`` and the decoder's endpoint columns)
is applied to the ``n`` node rows and only the product is gathered to the
``E`` edges, as in the reference gated GCN; the input layer likewise pools
its gated edge features per node before projecting them. Edges outnumber
nodes 13 to 50 times on the synthetic graphs, so this removes about two
thirds of the forward multiply-adds.

Entry points: training calls :func:`forward`, the network and both loss
terms on one tape. Serving calls :func:`encode_states` and then
:func:`decoder` itself, so that it can decode a graph one edge block at a
time. :func:`input_layer`, :func:`conv_layer` and :func:`decode` each run
one part of the network on its own tape, for layer-by-layer timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm, Segments, Tape, Tensor
from .graphs import N_NUMERIC, IntervalGraph

__all__ = [
    "ModelConfig",
    "ModelParams",
    "GraphTensors",
    "ForwardResult",
    "blank_params",
    "init_params",
    "param_shapes",
    "encode_states",
    "decoder",
    "forward",
    "float32_leaves",
    "input_layer",
    "conv_layer",
    "decode",
    "edge_dim_for_vocab",
]


# The largest loss weight or learning rate a float32 training step can
# represent; a larger finite one overflows when the step casts it.
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss hyperparameters.

    The loss is ``lambda_recon`` times the reconstruction cross entropy plus
    ``lambda_neighbor`` times the neighbor term, which only pulls together
    the endpoints of observed edges; there are no sampled negative pairs.
    The batch norm momentum and epsilon and the gate epsilon are fixed parts
    of the architecture (``autodiff.BN_MOMENTUM``, ``BN_EPS``, ``GATE_EPS``).
    """

    edge_dim: int
    hidden: int = 64
    layers: int = 2
    decoder_hidden: int = 128
    lambda_recon: float = 1.0
    lambda_neighbor: float = 0.01

    def __post_init__(self):
        if self.edge_dim < 1:
            raise ValueError("edge_dim must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.decoder_hidden < 1:
            raise ValueError("decoder_hidden must be >= 1")
        for weight in (self.lambda_recon, self.lambda_neighbor):
            if not 0.0 <= weight <= FLOAT32_MAX:
                raise ValueError(
                    "loss weights must be finite, non-negative and within "
                    "float32 range"
                )


def edge_dim_for_vocab(vocab_size: int) -> int:
    """Model input width for a protocol vocab: one-hot block, numeric
    blocks, plus the reverse flag column."""
    return vocab_size * (1 + N_NUMERIC) + 1


@dataclass
class ModelParams:
    """The model's state as two name tables.

    ``arrays`` holds every trainable array under its model-file name, in
    model-file order, with the shapes :func:`param_shapes` gives. A batch
    norm ``<name>`` trains ``<name>.gamma`` and ``<name>.beta`` here;
    ``bns[<name>]`` holds its running statistics.
    """

    arrays: dict[str, np.ndarray]
    bns: dict[str, BatchNorm]

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.arrays.items())

    def bn_pairs(self) -> Iterator[tuple[str, BatchNorm]]:
        return iter(self.bns.items())

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, bn in self.bns.items():
            yield f"{name}.running_mean", bn.running_mean
            yield f"{name}.running_var", bn.running_var

    def mark_bn_initialized(self) -> None:
        """Declare the current running stats usable for eval mode."""
        for bn in self.bns.values():
            bn.initialized = True

    def copy(self) -> "ModelParams":
        return ModelParams(
            {name: arr.copy() for name, arr in self.arrays.items()},
            {name: bn.copy() for name, bn in self.bns.items()},
        )


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _affine(name: str, width: int) -> dict[str, tuple[int, int]]:
    return {f"{name}.gamma": (1, width), f"{name}.beta": (1, width)}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Name and shape of every trainable array, in model-file order.

    This is the one shape table: :func:`init_params` allocates from it and
    the model loader sizes a file's tensors by it before allocating.
    """
    d, h, dh = config.edge_dim, config.hidden, config.decoder_hidden
    shapes = {
        "edge_embed": (d, d),
        "edge_to_node": (h, d),
        **_affine("bn_edge_in", d),
        **_affine("bn_node_in", h),
    }
    for layer in range(config.layers):
        p = f"conv{layer}."
        shapes.update({
            p + "gate_recv": (h, h),
            p + "gate_send": (h, h),
            p + "gate_edge": (h, d if layer == 0 else h),
            p + "node_self": (h, h),
            p + "node_msg": (h, h),
            **_affine(p + "bn_edge", h),
            **_affine(p + "bn_node", h),
        })
    shapes.update({
        "dec_hidden_w": (dh, 3 * h),
        "dec_hidden_b": (1, dh),
        "dec_out_w": (d, dh),
        "dec_out_b": (1, d),
    })
    return shapes


def blank_params(config: ModelConfig) -> ModelParams:
    """Every array :func:`param_shapes` names, batch norm gammas at one and
    all others at zero, with fresh batch norm statistics: what
    :func:`init_params` draws into and the model loader reads a file into."""
    arrays = {
        name: (np.ones if name.endswith(".gamma") else np.zeros)(shape)
        for name, shape in param_shapes(config).items()
    }
    bns = {
        name.removesuffix(".gamma"): BatchNorm.create(arr.shape[1])
        for name, arr in arrays.items()
        if name.endswith(".gamma")
    }
    return ModelParams(arrays, bns)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded Glorot-uniform weights drawn into :func:`blank_params`, whose
    batch norm affine terms and decoder biases stay at one and zero.

    The draw order (every conv weight first, then the input and decoder
    weights, each in table order) and the table order of
    :func:`param_shapes` are the model-file format: together they fix the
    bytes of every seeded model.
    """
    rng = np.random.default_rng(seed)
    params = blank_params(config)
    arrays = params.arrays
    weights = [n for n in arrays if not n.endswith((".gamma", ".beta", "_b"))]
    for name in sorted(weights, key=lambda n: not n.startswith("conv")):
        arrays[name] = _glorot(rng, *arrays[name].shape)
    return params


@dataclass
class GraphTensors:
    """Model-ready view of one interval graph. The endpoint arrays are
    grouped into :class:`Segments` once, on construction, and every layer
    and step reuses them."""

    n_nodes: int
    recv: np.ndarray  # (E,) receiving node per directed edge
    send: np.ndarray  # (E,) sending node per directed edge
    feats: np.ndarray  # (E, d) inputs in [0, 1], reverse flag last
    recv_segments: Segments = field(init=False, repr=False, compare=False)
    send_segments: Segments = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.recv_segments = Segments(self.recv, self.n_nodes)
        self.send_segments = Segments(self.send, self.n_nodes)

    @classmethod
    def from_graph(cls, graph: IntervalGraph, dtype=np.float64) -> "GraphTensors":
        """Stored flows deliver their message to the destination endpoint;
        reverse companions cover the source, so reach is symmetric. Each
        feature row of the graph is written into both edges of its pair,
        reverse flag last, straight into one ``dtype`` matrix: a float32 one
        is the float64 values cast, with no float64 copy made."""
        if graph.features is None:
            raise ValueError("graph has no normalized features; apply a scaler")
        rows, dim = graph.features.shape
        feats = np.empty((rows, 2, dim + 1), dtype=dtype)
        feats[:, :, :-1] = graph.features[:, None, :]
        feats = feats.reshape(2 * rows, dim + 1)
        feats[:, -1] = graph.reverse
        return cls(
            n_nodes=graph.n_nodes,
            recv=graph.edge_dst.astype(np.int64),
            send=graph.edge_src.astype(np.int64),
            feats=feats,
        )

    def validate(self, config: ModelConfig) -> None:
        if self.feats.ndim != 2 or self.feats.shape[1] != config.edge_dim:
            raise ValueError(
                f"graph edge dim {self.feats.shape[1:]} does not match model "
                f"edge_dim {config.edge_dim}"
            )
        if len(self.recv) != len(self.feats) or len(self.send) != len(self.feats):
            raise ValueError("edge arrays disagree on length")


@dataclass
class ForwardResult:
    """The network's outputs on one graph and both loss terms, all recorded
    on one tape. Values are tape tensors; use ``.data`` for plain arrays."""

    node_states: Tensor  # (n, H) final embeddings
    edge_states: Tensor  # (E, H) final edge states
    logits: Tensor  # (E, d) decoder pre-activations
    gates: list[Tensor]  # per layer, input layer first
    leaves: dict[str, Tensor]
    recon_loss: Tensor
    neighbor_loss: Tensor
    loss: Tensor

    @property
    def embeddings(self) -> np.ndarray:
        return self.node_states.data


def _leaves(tape: Tape, params: ModelParams) -> dict[str, Tensor]:
    return {name: tape.leaf(arr) for name, arr in params.named_arrays()}


def float32_leaves(tape: Tape, params: ModelParams) -> dict[str, Tensor]:
    """A float32 copy of every trainable array as a leaf on ``tape``, under
    its name: the one way to run the network in float32 on float64 master
    weights. Its two callers, ``training._step`` and
    ``serving.infer_embeddings``, pass these as ``leaves``; ``params``
    itself is left as it is."""
    return {
        name: tape.leaf(arr.astype(np.float32)) for name, arr in params.named_arrays()
    }


def _bn(x, leaves, params, name, mode):
    return ad.batch_norm(
        x, leaves[f"{name}.gamma"], leaves[f"{name}.beta"], params.bns[name], mode
    )


def _input_layer(leaves, params, gt, e0, mode, gates):
    edge_state = ad.add(
        e0,
        ad.relu(
            _bn(ad.linear(e0, leaves["edge_embed"]), leaves, params, "bn_edge_in", mode)
        ),
    )
    layer_gates = ad.gate_normalize(edge_state, gt.recv_segments)
    # Pool, then project: the sum is linear, so edge_to_node can act on the
    # n pooled rows instead of the E gated ones.
    pooled = ad.linear(
        ad.segment_sum(ad.hadamard(layer_gates, e0), gt.recv_segments),
        leaves["edge_to_node"],
    )
    if gates is not None:
        gates.append(layer_gates)
    return ad.relu(_bn(pooled, leaves, params, "bn_node_in", mode)), edge_state


# A conv layer is an edge update, then a node update. Each edge-sized
# tensor is dropped right after its last use, so that it is freed there
# unless a vjp on a recording tape still reads it; the caller drops the old
# edge state before the node update.


def _edge_update(leaves, params, gt, h, edge_state, layer, mode):
    prefix = f"conv{layer}"
    endpoints = ad.add(
        ad.gather_linear(h, leaves[f"{prefix}.gate_recv"], gt.recv_segments),
        ad.gather_linear(h, leaves[f"{prefix}.gate_send"], gt.send_segments),
    )
    projected = ad.linear(edge_state, leaves[f"{prefix}.gate_edge"])
    # First layer: the residual carries the projected edge state so deeper
    # layers live in the hidden dimension.
    residual = projected if layer == 0 else edge_state
    update = ad.add(endpoints, projected)
    del endpoints, projected, edge_state
    update = _bn(update, leaves, params, f"{prefix}.bn_edge", mode)
    update = ad.relu(update)
    return ad.add(residual, update)


def _node_update(leaves, params, gt, h, edge_state, layer, mode, gates):
    prefix = f"conv{layer}"
    layer_gates = ad.gate_normalize(edge_state, gt.recv_segments)
    messages = ad.hadamard(
        layer_gates, ad.gather_linear(h, leaves[f"{prefix}.node_msg"], gt.send_segments)
    )
    if gates is not None:
        gates.append(layer_gates)
    del layer_gates
    pooled = ad.segment_sum(messages, gt.recv_segments)
    del messages
    node_pre = ad.add(ad.linear(h, leaves[f"{prefix}.node_self"]), pooled)
    return ad.add(
        h, ad.relu(_bn(node_pre, leaves, params, f"{prefix}.bn_node", mode))
    )


def decoder(leaves: dict[str, Tensor], h: Tensor) -> Callable[..., Tensor]:
    """The decoder on final node states ``h``, as a function from the edge
    states and the receiver and sender ids (or :class:`Segments`) of any set
    of edges to their reconstruction logits.

    ``dec_hidden_w`` is (dh, 3H) over ``[h_recv | h_send | edge_state]``. Its
    two endpoint blocks act on the n node rows once, here, and each call
    gathers the products to its edges, so a caller can decode a graph a
    slice of edges at a time without repeating node work.
    """
    w = leaves["dec_hidden_w"]
    width = w.shape[1] // 3
    w_recv, w_send, w_edge = (
        ad.columns(w, k * width, (k + 1) * width) for k in range(3)
    )
    on_recv, on_send = ad.linear(h, w_recv), ad.linear(h, w_send)

    def decode_edges(edge_state: Tensor, recv, send) -> Tensor:
        pre = ad.add(
            ad.add(ad.gather_rows(on_recv, recv), ad.gather_rows(on_send, send)),
            ad.linear(edge_state, w_edge),
        )
        hidden = ad.relu(ad.add(pre, leaves["dec_hidden_b"]))
        return ad.add(ad.linear(hidden, leaves["dec_out_w"]), leaves["dec_out_b"])

    return decode_edges


def encode_states(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    mode: str,
    tape: Tape,
    leaves: dict[str, Tensor],
    gates: list[Tensor] | None = None,
) -> tuple[Tensor, Tensor]:
    """The network up to the decoder: the input layer and the conv stack,
    on parameter tensors ``leaves`` recorded on ``tape``. Returns the final
    node and edge states. Each layer's gates are appended to ``gates``,
    input layer first, when it is a list; otherwise none outlives its
    layer."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    gt.validate(config)
    h, edge_state = _input_layer(leaves, params, gt, tape.leaf(gt.feats), mode, gates)
    for layer in range(config.layers):
        edge_state = _edge_update(leaves, params, gt, h, edge_state, layer, mode)
        h = _node_update(leaves, params, gt, h, edge_state, layer, mode, gates)
    return h, edge_state


def forward(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    mode: str = "train",
    tape: Tape | None = None,
    leaves: dict[str, Tensor] | None = None,
) -> ForwardResult:
    """Run the network on one graph, then both loss terms on the same tape:
    :func:`encode_states`, one :func:`decoder` call over every edge, the
    reconstruction cross entropy and the neighbor term.

    The pass draws no random numbers, so its result depends only on the
    parameters, the batch norm statistics and the graph. Train mode folds
    each batch's statistics into the running ones; eval mode normalizes by
    the running ones and leaves them unchanged. ``leaves`` lets a caller
    supply pre-registered parameter tensors (same names as
    ``params.named_arrays``) on an existing tape, which is how the gradient
    checker reuses this pass and how training runs on
    :func:`float32_leaves`.
    """
    if tape is None:
        tape = Tape()
    if leaves is None:
        leaves = _leaves(tape, params)
    gates: list[Tensor] = []
    h, edge_state = encode_states(params, config, gt, mode, tape, leaves, gates)
    logits = decoder(leaves, h)(edge_state, gt.recv_segments, gt.send_segments)
    recon = ad.scalar_mul(
        ad.bce_with_logits_mean(logits, gt.feats), config.lambda_recon
    )
    h_recv = ad.gather_rows(h, gt.recv_segments)
    h_send = ad.gather_rows(h, gt.send_segments)
    dots = ad.row_sums(ad.hadamard(h_recv, h_send))
    neighbor = ad.scalar_mul(
        ad.sum_all(ad.log_sigmoid(dots)), -config.lambda_neighbor
    )
    return ForwardResult(
        node_states=h,
        edge_states=edge_state,
        logits=logits,
        gates=gates,
        leaves=leaves,
        recon_loss=recon,
        neighbor_loss=neighbor,
        loss=ad.add(recon, neighbor),
    )


def input_layer(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    mode: str = "eval",
    tape: Tape | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Standalone input layer: returns (node states, edge states, gates)."""
    if tape is None:
        tape = Tape()
    leaves = _leaves(tape, params)
    gates: list[Tensor] = []
    h, edge_state = _input_layer(leaves, params, gt, tape.leaf(gt.feats), mode, gates)
    return h, edge_state, gates[0]


def conv_layer(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    h: np.ndarray,
    edge_state: np.ndarray,
    layer: int,
    mode: str = "eval",
    tape: Tape | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Standalone convolution layer on plain arrays."""
    if tape is None:
        tape = Tape()
    leaves = _leaves(tape, params)
    h = tape.leaf(h)
    edge_state = _edge_update(
        leaves, params, gt, h, tape.leaf(edge_state), layer, mode
    )
    gates: list[Tensor] = []
    h = _node_update(leaves, params, gt, h, edge_state, layer, mode, gates)
    return h, edge_state, gates[0]


def decode(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    h: np.ndarray,
    edge_state: np.ndarray,
    tape: Tape | None = None,
) -> Tensor:
    """Standalone decoder: sigmoid reconstruction of every edge's inputs."""
    if tape is None:
        tape = Tape()
    decode_edges = decoder(_leaves(tape, params), tape.leaf(h))
    return ad.sigmoid(
        decode_edges(tape.leaf(edge_state), gt.recv_segments, gt.send_segments)
    )

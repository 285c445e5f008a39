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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tape, Tensor
from .graphs import N_NUMERIC, IntervalGraph

__all__ = [
    "ModelConfig",
    "BatchNormPair",
    "ConvParams",
    "ModelParams",
    "GraphTensors",
    "ForwardResult",
    "init_params",
    "forward",
    "input_layer",
    "conv_layer",
    "decode",
    "reconstruction_loss",
    "neighbor_loss",
    "edge_dim_for_vocab",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss hyperparameters.

    The loss is ``lambda_recon`` times the reconstruction cross entropy plus
    ``lambda_neighbor`` times the neighbor term, which only pulls together
    the endpoints of observed edges; there are no sampled negative pairs.
    """

    edge_dim: int
    hidden: int = 64
    layers: int = 2
    decoder_hidden: int = 128
    gate_eps: float = 1e-6
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
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
        if self.gate_eps <= 0:
            raise ValueError("gate_eps must be positive")
        if self.lambda_recon < 0 or self.lambda_neighbor < 0:
            raise ValueError("loss weights must be non-negative")


def edge_dim_for_vocab(vocab_size: int) -> int:
    """Model input width for a protocol vocab: one-hot block, numeric
    blocks, plus the reverse flag column."""
    return vocab_size * (1 + N_NUMERIC) + 1


@dataclass
class BatchNormPair:
    """Affine parameters plus running statistics for one normalization."""

    gamma: np.ndarray
    beta: np.ndarray
    state: BatchNormState

    @classmethod
    def create(cls, width: int) -> "BatchNormPair":
        return cls(
            gamma=np.ones((1, width), dtype=np.float64),
            beta=np.zeros((1, width), dtype=np.float64),
            state=BatchNormState.create(width),
        )

    def copy(self) -> "BatchNormPair":
        return BatchNormPair(self.gamma.copy(), self.beta.copy(), self.state.copy())


@dataclass
class ConvParams:
    """Weights of one gated graph convolution layer."""

    gate_recv: np.ndarray  # (H, H) receiver state -> gate pre-activation
    gate_send: np.ndarray  # (H, H) sender state -> gate pre-activation
    gate_edge: np.ndarray  # (H, d) on the first layer, (H, H) afterwards
    node_self: np.ndarray  # (H, H)
    node_msg: np.ndarray  # (H, H) sender state -> message
    bn_edge: BatchNormPair
    bn_node: BatchNormPair

    def copy(self) -> "ConvParams":
        return ConvParams(
            self.gate_recv.copy(),
            self.gate_send.copy(),
            self.gate_edge.copy(),
            self.node_self.copy(),
            self.node_msg.copy(),
            self.bn_edge.copy(),
            self.bn_node.copy(),
        )


@dataclass
class ModelParams:
    """All trainable arrays plus batch norm statistics."""

    edge_embed: np.ndarray  # (d, d) input edge transform
    edge_to_node: np.ndarray  # (H, d) gated edge features -> node state
    bn_edge_in: BatchNormPair
    bn_node_in: BatchNormPair
    convs: list[ConvParams]
    dec_hidden_w: np.ndarray  # (decoder_hidden, 3H)
    dec_hidden_b: np.ndarray  # (1, decoder_hidden)
    dec_out_w: np.ndarray  # (d, decoder_hidden)
    dec_out_b: np.ndarray  # (1, d)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Trainable arrays in a stable order."""
        yield "edge_embed", self.edge_embed
        yield "edge_to_node", self.edge_to_node
        yield "bn_edge_in.gamma", self.bn_edge_in.gamma
        yield "bn_edge_in.beta", self.bn_edge_in.beta
        yield "bn_node_in.gamma", self.bn_node_in.gamma
        yield "bn_node_in.beta", self.bn_node_in.beta
        for i, conv in enumerate(self.convs):
            yield f"conv{i}.gate_recv", conv.gate_recv
            yield f"conv{i}.gate_send", conv.gate_send
            yield f"conv{i}.gate_edge", conv.gate_edge
            yield f"conv{i}.node_self", conv.node_self
            yield f"conv{i}.node_msg", conv.node_msg
            yield f"conv{i}.bn_edge.gamma", conv.bn_edge.gamma
            yield f"conv{i}.bn_edge.beta", conv.bn_edge.beta
            yield f"conv{i}.bn_node.gamma", conv.bn_node.gamma
            yield f"conv{i}.bn_node.beta", conv.bn_node.beta
        yield "dec_hidden_w", self.dec_hidden_w
        yield "dec_hidden_b", self.dec_hidden_b
        yield "dec_out_w", self.dec_out_w
        yield "dec_out_b", self.dec_out_b

    def set_array(self, name: str, value: np.ndarray) -> None:
        for existing_name, arr in self.named_arrays():
            if existing_name == name:
                arr[...] = value
                return
        raise KeyError(name)

    def bn_pairs(self) -> Iterator[tuple[str, BatchNormPair]]:
        yield "bn_edge_in", self.bn_edge_in
        yield "bn_node_in", self.bn_node_in
        for i, conv in enumerate(self.convs):
            yield f"conv{i}.bn_edge", conv.bn_edge
            yield f"conv{i}.bn_node", conv.bn_node

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, pair in self.bn_pairs():
            yield f"{name}.running_mean", pair.state.running_mean
            yield f"{name}.running_var", pair.state.running_var

    def mark_bn_initialized(self) -> None:
        """Declare the current running stats usable for eval mode."""
        for _, pair in self.bn_pairs():
            pair.state.initialized = True

    def copy(self) -> "ModelParams":
        return ModelParams(
            edge_embed=self.edge_embed.copy(),
            edge_to_node=self.edge_to_node.copy(),
            bn_edge_in=self.bn_edge_in.copy(),
            bn_node_in=self.bn_node_in.copy(),
            convs=[c.copy() for c in self.convs],
            dec_hidden_w=self.dec_hidden_w.copy(),
            dec_hidden_b=self.dec_hidden_b.copy(),
            dec_out_w=self.dec_out_w.copy(),
            dec_out_b=self.dec_out_b.copy(),
        )


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded Glorot-uniform weights; unit/zero batch norm affine terms;
    zero decoder biases."""
    rng = np.random.default_rng(seed)
    d, h = config.edge_dim, config.hidden
    convs = []
    for layer in range(config.layers):
        edge_in = d if layer == 0 else h
        convs.append(
            ConvParams(
                gate_recv=_glorot(rng, h, h),
                gate_send=_glorot(rng, h, h),
                gate_edge=_glorot(rng, h, edge_in),
                node_self=_glorot(rng, h, h),
                node_msg=_glorot(rng, h, h),
                bn_edge=BatchNormPair.create(h),
                bn_node=BatchNormPair.create(h),
            )
        )
    return ModelParams(
        edge_embed=_glorot(rng, d, d),
        edge_to_node=_glorot(rng, h, d),
        bn_edge_in=BatchNormPair.create(d),
        bn_node_in=BatchNormPair.create(h),
        convs=convs,
        dec_hidden_w=_glorot(rng, config.decoder_hidden, 3 * h),
        dec_hidden_b=np.zeros((1, config.decoder_hidden)),
        dec_out_w=_glorot(rng, d, config.decoder_hidden),
        dec_out_b=np.zeros((1, d)),
    )


@dataclass
class GraphTensors:
    """Model-ready view of one interval graph."""

    n_nodes: int
    recv: np.ndarray  # (E,) receiving node per directed edge
    send: np.ndarray  # (E,) sending node per directed edge
    feats: np.ndarray  # (E, d) inputs in [0, 1], reverse flag last

    @classmethod
    def from_graph(cls, graph: IntervalGraph) -> "GraphTensors":
        """Stored flows deliver their message to the destination endpoint;
        reverse companions cover the source, so reach is symmetric."""
        if graph.features is None:
            raise ValueError("graph has no normalized features; apply a scaler")
        feats = np.hstack(
            [graph.features, graph.reverse.astype(np.float64)[:, None]]
        )
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
    """Everything produced by one forward pass. Values are tape tensors;
    use ``.data`` for plain arrays."""

    node_states: Tensor  # (n, H) final embeddings
    edge_states: Tensor  # (E, H) final edge states
    logits: Tensor  # (E, d) decoder pre-activations
    decoded: Tensor  # (E, d) sigmoid reconstruction
    gates: list[Tensor]  # per layer, input layer first
    recon_loss: Tensor
    neighbor_loss: Tensor
    loss: Tensor
    leaves: dict[str, Tensor]

    @property
    def embeddings(self) -> np.ndarray:
        return self.node_states.data


def _leaves(tape: Tape, params: ModelParams) -> dict[str, Tensor]:
    return {name: tape.leaf(arr) for name, arr in params.named_arrays()}


def _bn(x, leaves, name, pair, config, mode, update):
    return ad.batch_norm(
        x,
        leaves[f"{name}.gamma"],
        leaves[f"{name}.beta"],
        pair.state,
        mode=mode,
        momentum=config.bn_momentum,
        eps=config.bn_eps,
        update_running=update,
    )


def _input_layer(tape, leaves, params, config, gt, e0, mode, update):
    transformed = ad.relu(
        _bn(
            ad.linear(e0, leaves["edge_embed"]),
            leaves,
            "bn_edge_in",
            params.bn_edge_in,
            config,
            mode,
            update,
        )
    )
    edge_state = ad.add(e0, transformed)
    gates = ad.gate_normalize(edge_state, gt.recv, gt.n_nodes, config.gate_eps)
    gated = ad.linear(ad.hadamard(gates, e0), leaves["edge_to_node"])
    pooled = ad.segment_sum(gated, gt.recv, gt.n_nodes)
    h = ad.relu(
        _bn(pooled, leaves, "bn_node_in", params.bn_node_in, config, mode, update)
    )
    return h, edge_state, gates


def _conv_layer(tape, leaves, params, config, gt, h, edge_state, layer, mode, update):
    conv = params.convs[layer]
    prefix = f"conv{layer}"
    h_recv = ad.gather_rows(h, gt.recv)
    h_send = ad.gather_rows(h, gt.send)
    projected = ad.linear(edge_state, leaves[f"{prefix}.gate_edge"])
    pre = ad.add(
        ad.add(
            ad.linear(h_recv, leaves[f"{prefix}.gate_recv"]),
            ad.linear(h_send, leaves[f"{prefix}.gate_send"]),
        ),
        projected,
    )
    update_term = ad.relu(
        _bn(pre, leaves, f"{prefix}.bn_edge", conv.bn_edge, config, mode, update)
    )
    # First layer: the residual carries the projected edge state so deeper
    # layers live in the hidden dimension.
    residual = projected if layer == 0 else edge_state
    new_edge_state = ad.add(residual, update_term)
    gates = ad.gate_normalize(new_edge_state, gt.recv, gt.n_nodes, config.gate_eps)
    messages = ad.hadamard(gates, ad.linear(h_send, leaves[f"{prefix}.node_msg"]))
    pooled = ad.segment_sum(messages, gt.recv, gt.n_nodes)
    node_pre = ad.add(ad.linear(h, leaves[f"{prefix}.node_self"]), pooled)
    new_h = ad.add(
        h,
        ad.relu(
            _bn(
                node_pre, leaves, f"{prefix}.bn_node", conv.bn_node, config, mode, update
            )
        ),
    )
    return new_h, new_edge_state, gates


def _decode(tape, leaves, gt, h, edge_state):
    h_recv = ad.gather_rows(h, gt.recv)
    h_send = ad.gather_rows(h, gt.send)
    joined = ad.concat_cols([h_recv, h_send, edge_state])
    hidden = ad.relu(
        ad.add(ad.linear(joined, leaves["dec_hidden_w"]), leaves["dec_hidden_b"])
    )
    logits = ad.add(ad.linear(hidden, leaves["dec_out_w"]), leaves["dec_out_b"])
    return logits, h_recv, h_send


def forward(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    mode: str = "train",
    tape: Tape | None = None,
    update_running: bool | None = None,
    leaves: dict[str, Tensor] | None = None,
) -> ForwardResult:
    """Run the full network and both loss terms on one graph.

    The pass draws no random numbers, so its result depends only on the
    parameters, the batch norm statistics and the graph. ``leaves`` lets a
    caller supply pre-registered parameter tensors (same names as
    ``params.named_arrays``) on an existing tape, which is how the gradient
    checker reuses this function.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    gt.validate(config)
    if update_running is None:
        update_running = mode == "train"
    tape = tape or Tape()
    if leaves is None:
        leaves = _leaves(tape, params)
    e0 = tape.leaf(gt.feats)

    h, edge_state, gates0 = _input_layer(
        tape, leaves, params, config, gt, e0, mode, update_running
    )
    all_gates = [gates0]
    for layer in range(config.layers):
        h, edge_state, gates = _conv_layer(
            tape, leaves, params, config, gt, h, edge_state, layer, mode, update_running
        )
        all_gates.append(gates)

    logits, h_recv, h_send = _decode(tape, leaves, gt, h, edge_state)
    decoded = ad.sigmoid(logits)

    recon = ad.scalar_mul(
        ad.bce_with_logits_mean(logits, gt.feats), config.lambda_recon
    )
    dots = ad.row_sums(ad.hadamard(h_recv, h_send))
    neighbor = ad.scalar_mul(
        ad.sum_all(ad.log_sigmoid(dots)), -config.lambda_neighbor
    )
    loss = ad.add(recon, neighbor)
    return ForwardResult(
        node_states=h,
        edge_states=edge_state,
        logits=logits,
        decoded=decoded,
        gates=all_gates,
        recon_loss=recon,
        neighbor_loss=neighbor,
        loss=loss,
        leaves=leaves,
    )


def input_layer(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    mode: str = "eval",
    tape: Tape | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Standalone input layer: returns (node states, edge states, gates)."""
    tape = tape or Tape()
    leaves = _leaves(tape, params)
    e0 = tape.leaf(gt.feats)
    return _input_layer(
        tape, leaves, params, config, gt, e0, mode, update=(mode == "train")
    )


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
    tape = tape or Tape()
    leaves = _leaves(tape, params)
    return _conv_layer(
        tape,
        leaves,
        params,
        config,
        gt,
        tape.leaf(h),
        tape.leaf(edge_state),
        layer,
        mode,
        update=(mode == "train"),
    )


def decode(
    params: ModelParams,
    config: ModelConfig,
    gt: GraphTensors,
    h: np.ndarray,
    edge_state: np.ndarray,
    tape: Tape | None = None,
) -> Tensor:
    """Standalone decoder: sigmoid reconstruction of every edge's inputs."""
    tape = tape or Tape()
    leaves = _leaves(tape, params)
    logits, _, _ = _decode(tape, leaves, gt, tape.leaf(h), tape.leaf(edge_state))
    return ad.sigmoid(logits)


# ---------------------------------------------------------------------------
# loss helpers on plain arrays


def reconstruction_loss(targets: np.ndarray, probs: np.ndarray, weight: float) -> float:
    """Weighted mean binary cross entropy of decoded probabilities.

    The limits ``0 * log 0`` are taken as zero so exact hits at 0 or 1 cost
    nothing.
    """
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(t > 0, t * np.log(p), 0.0)
        right = np.where(t < 1, (1.0 - t) * np.log1p(-p), 0.0)
    values = -(left + right)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("cross entropy diverged (probability hit 0 or 1)")
    return float(weight * values.mean())


def neighbor_loss(
    embeddings: np.ndarray, recv, send, weight: float
) -> float:
    """``-weight * sum over directed edges of log sigmoid(h_recv . h_send)``."""
    h = np.asarray(embeddings, dtype=np.float64)
    recv = np.asarray(recv, dtype=np.int64)
    send = np.asarray(send, dtype=np.int64)
    dots = np.einsum("ij,ij->i", h[recv], h[send])
    return float(-weight * ad.log_sigmoid_np(dots).sum())


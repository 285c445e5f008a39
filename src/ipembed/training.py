"""Training loop, holdout filtering and the versioned model container."""

from __future__ import annotations

import ctypes
import json
import math
import time
from dataclasses import asdict, dataclass, field
from ipaddress import ip_address
from itertools import chain
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .binio import (
    FormatError,
    ensure_left,
    read_exact,
    read_into,
    read_struct,
    read_text,
    write_array,
    write_struct,
)
from .graphs import N_NUMERIC, FeatureScaler, IntervalGraph, ProtocolVocab
from .model import (
    FLOAT32_MAX,
    GraphTensors,
    ModelConfig,
    ModelParams,
    blank_params,
    edge_dim_for_vocab,
    float32_leaves,
    forward,
    init_params,
    param_shapes,
)
from .zeek import ConnRecord, FlowTable

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "ModelBundle",
    "Adam",
    "filter_holdout",
    "train",
    "save_model",
    "load_model",
]

_MODEL_MAGIC = b"IPGM"
_MODEL_VERSION = 1
# Config keys with a fixed value, which a file may also leave out: the
# architecture constants, which every file records, and the negative-sampling
# count that older files store, always 0.
_MODEL_CONSTANTS = {
    "bn_eps": ad.BN_EPS, "bn_momentum": ad.BN_MOMENTUM, "gate_eps": ad.GATE_EPS
}
_FIXED_CONFIG = {**_MODEL_CONSTANTS, "neg_samples": 0}


class TrainingDivergedError(ArithmeticError):
    """Loss became NaN or infinite; carries where it happened."""

    def __init__(self, epoch: int, graph_index: int, value: float):
        super().__init__(
            f"training diverged at epoch {epoch}, graph {graph_index}: "
            f"loss={value!r}"
        )
        self.epoch = epoch
        self.graph_index = graph_index


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0
    patience: int = 20
    min_delta: float = 1e-4
    # Adam's fixed constants, not constructor arguments.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # 0 is a valid learning rate: training then leaves the initial weights.
        if not 0.0 <= self.learning_rate <= FLOAT32_MAX:
            raise ValueError(
                "learning_rate must be finite, non-negative and within float32 range"
            )
        if not (math.isfinite(self.min_delta) and self.min_delta >= 0):
            raise ValueError("min_delta must be finite and non-negative")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainHistory:
    """Per-epoch mean losses over the training graphs, plus wall time."""

    loss: list[float] = field(default_factory=list)
    recon: list[float] = field(default_factory=list)
    neighbor: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.loss)

    @property
    def best_epoch(self) -> int:
        return int(np.argmin(self.loss))


@dataclass
class ModelBundle:
    """A trained model with everything needed to embed new graphs."""

    params: ModelParams
    config: ModelConfig
    vocab: ProtocolVocab
    scaler: FeatureScaler


class Adam:
    """Adam with bias correction over a named set of arrays.

    The update runs in place: per array, the gradient is copied into a
    scratch buffer of the array's dtype, and the moments, the step and the
    weights are updated with ``out=`` and in-place operators. The operations
    and their order are those of ``arr -= lr * (m / bc1) / (sqrt(v / bc2) +
    eps)``, so every weight bit is as an out-of-place update would leave it.
    The arrays of one dtype share one pair of scratch buffers, as large as
    the largest of them; each array steps on views of its own shape into
    that pair, made at its first step.
    """

    def __init__(
        self,
        lr: float = TrainConfig.learning_rate,
        beta1: float = TrainConfig.beta1,
        beta2: float = TrainConfig.beta2,
        eps: float = TrainConfig.adam_eps,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        # Two flat scratch buffers per dtype, the gradient, then the step,
        # and per array its views into them.
        self._pairs: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _add_state(self, name: str, arr: np.ndarray, arrays: list) -> None:
        """Zero moments and scratch views for an array not seen before. Its
        dtype's pair is made, or replaced by a larger one, as large as the
        largest array of that dtype in ``arrays``; views made on a replaced
        pair keep it."""
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)
        pair = self._pairs.get(arr.dtype)
        if pair is None or pair[0].size < arr.size:
            size = max(a.size for _, a in arrays if a.dtype == arr.dtype)
            pair = self._pairs[arr.dtype] = (
                np.empty(size, arr.dtype), np.empty(size, arr.dtype)
            )
        self._scratch[name] = tuple(buf[: arr.size].reshape(arr.shape) for buf in pair)

    def step(
        self, arrays: Iterable[tuple[str, np.ndarray]], grads: dict[str, np.ndarray]
    ) -> None:
        """Update each named array in place from its gradient, in the
        array's dtype whatever the gradient's."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        arrays = list(arrays)
        for name, arr in arrays:
            if name not in self._m:
                self._add_state(name, arr, arrays)
            m, v = self._m[name], self._v[name]
            g, tmp = self._scratch[name]
            np.copyto(g, grads[name])
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=tmp)
            v *= self.beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - self.beta2
            v += tmp
            # step = lr * (m / bc1) / (sqrt(v / bc2) + eps), into g.
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, bc1, out=g)
            g *= self.lr
            g /= tmp
            arr -= g


def filter_holdout(
    records: Iterable[ConnRecord], holdout_ips: Iterable[str]
) -> FlowTable:
    """The table of ``records`` without every row whose source or
    destination is a holdout IP, in order; records that are no
    :class:`FlowTable` are converted to one first.

    This is the one way held-out IPs are removed: from the records, before
    the vocab, the graphs, the scaler or the model are fitted."""
    table = FlowTable.from_records(records)
    banned = {str(ip_address(ip)) for ip in holdout_ips}
    hit = np.array([ip in banned for ip in table.ips], dtype=bool)
    return table[~(hit[table.column("source_ip")] | hit[table.column("destination_ip")])]


# glibc's mallopt parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep the memory a training step frees mapped for the next step.

    Each step frees and allocates about the same arrays again. With glibc's
    defaults the heap top is trimmed after a step and arrays past the
    dynamic mmap threshold are unmapped, so the kernel zero-fills their
    pages again on every step. The trim threshold goes as high as
    ``mallopt`` takes and the mmap threshold to 32 MiB, glibc's 64-bit
    maximum: the trim threshold alone would pin the mmap threshold at
    128 KiB, below a desk (E, 64) float32 array. The declared ``int``
    arguments keep ctypes from truncating them. Does nothing where the C
    library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)


def _step(
    params: ModelParams,
    config: ModelConfig,
    tensors: Sequence[GraphTensors],
    optimizer: Adam,
    epoch: int,
    graph_index: int,
) -> tuple[float, float, float]:
    """One training step on one graph: forward in float32, backward and an
    Adam update of ``params``. Returns the loss and its two terms; the tape
    and everything on it die when this returns."""
    tape = ad.Tape()
    leaves = float32_leaves(tape, params)
    result = forward(
        params, config, tensors[graph_index], mode="train", tape=tape, leaves=leaves
    )
    value = result.loss.item()
    if not np.isfinite(value):
        raise TrainingDivergedError(epoch, graph_index, value)
    ad.backward(result.loss)
    optimizer.step(
        params.named_arrays(), {name: leaf.grad for name, leaf in leaves.items()}
    )
    return value, result.recon_loss.item(), result.neighbor_loss.item()


def train(
    graphs: Sequence[IntervalGraph],
    model_config: ModelConfig,
    train_config: TrainConfig = TrainConfig(),
    log: Callable[[str], None] | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Optimize the model over normalized interval graphs.

    One optimizer step per graph per epoch, graphs visited in seeded
    shuffled order. Returns the parameters of the best epoch by mean loss,
    with the batch norm statistics they had at that point. Stops early when
    ``patience`` epochs pass without the loss improving by ``min_delta``.
    Deterministic for a fixed seed and graph list at a fixed BLAS thread
    count: a linear map's weight gradient sums over all edge rows, and
    OpenBLAS splits that sum across its threads, so the trained bytes can
    differ between thread counts.

    Mixed precision: each step runs in float32, on the graph features cast
    once and on float32 copies of the weights; Adam applies the gradients to
    the float64 weights, and the batch norm statistics, the best-epoch copy
    and the result stay float64.

    Memory: one step's tape is alive at a time, and it keeps no forward
    value but the leaves'. During a step, an intermediate lives only while
    the forward code or a vjp holds it, so a step's peak is the arrays its
    vjps read plus the gradients not yet propagated. A step keeps only its
    three loss values, so its vjps and gradients are freed before the next
    step's forward begins. Glibc's trim and mmap thresholds are raised for
    the rest of the process (see ``_keep_freed_memory``), so the memory a
    step frees stays mapped for the next step instead of being handed back
    and faulted in again: the heap stays at its peak instead of shrinking.
    """
    if not graphs:
        raise ValueError("no training graphs")
    _keep_freed_memory()
    tensors = [GraphTensors.from_graph(g, np.float32) for g in graphs]

    params = init_params(model_config, seed=train_config.seed)
    optimizer = Adam(lr=train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    history = TrainHistory()
    best_loss = np.inf
    best_params = params.copy()
    stall = 0

    for epoch in range(train_config.epochs):
        t0 = time.perf_counter()
        sum_loss = sum_recon = sum_neighbor = 0.0
        for graph_index in rng.permutation(len(tensors)):
            value, recon, neighbor = _step(
                params, model_config, tensors, optimizer, epoch, int(graph_index)
            )
            sum_loss += value
            sum_recon += recon
            sum_neighbor += neighbor

        n = len(tensors)
        epoch_loss = sum_loss / n
        history.loss.append(epoch_loss)
        history.recon.append(sum_recon / n)
        history.neighbor.append(sum_neighbor / n)
        history.seconds.append(time.perf_counter() - t0)
        if log is not None:
            log(
                f"epoch {epoch} loss {epoch_loss!r} recon {sum_recon / n!r} "
                f"neighbor {sum_neighbor / n!r} seconds {history.seconds[-1]:.3f}"
            )

        stall = 0 if epoch_loss < best_loss - train_config.min_delta else stall + 1
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = params.copy()
        if stall >= train_config.patience:
            break

    return best_params, history


# ---------------------------------------------------------------------------
# model container


def _write_section(fp, payload: bytes) -> None:
    write_struct(fp, "<Q", len(payload))
    fp.write(payload)


def _read_section(fp) -> bytes:
    (length,) = read_struct(fp, "<Q")
    return read_exact(fp, length)


def _json_section(fp, what: str):
    try:
        return json.loads(_read_section(fp).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise FormatError(f"model {what} section is not JSON: {exc}") from None


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize a model bundle; loading restores it bit-exactly."""
    config_doc = {**asdict(bundle.config), **_MODEL_CONSTANTS}
    config_doc["bn_initialized"] = {
        name: bn.initialized for name, bn in bundle.params.bn_pairs()
    }
    tensors = list(bundle.params.named_arrays()) + list(
        bundle.params.named_buffers()
    )
    with open(path, "wb") as fp:
        fp.write(_MODEL_MAGIC)
        write_struct(fp, "<H", _MODEL_VERSION)
        _write_section(fp, json.dumps(config_doc, sort_keys=True).encode("utf-8"))
        _write_section(fp, json.dumps(list(bundle.vocab.tokens)).encode("utf-8"))
        scaler = bundle.scaler.log_max.astype("<f8")
        _write_section(
            fp, len(scaler).to_bytes(4, "little") + scaler.tobytes()
        )
        write_struct(fp, "<I", len(tensors))
        for name, arr in tensors:
            encoded = name.encode("utf-8")
            write_struct(fp, "<H", len(encoded))
            fp.write(encoded)
            write_struct(fp, "<II", arr.shape[0], arr.shape[1])
            write_array(fp, arr, "f8")


def load_model(path: str | Path) -> ModelBundle:
    """Read a model bundle written by :func:`save_model`.

    The config section fixes which tensors the file holds and their shapes;
    an unknown, repeated, missing or misshapen tensor record is a
    ``FormatError``, raised before its payload is read. So is a tensor
    holding a value that is not finite, or a negative running variance,
    and so is a config, vocab and scaler that disagree on the feature width,
    a batch norm flag that is not a JSON boolean or names no batch norm, and
    a config whose tensors need more bytes than the file has left, which is
    refused before anything is allocated. The arrays come from
    :func:`~ipembed.model.blank_params` and the file fills each one, so no
    weight is drawn.
    """
    with open(path, "rb") as fp:
        magic = read_exact(fp, 4)
        if magic != _MODEL_MAGIC:
            raise FormatError(f"not a model file (magic {magic!r})")
        (version,) = read_struct(fp, "<H")
        if version != _MODEL_VERSION:
            raise FormatError(f"unsupported model version {version}")
        config_doc = _json_section(fp, "config")
        tokens = _json_section(fp, "vocab")
        scaler_raw = _read_section(fp)
        if not isinstance(config_doc, dict):
            raise FormatError("model config section is not a JSON object")
        bn_flags = config_doc.pop("bn_initialized", {})
        if not isinstance(bn_flags, dict):
            raise FormatError("model config bn_initialized is not a JSON object")
        for key, fixed in _FIXED_CONFIG.items():
            if config_doc.pop(key, fixed) != fixed:
                raise FormatError(f"model config {key} must be {fixed!r}")
        try:
            config = ModelConfig(**config_doc)
            # Refuse a config the file cannot hold before allocating for it.
            # A batch norm also stores running statistics as wide as gamma.
            ensure_left(fp, 8 * sum(
                rows * cols * (3 if name.endswith(".gamma") else 1)
                for name, (rows, cols) in param_shapes(config).items()
            ))
            params = blank_params(config)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad model config: {exc}") from None
        for name, flag in bn_flags.items():
            if name not in params.bns or not isinstance(flag, bool):
                raise FormatError(f"bad bn_initialized entry {name!r}: {flag!r}")
        for name, bn in params.bn_pairs():
            bn.initialized = bn_flags.get(name, True)
        expected = dict(chain(params.named_arrays(), params.named_buffers()))
        (n_tensors,) = read_struct(fp, "<I")
        for _ in range(n_tensors):
            (name_len,) = read_struct(fp, "<H")
            name = read_text(fp, name_len, "model tensor name")
            if name not in expected:
                raise FormatError(f"unknown or repeated model tensor {name!r}")
            arr = expected.pop(name)
            shape = read_struct(fp, "<II")
            if shape != arr.shape:
                raise FormatError(
                    f"tensor {name!r} has shape {shape}, expected {arr.shape}"
                )
            read_into(fp, arr)
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"tensor {name!r} holds a non-finite value")
            if name.endswith(".running_var") and np.any(arr < 0.0):
                raise FormatError(f"tensor {name!r} holds a negative variance")
        if expected:
            raise FormatError(f"model file is missing tensor {next(iter(expected))!r}")
        if fp.read(1):
            raise FormatError("trailing bytes after model payload")

    vocab = ProtocolVocab.from_json(tokens, "model vocab section")
    count = int.from_bytes(scaler_raw[:4], "little")
    if len(scaler_raw) < 4 or len(scaler_raw) != 4 + 8 * count:
        raise FormatError(
            f"model scaler section holds {len(scaler_raw)} bytes, "
            f"not a 4-byte count and {count} float64 values"
        )
    try:
        scaler = FeatureScaler(log_max=np.frombuffer(scaler_raw[4:], dtype="<f8").copy())
    except ValueError as exc:
        raise FormatError(f"bad model scaler: {exc}") from None
    if (
        config.edge_dim != edge_dim_for_vocab(vocab.size)
        or scaler.log_max.size != vocab.size * N_NUMERIC
    ):
        raise FormatError(
            f"model edge_dim {config.edge_dim} and scaler of "
            f"{scaler.log_max.size} values do not fit a {vocab.size}-token vocab"
        )
    return ModelBundle(params=params, config=config, vocab=vocab, scaler=scaler)

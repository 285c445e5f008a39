"""Training loop, holdout filtering and the versioned model container."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from ipaddress import ip_address
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .binio import FormatError, read_exact, read_struct, write_struct
from .graphs import FeatureScaler, IntervalGraph, ProtocolVocab
from .model import (
    GraphTensors,
    ModelConfig,
    ModelParams,
    forward,
    init_params,
)
from .zeek import ConnRecord

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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True
    patience: int = 20
    min_delta: float = 1e-4
    checkpoint_every: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
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
    """Adam with bias correction over a named set of arrays."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(
        self, arrays: Iterable[tuple[str, np.ndarray]], grads: dict[str, np.ndarray]
    ) -> None:
        """Update each named array in place from its gradient."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, arr in arrays:
            g = grads[name]
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(arr)
                self._v[name] = np.zeros_like(arr)
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            arr -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def filter_holdout(
    records: Iterable[ConnRecord], holdout_ips: Iterable[str]
) -> list[ConnRecord]:
    """Drop every record whose source or destination is a holdout IP."""
    banned = {str(ip_address(ip)) for ip in holdout_ips}
    return [
        r
        for r in records
        if r.source_ip not in banned and r.destination_ip not in banned
    ]


def train(
    graphs: Sequence[IntervalGraph | GraphTensors],
    model_config: ModelConfig,
    train_config: TrainConfig = TrainConfig(),
    log: Callable[[str], None] | None = None,
    initial_params: ModelParams | None = None,
    vocab: ProtocolVocab | None = None,
    scaler: FeatureScaler | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Optimize the model over normalized interval graphs.

    One optimizer step per graph per epoch, graphs visited in seeded
    shuffled order. Returns the parameters of the best epoch by mean loss,
    with the batch norm statistics they had at that point. Stops early when
    ``patience`` epochs pass without the loss improving by ``min_delta``.
    Deterministic for a fixed seed and graph list.
    """
    if not graphs:
        raise ValueError("no training graphs")
    tensors = [
        g if isinstance(g, GraphTensors) else GraphTensors.from_graph(g)
        for g in graphs
    ]
    for gt in tensors:
        gt.validate(model_config)

    params = (
        initial_params.copy() if initial_params is not None else init_params(
            model_config, seed=train_config.seed
        )
    )
    optimizer = Adam(
        lr=train_config.learning_rate,
        beta1=train_config.beta1,
        beta2=train_config.beta2,
        eps=train_config.adam_eps,
    )
    rng = np.random.default_rng(train_config.seed)
    history = TrainHistory()
    best_loss = np.inf
    best_params = params.copy()
    stall = 0

    for epoch in range(train_config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(tensors)) if train_config.shuffle else np.arange(
            len(tensors)
        )
        sum_loss = sum_recon = sum_neighbor = 0.0
        for graph_index in order:
            gt = tensors[int(graph_index)]
            result = forward(params, model_config, gt, mode="train")
            value = result.loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, int(graph_index), value)
            ad.backward(result.loss)
            grads = {name: result.leaves[name].grad for name in result.leaves}
            optimizer.step(params.named_arrays(), grads)
            sum_loss += value
            sum_recon += result.recon_loss.item()
            sum_neighbor += result.neighbor_loss.item()

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

        if epoch_loss < best_loss - train_config.min_delta:
            best_loss = epoch_loss
            best_params = params.copy()
            stall = 0
        else:
            if epoch_loss < best_loss:
                best_loss = epoch_loss
                best_params = params.copy()
            stall += 1
            if stall >= train_config.patience:
                break

        if (
            train_config.checkpoint_every
            and train_config.checkpoint_path
            and (epoch + 1) % train_config.checkpoint_every == 0
            and vocab is not None
            and scaler is not None
        ):
            save_model(
                ModelBundle(params, model_config, vocab, scaler),
                train_config.checkpoint_path,
            )

    return best_params, history


# ---------------------------------------------------------------------------
# model container


def _write_section(fp, payload: bytes) -> None:
    write_struct(fp, "<Q", len(payload))
    fp.write(payload)


def _read_section(fp) -> bytes:
    (length,) = read_struct(fp, "<Q")
    return read_exact(fp, length)


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize a model bundle; loading restores it bit-exactly."""
    config = bundle.config
    config_doc = {
        "edge_dim": config.edge_dim,
        "hidden": config.hidden,
        "layers": config.layers,
        "decoder_hidden": config.decoder_hidden,
        "gate_eps": config.gate_eps,
        "bn_eps": config.bn_eps,
        "bn_momentum": config.bn_momentum,
        "lambda_recon": config.lambda_recon,
        "lambda_neighbor": config.lambda_neighbor,
        "bn_initialized": {
            name: pair.state.initialized for name, pair in bundle.params.bn_pairs()
        },
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
            fp.write(arr.astype("<f8").tobytes())


def load_model(path: str | Path) -> ModelBundle:
    """Read a model bundle written by :func:`save_model`."""
    with open(path, "rb") as fp:
        magic = read_exact(fp, 4)
        if magic != _MODEL_MAGIC:
            raise FormatError(f"not a model file (magic {magic!r})")
        (version,) = read_struct(fp, "<H")
        if version != _MODEL_VERSION:
            raise FormatError(f"unsupported model version {version}")
        config_doc = json.loads(_read_section(fp).decode("utf-8"))
        vocab = ProtocolVocab(tuple(json.loads(_read_section(fp).decode("utf-8"))))
        scaler_raw = _read_section(fp)
        count = int.from_bytes(scaler_raw[:4], "little")
        scaler = FeatureScaler(
            log_max=np.frombuffer(scaler_raw[4:], dtype="<f8", count=count).copy()
        )
        (n_tensors,) = read_struct(fp, "<I")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = read_struct(fp, "<H")
            name = read_exact(fp, name_len).decode("utf-8")
            rows, cols = read_struct(fp, "<II")
            data = np.frombuffer(read_exact(fp, 8 * rows * cols), dtype="<f8")
            arrays[name] = data.reshape(rows, cols).astype(np.float64)
        if fp.read(1):
            raise FormatError("trailing bytes after model payload")

    if not isinstance(config_doc, dict):
        raise FormatError("model config section is not a JSON object")
    bn_flags = config_doc.pop("bn_initialized", {})
    if not isinstance(bn_flags, dict):
        raise FormatError("model config bn_initialized is not a JSON object")
    # Older files store the removed negative-sampling count, always 0.
    if config_doc.pop("neg_samples", 0) != 0:
        raise FormatError("model file uses negative sampling, which is unsupported")
    try:
        config = ModelConfig(**config_doc)
        params = init_params(config, seed=0)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad model config: {exc}") from None
    for name, arr in chain(params.named_arrays(), params.named_buffers()):
        if name not in arrays:
            raise FormatError(f"model file is missing tensor {name!r}")
        if arrays[name].shape != arr.shape:
            raise FormatError(
                f"tensor {name!r} has shape {arrays[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[...] = arrays[name]
    for name, pair in params.bn_pairs():
        pair.state.initialized = bool(bn_flags.get(name, True))
    return ModelBundle(params=params, config=config, vocab=vocab, scaler=scaler)

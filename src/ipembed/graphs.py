"""Interval communication graphs built from flow records.

Records are bucketed into fixed-length time intervals and summed per
(source IP, destination IP, protocol) group. Each interval becomes a
directed graph whose nodes are IPs and whose edges carry a feature vector:
a protocol one-hot block followed by one block of 8 summed traffic
features per protocol slot. Every forward edge gets a reverse companion
with a set reverse flag so that message passing reaches both endpoints. A
companion shares its forward twin's feature row: a graph stores one row
per forward edge, and row ``i`` serves edges ``2i`` and ``2i + 1``.

Numeric features are scaled for training with ``min(log1p(x) / max, 1)``
where the per-dimension maxima come from the training graphs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from ipaddress import ip_address
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .binio import (
    FormatError,
    read_array,
    read_exact,
    read_struct,
    read_text,
    write_array,
    write_struct,
)
from .zeek import NUMERIC_FEATURES, ConnRecord

__all__ = [
    "NUMERIC_FEATURES",
    "OTHER_TOKEN",
    "FlowKey",
    "ProtocolVocab",
    "FeatureScaler",
    "IntervalGraph",
    "check_interval_len",
    "assign_interval",
    "resolve_origin",
    "aggregate_flows",
    "fit_protocol_vocab",
    "build_graph",
    "iter_interval_graphs",
    "build_interval_graphs",
    "fit_scaler",
    "normalize",
    "ip_sort_key",
    "save_graph",
    "load_graph",
    "load_graph_dir",
    "validate_graph",
]

# NUMERIC_FEATURES: the summed per-group traffic features, in schema order.
N_NUMERIC = len(NUMERIC_FEATURES)
OTHER_TOKEN = "other"

_GRAPH_MAGIC = b"IPGR"
_GRAPH_VERSION = 2


class FlowKey(NamedTuple):
    """Aggregation key: one key per directed protocol conversation."""

    source_ip: str
    destination_ip: str
    protocol_service: str


def ip_sort_key(ip: str) -> tuple[int, int]:
    """Canonical node order: IPv4 before IPv6, then numeric address."""
    addr = ip_address(ip)
    return (addr.version, int(addr))


@dataclass(frozen=True)
class ProtocolVocab:
    """Ordered protocol tokens with a trailing catch-all slot.

    Tokens seen during fitting occupy sorted slots; anything unseen at
    build time maps to the final ``other`` slot.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens or self.tokens[-1] != OTHER_TOKEN:
            raise ValueError(f"vocab must end with the {OTHER_TOKEN!r} slot")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocab tokens must be unique")

    @classmethod
    def from_json(cls, tokens, source: str) -> "ProtocolVocab":
        """The vocab a decoded JSON token list describes, else ``FormatError``."""
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise FormatError(f"{source} is not a JSON list of strings")
        try:
            return cls(tuple(tokens))
        except ValueError as exc:
            raise FormatError(f"bad {source}: {exc}") from None

    @property
    def size(self) -> int:
        return len(self.tokens)

    def slot(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            return len(self.tokens) - 1


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension maxima of log1p-scaled numeric features."""

    log_max: np.ndarray  # shape (P * N_NUMERIC,)

    def __post_init__(self):
        arr = np.asarray(self.log_max, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0 or arr.size % N_NUMERIC:
            raise ValueError(f"bad scaler length {arr.shape}")
        if not np.all(np.isfinite(arr) & (arr > 0)):
            raise ValueError("scaler maxima must be finite and positive")
        object.__setattr__(self, "log_max", arr)


@dataclass(eq=False)
class IntervalGraph:
    """One interval's communication graph. Treated as immutable once built.

    Edges interleave: edge ``2i`` is a forward edge and edge ``2i + 1`` its
    reverse companion, flagged in ``reverse``. A companion shares its
    forward twin's feature row, so the feature matrices hold one row per
    forward edge, E / 2 rows, and row ``i`` serves edges ``2i`` and
    ``2i + 1``. ``raw_features`` has ``P + P * 8`` columns: the protocol
    one-hot block then one numeric block per protocol slot. ``features``
    holds the normalized copy once a scaler has been applied.
    """

    start: float
    end: float
    nodes: tuple[str, ...]
    edge_src: np.ndarray  # (E,) int32, sending endpoint of the stored flow
    edge_dst: np.ndarray  # (E,) int32, receiving endpoint
    reverse: np.ndarray  # (E,) uint8
    raw_features: np.ndarray  # (E / 2, d) float64, one row per forward edge
    features: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def feat_dim(self) -> int:
        return self.raw_features.shape[1]


def check_interval_len(interval_len: float) -> None:
    """Refuse an interval length that is not a finite positive number,
    before anything divides by it."""
    if not (math.isfinite(interval_len) and interval_len > 0):
        raise ValueError(
            f"interval_len must be finite and positive, got {interval_len}"
        )


def _check_origin(origin: float) -> None:
    """Refuse a stream origin that is not finite: an infinite one overflows
    the interval index and NaN has none."""
    if not math.isfinite(origin):
        raise ValueError(f"stream origin must be finite, got {origin}")


def assign_interval(ts: float, interval_len: float, origin: float = 0.0) -> int:
    """Map a timestamp to its zero-based interval index."""
    check_interval_len(interval_len)
    _check_origin(origin)
    if ts < origin:
        raise ValueError(f"timestamp {ts} precedes stream origin {origin}")
    return int(math.floor((ts - origin) / interval_len))


def resolve_origin(records: Sequence[ConnRecord], interval_len: float) -> float:
    """Default stream origin: earliest timestamp floored to a whole
    interval boundary."""
    check_interval_len(interval_len)
    if not records:
        raise ValueError("cannot derive an origin from zero records")
    earliest = min(r.ts for r in records)
    return math.floor(earliest / interval_len) * interval_len


_feature_row = attrgetter(*NUMERIC_FEATURES)


def aggregate_flows(
    records: Iterable[ConnRecord], interval_len: float, origin: float | None = None
) -> dict[int, dict[FlowKey, np.ndarray]]:
    """Sum numeric features per interval and flow key.

    With ``origin=None`` the default origin is derived from the records.
    Returns ``{interval index: {FlowKey: 8-vector}}`` with only non-empty
    intervals present, both levels in order of first occurrence.

    One pass numbers the (interval, source, destination, protocol) groups in
    order of first occurrence; ``np.bincount`` then sums each feature column
    per group, adding in record order from zero, so every sum equals the
    record-by-record sum (a group whose only durations are ``-0.0`` sums to
    ``+0.0``). Interval indices are ``floor((ts - origin) / interval_len)``,
    the same operations as :func:`assign_interval`.
    """
    check_interval_len(interval_len)
    records = list(records)
    if not records:
        return {}
    if origin is None:
        origin = resolve_origin(records, interval_len)
    _check_origin(origin)
    ts = np.fromiter((r.ts for r in records), dtype=np.float64, count=len(records))
    early = ts < origin
    if early.any():
        first = float(ts[np.argmax(early)])
        raise ValueError(f"timestamp {first} precedes stream origin {origin}")
    interval = np.floor((ts - origin) / interval_len).tolist()
    groups: dict[tuple, int] = {}
    gid = np.fromiter(
        (
            groups.setdefault(key, len(groups))
            for key in zip(
                interval,
                [r.source_ip for r in records],
                [r.destination_ip for r in records],
                [r.protocol_service for r in records],
            )
        ),
        dtype=np.intp,
        count=len(records),
    )
    values = np.fromiter(
        chain.from_iterable(map(_feature_row, records)),
        dtype=np.float64,
        count=len(records) * N_NUMERIC,
    ).reshape(len(records), N_NUMERIC)
    sums = np.stack(
        [
            np.bincount(gid, weights=values[:, j], minlength=len(groups))
            for j in range(N_NUMERIC)
        ],
        axis=1,
    )
    out: dict[int, dict[FlowKey, np.ndarray]] = {}
    for (idx, src, dst, proto), vec in zip(groups, sums):
        out.setdefault(int(idx), {})[FlowKey(src, dst, proto)] = vec
    return out


def fit_protocol_vocab(
    aggregates: Mapping[int, Mapping[FlowKey, np.ndarray]]
) -> ProtocolVocab:
    """Sorted distinct protocol tokens plus the trailing catch-all slot."""
    tokens: set[str] = set()
    rows = 0
    for groups in aggregates.values():
        for key in groups:
            tokens.add(key.protocol_service)
            rows += 1
    if rows == 0:
        raise ValueError("cannot fit a protocol vocab from empty aggregates")
    tokens.discard(OTHER_TOKEN)
    return ProtocolVocab(tuple(sorted(tokens)) + (OTHER_TOKEN,))


def _stack_vectors(vectors: list) -> np.ndarray:
    """The aggregate vectors as one (G, 8) float64 matrix; a vector of any
    other shape raises naming its shape."""
    try:
        stacked = np.array(vectors, dtype=np.float64)
    except ValueError:  # ragged
        stacked = None
    if stacked is None or stacked.shape != (len(vectors), N_NUMERIC):
        for vec in vectors:
            shape = np.asarray(vec, dtype=np.float64).shape
            if shape != (N_NUMERIC,):
                raise ValueError(f"bad aggregate vector shape {shape}")
    return stacked


def build_graph(
    groups: Mapping[FlowKey, np.ndarray],
    vocab: ProtocolVocab,
    start: float,
    end: float,
) -> IntervalGraph:
    """Assemble one interval graph from its aggregated flow groups.

    Nodes are sorted canonically. Each ordered (source, destination) pair
    yields exactly one forward edge, in (source, destination) index order;
    protocols stack into the one-hot block and their numeric blocks, with
    unseen tokens accumulated onto the catch-all slot. Every forward edge is
    followed by its reverse companion, which shares its feature row.

    The numeric blocks are one ``np.bincount`` over flat (pair, column)
    cells with the groups in mapping order, so each cell adds its groups'
    vectors in that order starting from zero. ``start`` must lie below ``end``.
    """
    if not start < end:
        raise ValueError(f"graph interval [{start}, {end}) is empty")
    if not groups:
        raise ValueError("cannot build a graph from zero flow groups")
    keys = list(groups)
    vecs = _stack_vectors(list(groups.values()))
    p = vocab.size
    dim = p + p * N_NUMERIC
    sources = [k.source_ip for k in keys]
    destinations = [k.destination_ip for k in keys]
    ips = sorted(set(sources) | set(destinations), key=ip_sort_key)
    n = len(ips)
    index = {ip: i for i, ip in enumerate(ips)}
    slots = {token: vocab.slot(token) for token in {k.protocol_service for k in keys}}
    src = np.fromiter(map(index.__getitem__, sources), dtype=np.int64, count=len(keys))
    dst = np.fromiter(
        map(index.__getitem__, destinations), dtype=np.int64, count=len(keys)
    )
    slot = np.fromiter(
        (slots[k.protocol_service] for k in keys), dtype=np.int64, count=len(keys)
    )
    pairs, pair_of = np.unique(src * n + dst, return_inverse=True)
    cells = (pair_of * dim + p + slot * N_NUMERIC)[:, None] + np.arange(N_NUMERIC)
    forward = np.bincount(
        cells.ravel(), weights=vecs.ravel(), minlength=len(pairs) * dim
    ).reshape(len(pairs), dim)
    forward[pair_of, slot] = 1.0

    n_edges = 2 * len(pairs)
    edge_src = np.empty(n_edges, dtype=np.int32)
    edge_dst = np.empty(n_edges, dtype=np.int32)
    edge_src[0::2] = edge_dst[1::2] = pairs // n
    edge_dst[0::2] = edge_src[1::2] = pairs % n
    reverse = np.zeros(n_edges, dtype=np.uint8)
    reverse[1::2] = 1
    return IntervalGraph(
        start=float(start),
        end=float(end),
        nodes=tuple(ips),
        edge_src=edge_src,
        edge_dst=edge_dst,
        reverse=reverse,
        raw_features=forward,
    )


def iter_interval_graphs(
    aggregates: Mapping[int, Mapping[FlowKey, np.ndarray]],
    vocab: ProtocolVocab,
    interval_len: float,
    origin: float,
) -> Iterator[tuple[int, IntervalGraph]]:
    """Build one graph per non-empty interval of :func:`aggregate_flows`
    output, yielding ``(interval index, graph)`` by ascending index.

    Interval ``idx`` spans ``[origin + idx * interval_len,
    origin + (idx + 1) * interval_len)``, so adjacent graphs share their
    boundary timestamp exactly.
    """
    for idx in sorted(aggregates):
        start = origin + idx * interval_len
        end = origin + (idx + 1) * interval_len
        yield idx, build_graph(aggregates[idx], vocab, start, end)


def build_interval_graphs(
    records: Iterable[ConnRecord],
    interval_len: float,
    vocab: ProtocolVocab,
    origin: float | None = None,
) -> list[IntervalGraph]:
    """Aggregate records and build one graph per non-empty interval,
    ordered by interval index."""
    records = list(records)
    if origin is None:
        origin = resolve_origin(records, interval_len)
    aggregates = aggregate_flows(records, interval_len, origin)
    return [g for _, g in iter_interval_graphs(aggregates, vocab, interval_len, origin)]


def fit_scaler(graphs: Sequence[IntervalGraph]) -> FeatureScaler:
    """Per-dimension maxima of log1p numeric features over training graphs.

    Dimensions that are never positive get max 1 so normalization leaves
    them at zero.
    """
    if not graphs:
        raise ValueError("cannot fit a scaler on zero graphs")
    dim = graphs[0].feat_dim
    p = _onehot_width(dim)
    maxima = np.zeros(dim - p, dtype=np.float64)
    for graph in graphs:
        if graph.feat_dim != dim:
            raise ValueError(
                f"feature dim mismatch: {graph.feat_dim} != {dim}"
            )
        if graph.n_edges:
            numeric = np.log1p(graph.raw_features[:, p:])
            maxima = np.maximum(maxima, numeric.max(axis=0))
    maxima[maxima <= 0.0] = 1.0
    return FeatureScaler(log_max=maxima)


def _onehot_width(dim: int) -> int:
    if dim % (N_NUMERIC + 1):
        raise ValueError(f"feature dim {dim} is not P * {N_NUMERIC + 1}")
    return dim // (N_NUMERIC + 1)


def normalize(graph: IntervalGraph, scaler: FeatureScaler) -> IntervalGraph:
    """Return a copy of the graph with normalized features attached.

    One-hot columns pass through; numeric columns become
    ``min(log1p(x) / max, 1)`` so every feature lies in [0, 1].
    """
    p = _onehot_width(graph.feat_dim)
    if scaler.log_max.shape[0] != graph.feat_dim - p:
        raise ValueError(
            f"scaler covers {scaler.log_max.shape[0]} dims, "
            f"graph has {graph.feat_dim - p} numeric dims"
        )
    feats = graph.raw_features.copy()
    # log1p stays on the strided column block, whose strides pick its kernel
    # and so its last bits; dividing and clipping in its result makes no
    # further (E, 8P) temporaries.
    numeric = np.log1p(feats[:, p:])
    numeric /= scaler.log_max
    feats[:, p:] = np.minimum(numeric, 1.0, out=numeric)
    return replace(graph, features=feats)


def validate_graph(graph: IntervalGraph) -> None:
    """Raise ``ValueError`` if the interval is not a finite start below its
    end, a structural invariant does not hold, or a raw feature is not a
    one-hot 0 or 1 or a finite non-negative sum."""
    if not (math.isfinite(graph.start) and graph.start < graph.end):
        raise ValueError(f"bad interval bounds {graph.start}, {graph.end}")
    n, e = graph.n_nodes, graph.n_edges
    if len(set(graph.nodes)) != n:
        raise ValueError("graph names a node twice")
    if e % 2:
        raise ValueError("edge count must be even (forward/reverse pairs)")
    if graph.edge_dst.shape != (e,) or graph.reverse.shape != (e,):
        raise ValueError("edge arrays disagree on length")
    if graph.raw_features.shape != (e // 2, graph.feat_dim):
        raise ValueError("feature matrix shape mismatch")
    p = _onehot_width(graph.feat_dim)
    onehot, numeric = graph.raw_features[:, :p], graph.raw_features[:, p:]
    if np.any((onehot != 0.0) & (onehot != 1.0)):
        raise ValueError("protocol one-hot cell is not 0 or 1")
    if not np.all(np.isfinite(numeric) & (numeric >= 0.0)):
        raise ValueError("traffic feature is negative or not finite")
    if e and (graph.edge_src.min() < 0 or graph.edge_src.max() >= n):
        raise ValueError("edge source index out of range")
    if e and (graph.edge_dst.min() < 0 or graph.edge_dst.max() >= n):
        raise ValueError("edge destination index out of range")
    src, dst, rev = graph.edge_src, graph.edge_dst, graph.reverse
    if rev[0::2].any() or not rev[1::2].all():
        raise ValueError("edges must interleave forward/reverse")
    if np.any(src[0::2] != dst[1::2]) or np.any(dst[0::2] != src[1::2]):
        raise ValueError("companion edge endpoints do not mirror")
    pairs = src[0::2].astype(np.int64) * n + dst[0::2]
    if len(np.unique(pairs)) != len(pairs):
        raise ValueError("duplicate forward edge for an ordered pair")


def save_graph(graph: IntervalGraph, path: str | Path) -> None:
    """Write one graph snapshot: raw features only, one row per forward
    edge, as the graph holds them."""
    with open(path, "wb") as fp:
        fp.write(_GRAPH_MAGIC)
        write_struct(fp, "<H", _GRAPH_VERSION)
        write_struct(fp, "<dd", graph.start, graph.end)
        write_struct(fp, "<II", graph.feat_dim, graph.n_nodes)
        for ip in graph.nodes:
            encoded = ip.encode("utf-8")
            write_struct(fp, "<H", len(encoded))
            fp.write(encoded)
        write_struct(fp, "<I", graph.n_edges)
        write_array(fp, graph.edge_src, "i4")
        write_array(fp, graph.edge_dst, "i4")
        write_array(fp, graph.reverse, "u1")
        write_array(fp, graph.raw_features, "f8")


def load_graph(path: str | Path) -> IntervalGraph:
    """Read a graph snapshot written by :func:`save_graph`. A snapshot that
    :func:`validate_graph` refuses is a ``FormatError``. So is a version-1
    snapshot, which stored a row for every companion too: the error says to
    rebuild it with ``ipembed build-graphs``. The version, and an odd edge
    count, are refused before any feature bytes are read."""
    with open(path, "rb") as fp:
        magic = read_exact(fp, 4)
        if magic != _GRAPH_MAGIC:
            raise FormatError(f"not a graph snapshot (magic {magic!r})")
        (version,) = read_struct(fp, "<H")
        if version == 1:
            raise FormatError(
                "graph snapshot version 1 stores companion rows; "
                "rebuild it with `ipembed build-graphs`"
            )
        if version != _GRAPH_VERSION:
            raise FormatError(f"unsupported graph snapshot version {version}")
        start, end = read_struct(fp, "<dd")
        dim, n_nodes = read_struct(fp, "<II")
        nodes = []
        for _ in range(n_nodes):
            (length,) = read_struct(fp, "<H")
            nodes.append(read_text(fp, length, "graph snapshot node name"))
        (n_edges,) = read_struct(fp, "<I")
        edge_src = read_array(fp, np.int32, (n_edges,))
        edge_dst = read_array(fp, np.int32, (n_edges,))
        reverse = read_array(fp, np.uint8, (n_edges,))
        # The features hold a row per edge pair, so an odd count fits no layout.
        if n_edges % 2:
            raise FormatError(
                "bad graph snapshot: edge count must be even (forward/reverse pairs)"
            )
        feats = read_array(fp, np.float64, (n_edges // 2, dim))
        trailing = fp.read(1)
        if trailing:
            raise FormatError("trailing bytes after graph payload")
    graph = IntervalGraph(
        start=start,
        end=end,
        nodes=tuple(nodes),
        edge_src=edge_src,
        edge_dst=edge_dst,
        reverse=reverse,
        raw_features=feats,
    )
    try:
        validate_graph(graph)
    except ValueError as exc:
        raise FormatError(f"bad graph snapshot: {exc}") from None
    return graph


def load_graph_dir(directory: str | Path) -> list[IntervalGraph]:
    """Load every ``*.ipgr`` snapshot in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.ipgr"))
    if not paths:
        raise FileNotFoundError(f"no graph snapshots in {directory}")
    return [load_graph(p) for p in paths]

"""Interval communication graphs built from flow records.

Records are bucketed into fixed-length time intervals and summed per
(source IP, destination IP, protocol) group. Each interval becomes a
directed graph whose nodes are IPs and whose edges carry a feature vector:
a protocol one-hot block followed by one block of 8 summed traffic
features per protocol slot. Every forward edge gets a reverse companion
with identical features and a set reverse flag so that message passing
reaches both endpoints.

Numeric features are scaled for training with ``min(log1p(x) / max, 1)``
where the per-dimension maxima come from the training graphs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from ipaddress import ip_address
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .binio import FormatError, read_exact, read_struct, write_struct
from .zeek import ConnRecord

__all__ = [
    "NUMERIC_FEATURES",
    "OTHER_TOKEN",
    "FlowKey",
    "ProtocolVocab",
    "FeatureScaler",
    "IntervalGraph",
    "assign_interval",
    "resolve_origin",
    "aggregate_flows",
    "fit_protocol_vocab",
    "build_graph",
    "iter_interval_graphs",
    "build_interval_graphs",
    "fit_scaler",
    "normalize",
    "drop_nodes",
    "ip_sort_key",
    "save_graph",
    "load_graph",
    "load_graph_dir",
    "validate_graph",
]

# Summed per-group traffic features, in schema column order.
NUMERIC_FEATURES = (
    "response_bytes",
    "request_bytes",
    "duration",
    "bytes",
    "response_packets",
    "request_packets",
    "response_ip_bytes",
    "request_ip_bytes",
)
N_NUMERIC = len(NUMERIC_FEATURES)
OTHER_TOKEN = "other"

_GRAPH_MAGIC = b"IPGR"
_GRAPH_VERSION = 1


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
        if not np.all(arr > 0):
            raise ValueError("scaler maxima must be positive")
        object.__setattr__(self, "log_max", arr)


@dataclass(eq=False)
class IntervalGraph:
    """One interval's communication graph. Treated as immutable once built.

    ``raw_features`` has ``P + P * 8`` columns: the protocol one-hot block
    then one numeric block per protocol slot. ``features`` holds the
    normalized copy once a scaler has been applied. ``reverse`` flags the
    companion edges; companions carry features identical to their forward
    twin.
    """

    start: float
    end: float
    nodes: tuple[str, ...]
    edge_src: np.ndarray  # (E,) int32, sending endpoint of the stored flow
    edge_dst: np.ndarray  # (E,) int32, receiving endpoint
    reverse: np.ndarray  # (E,) uint8
    raw_features: np.ndarray  # (E, d) float64
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


def assign_interval(ts: float, interval_len: float, origin: float = 0.0) -> int:
    """Map a timestamp to its zero-based interval index."""
    if interval_len <= 0:
        raise ValueError(f"interval_len must be positive, got {interval_len}")
    if ts < origin:
        raise ValueError(f"timestamp {ts} precedes stream origin {origin}")
    return int(math.floor((ts - origin) / interval_len))


def resolve_origin(records: Sequence[ConnRecord], interval_len: float) -> float:
    """Default stream origin: earliest timestamp floored to a whole
    interval boundary."""
    if not records:
        raise ValueError("cannot derive an origin from zero records")
    earliest = min(r.ts for r in records)
    return math.floor(earliest / interval_len) * interval_len


def _record_vector(record: ConnRecord) -> np.ndarray:
    return np.array(
        [getattr(record, name) for name in NUMERIC_FEATURES], dtype=np.float64
    )


def aggregate_flows(
    records: Iterable[ConnRecord], interval_len: float, origin: float | None = None
) -> dict[int, dict[FlowKey, np.ndarray]]:
    """Sum numeric features per interval and flow key.

    With ``origin=None`` the records are materialized once to derive the
    default origin. Returns ``{interval index: {FlowKey: 8-vector}}`` with
    only non-empty intervals present.
    """
    if origin is None:
        records = list(records)
        if not records:
            return {}
        origin = resolve_origin(records, interval_len)
    out: dict[int, dict[FlowKey, np.ndarray]] = {}
    for record in records:
        idx = assign_interval(record.ts, interval_len, origin)
        key = FlowKey(record.source_ip, record.destination_ip, record.protocol_service)
        groups = out.setdefault(idx, {})
        vec = groups.get(key)
        if vec is None:
            groups[key] = _record_vector(record)
        else:
            vec += _record_vector(record)
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


def build_graph(
    groups: Mapping[FlowKey, np.ndarray],
    vocab: ProtocolVocab,
    start: float,
    end: float,
) -> IntervalGraph:
    """Assemble one interval graph from its aggregated flow groups.

    Nodes are sorted canonically. Each ordered (source, destination) pair
    yields exactly one forward edge; protocols stack into the one-hot block
    and their numeric blocks, with unseen tokens accumulated onto the
    catch-all slot. Every forward edge is followed by its reverse companion.
    """
    if not groups:
        raise ValueError("cannot build a graph from zero flow groups")
    p = vocab.size
    dim = p + p * N_NUMERIC
    ips = sorted(
        {k.source_ip for k in groups} | {k.destination_ip for k in groups},
        key=ip_sort_key,
    )
    index = {ip: i for i, ip in enumerate(ips)}
    pair_feats: dict[tuple[int, int], np.ndarray] = {}
    for key, vec in groups.items():
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (N_NUMERIC,):
            raise ValueError(f"bad aggregate vector shape {vec.shape}")
        pair = (index[key.source_ip], index[key.destination_ip])
        row = pair_feats.get(pair)
        if row is None:
            row = pair_feats[pair] = np.zeros(dim, dtype=np.float64)
        slot = vocab.slot(key.protocol_service)
        row[slot] = 1.0
        base = p + slot * N_NUMERIC
        row[base : base + N_NUMERIC] += vec

    pairs = sorted(pair_feats)
    n_edges = 2 * len(pairs)
    edge_src = np.empty(n_edges, dtype=np.int32)
    edge_dst = np.empty(n_edges, dtype=np.int32)
    reverse = np.zeros(n_edges, dtype=np.uint8)
    feats = np.empty((n_edges, dim), dtype=np.float64)
    for k, (src, dst) in enumerate(pairs):
        row = pair_feats[(src, dst)]
        edge_src[2 * k] = src
        edge_dst[2 * k] = dst
        feats[2 * k] = row
        edge_src[2 * k + 1] = dst
        edge_dst[2 * k + 1] = src
        reverse[2 * k + 1] = 1
        feats[2 * k + 1] = row
    return IntervalGraph(
        start=float(start),
        end=float(end),
        nodes=tuple(ips),
        edge_src=edge_src,
        edge_dst=edge_dst,
        reverse=reverse,
        raw_features=feats,
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
    numeric = np.log1p(feats[:, p:]) / scaler.log_max
    feats[:, p:] = np.minimum(numeric, 1.0)
    return replace(graph, features=feats)


def drop_nodes(graph: IntervalGraph, ips: Iterable[str]) -> IntervalGraph | None:
    """Remove the given IPs and every edge touching them.

    Equivalent to filtering the source records before aggregation. Nodes
    left with no incident edges are dropped too; returns None if nothing
    remains.
    """
    banned = {str(ip_address(ip)) for ip in ips}
    if not banned.intersection(graph.nodes):
        return graph
    node_banned = np.array([ip in banned for ip in graph.nodes], dtype=bool)
    keep = ~(node_banned[graph.edge_src] | node_banned[graph.edge_dst])
    if not keep.any():
        return None
    src = graph.edge_src[keep]
    dst = graph.edge_dst[keep]
    used = np.zeros(graph.n_nodes, dtype=bool)
    used[src] = True
    used[dst] = True
    remap = np.full(graph.n_nodes, -1, dtype=np.int32)
    remap[used] = np.arange(int(used.sum()), dtype=np.int32)
    return IntervalGraph(
        start=graph.start,
        end=graph.end,
        nodes=tuple(ip for ip, u in zip(graph.nodes, used) if u),
        edge_src=remap[src],
        edge_dst=remap[dst],
        reverse=graph.reverse[keep].copy(),
        raw_features=graph.raw_features[keep].copy(),
        features=None if graph.features is None else graph.features[keep].copy(),
    )


def validate_graph(graph: IntervalGraph) -> None:
    """Raise if structural invariants do not hold."""
    n, e = graph.n_nodes, graph.n_edges
    if e % 2:
        raise ValueError("edge count must be even (forward/reverse pairs)")
    if graph.edge_dst.shape != (e,) or graph.reverse.shape != (e,):
        raise ValueError("edge arrays disagree on length")
    if graph.raw_features.shape != (e, graph.feat_dim):
        raise ValueError("feature matrix shape mismatch")
    if e and (graph.edge_src.min() < 0 or graph.edge_src.max() >= n):
        raise ValueError("edge source index out of range")
    if e and (graph.edge_dst.min() < 0 or graph.edge_dst.max() >= n):
        raise ValueError("edge destination index out of range")
    forward = [
        (int(s), int(d))
        for s, d, r in zip(graph.edge_src, graph.edge_dst, graph.reverse)
        if not r
    ]
    if len(set(forward)) != len(forward):
        raise ValueError("duplicate forward edge for an ordered pair")
    if 2 * len(forward) != e:
        raise ValueError("forward and reverse edge counts differ")
    for k in range(0, e, 2):
        if graph.reverse[k] or not graph.reverse[k + 1]:
            raise ValueError("edges must interleave forward/reverse")
        if (
            graph.edge_src[k] != graph.edge_dst[k + 1]
            or graph.edge_dst[k] != graph.edge_src[k + 1]
        ):
            raise ValueError("companion edge endpoints do not mirror")
        if not np.array_equal(graph.raw_features[k], graph.raw_features[k + 1]):
            raise ValueError("companion edge features differ")


def save_graph(graph: IntervalGraph, path: str | Path) -> None:
    """Write one graph snapshot (raw features only)."""
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
        fp.write(graph.edge_src.astype("<i4").tobytes())
        fp.write(graph.edge_dst.astype("<i4").tobytes())
        fp.write(graph.reverse.astype("u1").tobytes())
        fp.write(graph.raw_features.astype("<f8").tobytes())


def load_graph(path: str | Path) -> IntervalGraph:
    """Read a graph snapshot written by :func:`save_graph`."""
    with open(path, "rb") as fp:
        magic = read_exact(fp, 4)
        if magic != _GRAPH_MAGIC:
            raise FormatError(f"not a graph snapshot (magic {magic!r})")
        (version,) = read_struct(fp, "<H")
        if version != _GRAPH_VERSION:
            raise FormatError(f"unsupported graph snapshot version {version}")
        start, end = read_struct(fp, "<dd")
        dim, n_nodes = read_struct(fp, "<II")
        nodes = []
        for _ in range(n_nodes):
            (length,) = read_struct(fp, "<H")
            nodes.append(read_exact(fp, length).decode("utf-8"))
        (n_edges,) = read_struct(fp, "<I")
        edge_src = np.frombuffer(read_exact(fp, 4 * n_edges), dtype="<i4").astype(
            np.int32
        )
        edge_dst = np.frombuffer(read_exact(fp, 4 * n_edges), dtype="<i4").astype(
            np.int32
        )
        if n_edges and (
            min(edge_src.min(), edge_dst.min()) < 0
            or max(edge_src.max(), edge_dst.max()) >= n_nodes
        ):
            raise FormatError(f"edge endpoint index outside [0, {n_nodes})")
        reverse = np.frombuffer(read_exact(fp, n_edges), dtype="u1").astype(np.uint8)
        feats = np.frombuffer(
            read_exact(fp, 8 * n_edges * dim), dtype="<f8"
        ).reshape(n_edges, dim)
        trailing = fp.read(1)
        if trailing:
            raise FormatError("trailing bytes after graph payload")
    return IntervalGraph(
        start=start,
        end=end,
        nodes=tuple(nodes),
        edge_src=edge_src,
        edge_dst=edge_dst,
        reverse=reverse,
        raw_features=feats.astype(np.float64),
    )


def load_graph_dir(directory: str | Path) -> list[IntervalGraph]:
    """Load every ``*.ipgr`` snapshot in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.ipgr"))
    if not paths:
        raise FileNotFoundError(f"no graph snapshots in {directory}")
    return [load_graph(p) for p in paths]

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
from .zeek import NUMERIC_FEATURES, ConnRecord, FlowTable

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
    interval boundary. Reads a :class:`FlowTable`'s ``ts`` column."""
    check_interval_len(interval_len)
    ts = FlowTable.from_records(records).column("ts")
    if not len(ts):
        raise ValueError("cannot derive an origin from zero records")
    return math.floor(float(ts.min()) / interval_len) * interval_len


class _Groups(NamedTuple):
    """A table's (interval, source, destination, protocol) groups in order
    of first occurrence: each group's interval index (a whole float), its IP
    and token codes into the table, and its summed numeric features."""

    interval: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    token: np.ndarray
    sums: np.ndarray  # (G, N_NUMERIC) float64


def _group(table: FlowTable, interval_len: float, origin: float) -> _Groups:
    """The one aggregation core. Interval indices are ``floor((ts - origin)
    / interval_len)``, the same operations as :func:`assign_interval`.
    ``np.bincount`` sums each feature column per group, adding in row order
    from zero, so every sum equals the row-by-row sum (a group whose only
    durations are ``-0.0`` sums to ``+0.0``)."""
    _check_origin(origin)
    ts = table.column("ts")
    early = ts < origin
    if early.any():
        first = float(ts[np.argmax(early)])
        raise ValueError(f"timestamp {first} precedes stream origin {origin}")
    interval = np.floor((ts - origin) / interval_len)
    src = table.column("source_ip")
    dst = table.column("destination_ip")
    token = table.column("protocol_service")
    gid, rows = _first_seen(np.unique(interval, return_inverse=True)[1], src, dst, token)
    sums = np.stack(
        [
            np.bincount(gid, weights=table.column(attr).astype(np.float64), minlength=len(rows))
            for attr in NUMERIC_FEATURES
        ],
        axis=1,
    )
    return _Groups(interval[rows], src[rows], dst[rows], token[rows], sums)


def _first_seen(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of non-negative integer ``columns`` in order
    of first occurrence: each row's group, and each group's first row."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    span = 1
    for column in columns:
        size = int(column.max()) + 1
        if span * size > np.iinfo(np.int64).max:  # renumber densely first
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
        key = key * size + column
        span *= size
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def aggregate_flows(
    records: Iterable[ConnRecord], interval_len: float, origin: float | None = None
) -> dict[int, dict[FlowKey, np.ndarray]]:
    """Sum numeric features per interval and flow key.

    With ``origin=None`` the default origin is derived from the records.
    Returns ``{interval index: {FlowKey: 8-vector}}`` with only non-empty
    intervals present, both levels in order of first occurrence. A
    :class:`FlowTable` is read by its columns; other records are converted to
    one first. The sums are exact row-order sums, as :func:`build_interval_graphs`
    uses them.
    """
    check_interval_len(interval_len)
    table = FlowTable.from_records(records)
    if not len(table):
        return {}
    if origin is None:
        origin = resolve_origin(table, interval_len)
    groups = _group(table, interval_len, origin)
    ips, tokens = table.ips, table.tokens
    out: dict[int, dict[FlowKey, np.ndarray]] = {}
    for idx, src, dst, token, vec in zip(
        groups.interval.tolist(), groups.src.tolist(), groups.dst.tolist(),
        groups.token.tolist(), groups.sums,
    ):
        out.setdefault(int(idx), {})[FlowKey(ips[src], ips[dst], tokens[token])] = vec
    return out


def fit_protocol_vocab(
    flows: Mapping[int, Mapping[FlowKey, np.ndarray]] | Iterable[ConnRecord],
) -> ProtocolVocab:
    """Sorted distinct protocol tokens plus the trailing catch-all slot, of
    :func:`aggregate_flows` output or of records; a :class:`FlowTable` is
    read by its token column."""
    if isinstance(flows, Mapping):
        tokens = {key.protocol_service for groups in flows.values() for key in groups}
    else:
        table = FlowTable.from_records(flows)
        used = np.bincount(table.column("protocol_service"), minlength=len(table.tokens))
        tokens = {table.tokens[code] for code in np.flatnonzero(used).tolist()}
    if not tokens:
        raise ValueError("cannot fit a protocol vocab from zero flows")
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
    """Assemble one interval graph from its aggregated flow groups, in
    mapping order; see :func:`iter_interval_graphs` for the layout.
    ``start`` must lie below ``end``."""
    if not groups:
        raise ValueError("cannot build a graph from zero flow groups")
    vecs = _stack_vectors(list(groups.values()))
    sources, destinations, tokens = zip(*groups)
    ips = tuple(dict.fromkeys(sources + destinations))
    code = {ip: i for i, ip in enumerate(ips)}
    slot = {token: vocab.slot(token) for token in set(tokens)}

    def column(mapping, values):
        return np.fromiter(map(mapping.__getitem__, values), np.int64, len(values))

    return _assemble(
        column(code, sources), column(code, destinations), column(slot, tokens), vecs,
        _NodeOrder(ips), vocab.size, start, end,
    )


class _NodeOrder:
    """Canonical node order (:func:`ip_sort_key`) over a table's IPs: each
    IP code's rank, and the IPs by rank."""

    def __init__(self, ips: Sequence[str]):
        order = sorted(range(len(ips)), key=lambda code: ip_sort_key(ips[code]))
        self.ranked = [ips[code] for code in order]
        self.rank = np.empty(len(ips), dtype=np.int64)
        self.rank[order] = np.arange(len(ips))


def _assemble(
    src: np.ndarray,
    dst: np.ndarray,
    slot: np.ndarray,
    vecs: np.ndarray,
    order: _NodeOrder,
    p: int,
    start: float,
    end: float,
) -> IntervalGraph:
    """The one graph builder: one interval's flow groups as columns (IP
    codes, vocab slots and (G, 8) vectors, in group order)."""
    if not start < end:
        raise ValueError(f"graph interval [{start}, {end}) is empty")
    dim = p + p * N_NUMERIC
    # Node indices: each endpoint's position among the graph's ranks.
    node_ranks, local = np.unique(
        order.rank[np.concatenate([src, dst])], return_inverse=True
    )
    n = len(node_ranks)
    pairs, pair_of = np.unique(local[: len(src)] * n + local[len(src) :], return_inverse=True)
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
        nodes=tuple(order.ranked[r] for r in node_ranks.tolist()),
        edge_src=edge_src,
        edge_dst=edge_dst,
        reverse=reverse,
        raw_features=forward,
    )


def iter_interval_graphs(
    records: Iterable[ConnRecord],
    interval_len: float,
    vocab: ProtocolVocab,
    origin: float | None = None,
) -> Iterator[tuple[int, IntervalGraph]]:
    """Aggregate records and build one graph per non-empty interval,
    yielding ``(interval index, graph)`` by ascending index. The records
    are aggregated and checked at the call; each graph is built as it is
    pulled.

    With ``origin=None`` the default origin is derived from the records.
    Interval ``idx`` spans ``[origin + idx * interval_len,
    origin + (idx + 1) * interval_len)``, so adjacent graphs share their
    boundary timestamp exactly.

    A :class:`FlowTable` is read by its columns, and each graph is built
    straight from its interval's grouped columns; other records are
    converted to a table first. Nodes are sorted canonically. Each ordered
    (source, destination) pair yields exactly one forward edge, in
    (source, destination) index order; protocols stack into the one-hot
    block and their numeric blocks, with unseen tokens accumulated onto the
    catch-all slot. Every forward edge is followed by its reverse companion,
    which shares its feature row. The numeric blocks are one ``np.bincount``
    over flat (pair, column) cells with the groups in order of first
    occurrence, so each cell adds its groups' sums in that order starting
    from zero, as :func:`build_graph` does for the same groups.
    """
    check_interval_len(interval_len)
    table = FlowTable.from_records(records)
    if origin is None:
        origin = resolve_origin(table, interval_len)
    if not len(table):
        return iter(())
    groups = _group(table, interval_len, origin)
    order = _NodeOrder(table.ips)
    slots = np.array([vocab.slot(token) for token in table.tokens], dtype=np.int64)
    by_interval = np.argsort(groups.interval, kind="stable")
    splits = np.flatnonzero(np.diff(groups.interval[by_interval])) + 1

    def graphs():
        for part in np.split(by_interval, splits):
            idx = int(groups.interval[part[0]])
            yield idx, _assemble(
                groups.src[part], groups.dst[part], slots[groups.token[part]],
                groups.sums[part], order, vocab.size,
                origin + idx * interval_len, origin + (idx + 1) * interval_len,
            )

    return graphs()


def build_interval_graphs(
    records: Iterable[ConnRecord],
    interval_len: float,
    vocab: ProtocolVocab,
    origin: float | None = None,
) -> list[IntervalGraph]:
    """The graphs of :func:`iter_interval_graphs`, ordered by interval
    index."""
    return [graph for _, graph in iter_interval_graphs(records, interval_len, vocab, origin)]


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

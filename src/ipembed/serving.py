"""Inference services: embeddings, similarity, anomaly scores, projections.

Every similarity, the holdout harness's included, runs on one row-cosine
kernel, :func:`cosine_rows`, and every CSV table the package writes goes
through one CSV writer, :func:`write_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, softplus
from .graphs import IntervalGraph, ip_sort_key, normalize
from .model import GraphTensors, decoder, encode_states, float32_leaves
from .training import ModelBundle

__all__ = [
    "EmbeddingSet",
    "SimilarityReport",
    "infer_embeddings",
    "cosine_rows",
    "cosine",
    "top_k_similar",
    "pairwise_report",
    "project_2d",
    "write_embeddings_csv",
    "write_similarity_csv",
    "write_projection_csv",
    "write_anomaly_csv",
    "write_edge_errors_csv",
    "write_csv",
]

DEGENERATE_NORM = 1e-12


@dataclass
class EmbeddingSet:
    """Embeddings and reconstruction errors for one interval graph.

    Row ``i`` of ``vectors`` belongs to ``ips[i]``, and IPs are unique.
    ``rows`` maps each IP to its row; each IP's rank in canonical IP order
    is computed on the first ranking. Both are built once per set.
    """

    interval: float  # interval start timestamp
    ips: tuple[str, ...]
    vectors: np.ndarray  # (n, H)
    edge_errors: np.ndarray  # (E,) per-edge mean KL(target || reconstruction)
    anomaly: dict[str, float]  # per IP, mean error over incident edges
    rows: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rows = {ip: i for i, ip in enumerate(self.ips)}
        if len(self.rows) != len(self.ips):
            raise ValueError("embedding set names an IP twice")

    @cached_property
    def canonical_rank(self) -> np.ndarray:
        """Each row's position when the IPs are sorted by ``ip_sort_key``."""
        order = sorted(range(len(self.ips)), key=lambda i: ip_sort_key(self.ips[i]))
        return np.argsort(order)

    def vector(self, ip: str) -> np.ndarray:
        try:
            return self.vectors[self.rows[ip]]
        except KeyError:
            raise KeyError(
                f"IP {ip} not present in interval starting at {self.interval}"
            ) from None


@dataclass
class SimilarityReport:
    """Per-pair cosine series over a sequence of interval graphs; a pair
    that never co-occurs has an empty series."""

    pairs: tuple[tuple[str, str], ...]
    series: dict[tuple[str, str], list[tuple[float, float]]]  # (interval, cosine)
    n_graphs: int


def infer_embeddings(bundle: ModelBundle, graph: IntervalGraph) -> EmbeddingSet:
    """Eval-mode :func:`~ipembed.model.encode_states` over one graph, then the
    decoder and the edge errors one block of edges at a time, all on a tape
    that records nothing, so each intermediate is freed as soon as it is
    used. No loss term is computed and no gate is kept.

    The network runs in float32, as a training step does: on
    :func:`~ipembed.model.float32_leaves` of the bundle's weights and on the
    edge features written once into a float32 matrix, with the batch norm
    statistics cast per layer. The bundle itself is left in float64.

    What stays live: the graph, with one float64 feature row per edge pair,
    its float32 model input, with that row written into both edges of the
    pair, the node states and the final (E, H) edge states. The decoder's
    endpoint terms are computed once on the node rows; then each block of
    at least :data:`~ipembed.autodiff.BLOCK_ROWS` edges is decoded, its
    logits taken out as float64 and scored against its float64 targets,
    gathered from the pair rows for that block alone (a block may start or
    end between the two edges of a pair), into one preallocated error
    array. So beyond the encoder, serving memory grows with the nodes and
    one block, not with E times ``decoder_hidden``.
    Every step is row-local, so the block size changes no output bit as
    long as BLAS runs a block's products with the same kernel as the whole
    graph's. The one exception is ``decoder_hidden`` 1: the decoder's edge
    product then has one output column, so a block of
    :data:`~ipembed.autodiff.BLOCK_ROWS` to 1,200 rows has at most 1,200
    output cells and OpenBLAS runs its small-matrix kernel, which sums in
    another order.
    The edge errors are still the same bytes on every run, but can differ
    in the last bits from a decode of the whole graph at once. Nor does
    the BLAS thread count change a served byte: OpenBLAS splits the sum of
    a weight gradient across its threads, and serving computes none.

    Per-edge error is the unweighted mean over columns of the Bernoulli KL
    divergence between the edge's input t and its reconstruction p,
    ``t*log(t/p) + (1-t)*log((1-t)/(1-p))`` with ``0*log 0 = 0``: the
    training cross entropy minus the target's own entropy H(t). It is zero
    exactly when the reconstruction equals the input, so mid-range and
    saturated targets are scored on the same footing. A node's anomaly
    score is the mean error over its incident directed edges, zero when
    isolated.
    """
    if graph.features is None:
        graph = normalize(graph, bundle.scaler)
    gt = GraphTensors.from_graph(graph, np.float32)
    tape = Tape(record=False)
    leaves = float32_leaves(tape, bundle.params)
    h, edge_state = encode_states(
        bundle.params, bundle.config, gt, "eval", tape, leaves
    )
    decode_edges = decoder(leaves, h)
    errors = np.empty(len(gt.recv))
    # Even blocks of at least BLOCK_ROWS edges (or all of them): no product
    # is small enough for BLAS to switch kernels, which would change bits.
    n_blocks = max(1, len(errors) // ad.BLOCK_ROWS)
    bounds = [len(errors) * k // n_blocks for k in range(n_blocks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        logits = decode_edges(
            tape.leaf(edge_state.data[rows]), gt.recv[rows], gt.send[rows]
        ).data.astype(np.float64)
        targets = np.column_stack(
            (graph.features[np.arange(start, stop) // 2], graph.reverse[rows])
        )
        errors[rows] = _mean_kl(targets, logits)

    ends = np.concatenate([gt.recv, gt.send])
    total = np.bincount(ends, np.concatenate([errors, errors]), gt.n_nodes)
    count = np.bincount(ends, minlength=gt.n_nodes)
    mean_error = np.divide(total, count, out=np.zeros(gt.n_nodes), where=count > 0)
    return EmbeddingSet(
        interval=graph.start,
        ips=tuple(graph.nodes),
        vectors=h.data.astype(np.float64),
        edge_errors=errors,
        anomaly=dict(zip(graph.nodes, mean_error.tolist())),
    )


def _mean_kl(t: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Per-row mean of the Bernoulli KL(t || sigmoid(logits)), in float64."""
    # softplus(z) - t*z is the cross entropy from logits; H(t) vanishes at
    # t in {0, 1}, so it is only subtracted where 0 < t < 1.
    kl = softplus(logits) - t * logits
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    kl[inner] += ti * np.log(ti) + (1.0 - ti) * np.log1p(-ti)
    # KL >= 0; clamp the rounding left by the subtraction.
    np.maximum(kl, 0.0, out=kl)
    return kl.mean(axis=1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def cosine_rows(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine similarity of the vector ``u`` against each row of ``rows``.

    A pair where either norm is below ``DEGENERATE_NORM`` scores 0.0;
    results are clamped to [-1, 1]. Query and rows take their norms from
    one routine, so ``cosine(u, v) == cosine(v, u)`` bit for bit. Shapes
    that do not match raise ``ValueError``.
    """
    u = np.asarray(u, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    norm_u = _row_norms(u[None, :])
    norms = _row_norms(rows)
    scored = ~((norms < DEGENERATE_NORM) | (norm_u < DEGENERATE_NORM))
    out = np.divide(rows @ u, norms * norm_u, out=np.zeros(len(rows)), where=scored)
    return np.clip(out, -1.0, 1.0, out=out)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors: the one-row case of :func:`cosine_rows`."""
    return float(cosine_rows(u, np.asarray(v)[None, ...])[0])


def top_k_similar(embeddings: EmbeddingSet, ip: str, k: int) -> list[tuple[str, float]]:
    """The k most cosine-similar IPs to the query, query excluded.

    One :func:`cosine_rows` call scores every row; ties break by canonical
    IP order (the set's cached ``canonical_rank``). k larger than the
    candidate set is clamped. Raises ``KeyError`` for an absent IP.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = cosine_rows(embeddings.vector(ip), embeddings.vectors)
    order = np.lexsort((embeddings.canonical_rank, -scores))
    order = order[order != embeddings.rows[ip]][:k]
    return [(embeddings.ips[i], float(scores[i])) for i in order]


def pairwise_report(
    bundle: ModelBundle,
    graphs: Sequence[IntervalGraph],
    pairs: Sequence[tuple[str, str]],
) -> SimilarityReport:
    """Track cosine similarity for chosen IP pairs across interval graphs.

    Each graph where both members appear contributes one sample. A pair
    requested more than once is tracked once, at its first request;
    ``(b, a)`` is a pair of its own.
    """
    if not pairs:
        raise ValueError("no pairs requested")
    series: dict[tuple[str, str], list[tuple[float, float]]] = {
        tuple(p): [] for p in pairs
    }
    for graph in graphs:
        embeddings = infer_embeddings(bundle, graph)
        for pair in series:
            a, b = pair
            if a in embeddings.rows and b in embeddings.rows:
                value = cosine(embeddings.vector(a), embeddings.vector(b))
                series[pair].append((graph.start, value))
    return SimilarityReport(pairs=tuple(series), series=series, n_graphs=len(graphs))


def project_2d(embeddings: EmbeddingSet) -> dict[str, tuple[float, float]]:
    """Project embeddings onto their top two principal components.

    Deterministic sign convention: each component's largest-magnitude
    loading is made positive. Identical embeddings all land at the origin.
    """
    if len(embeddings.ips) < 2:
        raise ValueError("projection needs at least 2 IPs")
    x = embeddings.vectors - embeddings.vectors.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    coords = u * s  # principal component scores, columns ordered by variance
    out = np.zeros((x.shape[0], 2))
    for component in range(min(2, coords.shape[1])):
        column = coords[:, component]
        loading = vt[component]
        anchor = int(np.argmax(np.abs(loading)))
        if loading[anchor] < 0:
            column = -column
        out[:, component] = column
    return {
        ip: (float(out[i, 0]), float(out[i, 1]))
        for i, ip in enumerate(embeddings.ips)
    }


# ---------------------------------------------------------------------------
# CSV exports: write_csv alone decides how a cell is written


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # lossless: the text reparses to the value
    return str(value)


def write_csv(fp: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line, then one line per row. A float, NumPy's
    included, is written as ``repr(float(v))``; anything else is ``str(v)``."""
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(map(_cell, row)) + "\n")


def write_embeddings_csv(embeddings: EmbeddingSet, fp: IO[str]) -> None:
    header = ["ip", *(f"dim_{i}" for i in range(embeddings.vectors.shape[1]))]
    rows = zip(embeddings.ips, embeddings.vectors.tolist())
    write_csv(fp, header, ((ip, *vector) for ip, vector in rows))


def write_similarity_csv(report: SimilarityReport, fp: IO[str]) -> None:
    """One ``pair,interval,cosine`` row per sample, pair by pair."""
    series = (
        (f"{a}|{b}", *sample) for a, b in report.pairs for sample in report.series[a, b]
    )
    write_csv(fp, ["pair", "interval", "cosine"], series)


def write_projection_csv(
    projection: dict[str, tuple[float, float]], fp: IO[str]
) -> None:
    ips = sorted(projection, key=ip_sort_key)
    write_csv(fp, ["ip", "x", "y"], ((ip, *projection[ip]) for ip in ips))


def write_anomaly_csv(embeddings: EmbeddingSet, fp: IO[str]) -> None:
    rows = ((ip, embeddings.anomaly[ip]) for ip in embeddings.ips)
    write_csv(fp, ["ip", "score"], rows)


def write_edge_errors_csv(
    graph: IntervalGraph, embeddings: EmbeddingSet, fp: IO[str]
) -> None:
    """One row per directed edge, in edge order: endpoints, reverse flag and
    the edge's reconstruction error in ``embeddings``."""
    columns = (graph.edge_src, graph.edge_dst, graph.reverse, embeddings.edge_errors)
    cells = zip(*(column.tolist() for column in columns))
    nodes = graph.nodes
    rows = ((nodes[s], nodes[d], r, error) for s, d, r, error in cells)
    write_csv(fp, ["source", "destination", "reverse", "error"], rows)

"""Inference services: embeddings, similarity, anomaly scores, projections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .autodiff import Tape
from .graphs import IntervalGraph, ip_sort_key, normalize
from .model import GraphTensors, forward
from .training import ModelBundle

__all__ = [
    "EmbeddingSet",
    "SimilarityReport",
    "infer_embeddings",
    "cosine",
    "cosine_with_flag",
    "top_k_similar",
    "pairwise_report",
    "project_2d",
    "write_embeddings_csv",
    "write_similarity_csv",
    "write_projection_csv",
    "write_anomaly_csv",
]

DEGENERATE_NORM = 1e-12


@dataclass
class EmbeddingSet:
    """Embeddings and reconstruction errors for one interval graph."""

    interval: float  # interval start timestamp
    ips: tuple[str, ...]
    vectors: np.ndarray  # (n, H)
    edge_errors: np.ndarray  # (E,) per-edge mean KL(target || reconstruction)
    anomaly: dict[str, float]  # per IP, mean error over incident edges

    def vector(self, ip: str) -> np.ndarray:
        try:
            return self.vectors[self.ips.index(ip)]
        except ValueError:
            raise KeyError(
                f"IP {ip} not present in interval starting at {self.interval}"
            ) from None


@dataclass
class SimilarityReport:
    """Per-pair cosine series over a sequence of interval graphs."""

    pairs: tuple[tuple[str, str], ...]
    series: dict[tuple[str, str], list[tuple[float, float]]]  # (interval, cosine)
    stats: dict[tuple[str, str], tuple[float | None, float | None, int]]
    n_graphs: int


def _prepare(bundle: ModelBundle, graph: IntervalGraph) -> GraphTensors:
    if graph.features is None:
        graph = normalize(graph, bundle.scaler)
    return GraphTensors.from_graph(graph)


def infer_embeddings(bundle: ModelBundle, graph: IntervalGraph) -> EmbeddingSet:
    """Eval-mode forward pass over one graph, on a tape that records
    nothing, so each intermediate is freed as soon as the pass moves on.

    Per-edge error is the unweighted mean over columns of the Bernoulli KL
    divergence between the edge's input t and its reconstruction p,
    ``t*log(t/p) + (1-t)*log((1-t)/(1-p))`` with ``0*log 0 = 0``: the
    training cross entropy minus the target's own entropy H(t). It is zero
    exactly when the reconstruction equals the input, so mid-range and
    saturated targets are scored on the same footing. A node's anomaly
    score is the mean error over its incident directed edges, zero when
    isolated.
    """
    gt = _prepare(bundle, graph)
    result = forward(
        bundle.params, bundle.config, gt, mode="eval", tape=Tape(record=False)
    )
    logits = result.logits.data
    t = gt.feats
    # softplus(z) - t*z is the cross entropy from logits; H(t) vanishes at
    # t in {0, 1}, so it is only subtracted where 0 < t < 1.
    kl = np.logaddexp(0.0, logits) - t * logits
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    kl[inner] += ti * np.log(ti) + (1.0 - ti) * np.log1p(-ti)
    # KL >= 0; clamp the rounding left by the subtraction.
    np.maximum(kl, 0.0, out=kl)
    errors = kl.mean(axis=1)

    scores: dict[str, float] = {}
    incident_sum = np.zeros(gt.n_nodes)
    incident_count = np.zeros(gt.n_nodes)
    np.add.at(incident_sum, gt.recv, errors)
    np.add.at(incident_count, gt.recv, 1.0)
    np.add.at(incident_sum, gt.send, errors)
    np.add.at(incident_count, gt.send, 1.0)
    for i, ip in enumerate(graph.nodes):
        scores[ip] = float(
            incident_sum[i] / incident_count[i] if incident_count[i] else 0.0
        )
    return EmbeddingSet(
        interval=graph.start,
        ips=tuple(graph.nodes),
        vectors=result.embeddings.copy(),
        edge_errors=errors,
        anomaly=scores,
    )


def cosine_with_flag(u: np.ndarray, v: np.ndarray) -> tuple[float, bool]:
    """Cosine similarity plus a degenerate-input flag.

    Either vector having norm below 1e-12 yields (0.0, True).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < DEGENERATE_NORM or nv < DEGENERATE_NORM:
        return 0.0, True
    value = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, value)), False


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    return cosine_with_flag(u, v)[0]


def top_k_similar(embeddings: EmbeddingSet, ip: str, k: int) -> list[tuple[str, float]]:
    """The k most cosine-similar IPs to the query, query excluded.

    Ties break by canonical IP order; k larger than the candidate set is
    clamped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = embeddings.vector(ip)
    scored = [
        (other, cosine(query, embeddings.vector(other)))
        for other in embeddings.ips
        if other != ip
    ]
    scored.sort(key=lambda item: (-item[1], ip_sort_key(item[0])))
    return scored[:k]


def pairwise_report(
    bundle: ModelBundle,
    graphs: Sequence[IntervalGraph],
    pairs: Sequence[tuple[str, str]],
) -> SimilarityReport:
    """Track cosine similarity for chosen IP pairs across interval graphs.

    Each graph where both members appear contributes one sample; the
    summary carries the mean, population standard deviation and sample
    count (pairs that never co-occur keep count 0 and no mean).
    """
    if not pairs:
        raise ValueError("no pairs requested")
    series: dict[tuple[str, str], list[tuple[float, float]]] = {
        tuple(p): [] for p in pairs
    }
    for graph in graphs:
        embeddings = infer_embeddings(bundle, graph)
        present = set(embeddings.ips)
        for pair in series:
            a, b = pair
            if a in present and b in present:
                value = cosine(embeddings.vector(a), embeddings.vector(b))
                series[pair].append((graph.start, value))
    stats: dict[tuple[str, str], tuple[float | None, float | None, int]] = {}
    for pair, samples in series.items():
        if samples:
            values = np.array([v for _, v in samples])
            stats[pair] = (float(values.mean()), float(values.std()), len(samples))
        else:
            stats[pair] = (None, None, 0)
    return SimilarityReport(
        pairs=tuple(tuple(p) for p in pairs),
        series=series,
        stats=stats,
        n_graphs=len(graphs),
    )


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
# CSV exports (floats rendered with repr for lossless, deterministic output)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_embeddings_csv(embeddings: EmbeddingSet, fp: IO[str]) -> None:
    width = embeddings.vectors.shape[1]
    fp.write("ip," + ",".join(f"dim_{i}" for i in range(width)) + "\n")
    for i, ip in enumerate(embeddings.ips):
        fp.write(ip + "," + ",".join(_fmt(v) for v in embeddings.vectors[i]) + "\n")


def write_similarity_csv(report: SimilarityReport, fp: IO[str]) -> None:
    fp.write("pair,interval,cosine\n")
    for pair in report.pairs:
        name = f"{pair[0]}|{pair[1]}"
        for interval, value in report.series[pair]:
            fp.write(f"{name},{_fmt(interval)},{_fmt(value)}\n")
    fp.write("pair,mean,std,count\n")
    for pair in report.pairs:
        mean, std, count = report.stats[pair]
        name = f"{pair[0]}|{pair[1]}"
        if count:
            fp.write(f"{name},{_fmt(mean)},{_fmt(std)},{count}\n")
        else:
            fp.write(f"{name},,,0\n")


def write_projection_csv(
    projection: dict[str, tuple[float, float]], fp: IO[str]
) -> None:
    fp.write("ip,x,y\n")
    for ip in sorted(projection, key=ip_sort_key):
        x, y = projection[ip]
        fp.write(f"{ip},{_fmt(x)},{_fmt(y)}\n")


def write_anomaly_csv(embeddings: EmbeddingSet, fp: IO[str]) -> None:
    fp.write("ip,score\n")
    for ip in embeddings.ips:
        fp.write(f"{ip},{_fmt(embeddings.anomaly[ip])}\n")

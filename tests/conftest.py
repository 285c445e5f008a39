"""Shared builders for the test suite."""

import gc
import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from ipembed.autodiff import log_sigmoid_np
from ipembed.graphs import IntervalGraph
from ipembed.zeek import ConnRecord


def make_record(**kw):
    """ConnRecord with innocuous defaults, overridable per test."""
    base = dict(
        ts=100.0,
        source_ip="10.0.0.1",
        destination_ip="10.0.0.2",
        source_port=40000,
        destination_port=53,
        protocol_service="dns",
        duration=0.05,
        request_bytes=60,
        response_bytes=120,
        bytes=180,
        request_packets=1,
        response_packets=1,
        request_ip_bytes=88,
        response_ip_bytes=148,
    )
    base.update(kw)
    return ConnRecord(**base)


def random_graph(rng, n_nodes=5, n_pairs=6, feat_dim=4, normalized=True):
    """Random undirected-pair graph with mirrored reverse companions.

    Features are uniform in (0.05, 0.95) so BCE targets stay away from the
    saturated ends; the same row is shared by both directions of a pair.
    """
    n_pairs = min(n_pairs, n_nodes * (n_nodes - 1) // 2)
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, n_nodes, 2)
        if a != b:
            pairs.add((int(min(a, b)), int(max(a, b))))
    pairs = sorted(pairs)
    src, dst, rev, feats = [], [], [], []
    for a, b in pairs:
        row = rng.uniform(0.05, 0.95, feat_dim)
        src += [a, b]
        dst += [b, a]
        rev += [0, 1]
        feats += [row, row]
    nodes = tuple(f"10.9.{i // 250}.{i % 250 + 1}" for i in range(n_nodes))
    feats = np.array(feats, dtype=np.float64)
    return IntervalGraph(
        start=0.0,
        end=600.0,
        nodes=nodes,
        edge_src=np.array(src, dtype=np.int32),
        edge_dst=np.array(dst, dtype=np.int32),
        reverse=np.array(rev, dtype=np.uint8),
        raw_features=feats,
        features=feats.copy() if normalized else None,
    )


def two_node_graph(feat, reverse_feat=None):
    """Single pair A<->B with explicit 1-D-per-edge features for hand oracles."""
    feat = np.atleast_1d(np.asarray(feat, dtype=np.float64))
    rfeat = feat if reverse_feat is None else np.atleast_1d(
        np.asarray(reverse_feat, dtype=np.float64)
    )
    feats = np.stack([feat, rfeat])
    return IntervalGraph(
        start=0.0,
        end=600.0,
        nodes=("10.0.0.1", "10.0.0.2"),
        edge_src=np.array([0, 1], dtype=np.int32),
        edge_dst=np.array([1, 0], dtype=np.int32),
        reverse=np.array([0, 1], dtype=np.uint8),
        raw_features=feats,
        features=feats.copy(),
    )


def assert_graphs_equal(a, b):
    """Field-by-field equality of two interval graphs, features included."""
    assert (a.start, a.end, a.nodes) == (b.start, b.end, b.nodes)
    for name in ("edge_src", "edge_dst", "reverse", "raw_features"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert (a.features is None) == (b.features is None)
    if a.features is not None:
        np.testing.assert_array_equal(a.features, b.features)


def rewrite_model_section(path, index, edit):
    """Replace section ``index`` of a model file (0 config, 1 vocab,
    2 scaler) with ``edit(payload_bytes)``.

    Sections follow the 4-byte magic and 2-byte version, each a u64 length
    plus payload.
    """
    blob = path.read_bytes()
    start = 6
    for _ in range(index):
        start += 8 + int.from_bytes(blob[start : start + 8], "little")
    length = int.from_bytes(blob[start : start + 8], "little")
    payload = edit(blob[start + 8 : start + 8 + length])
    path.write_bytes(
        blob[:start]
        + len(payload).to_bytes(8, "little")
        + payload
        + blob[start + 8 + length :]
    )


def rewrite_model_config(path, edit):
    """Replace the JSON config section of a model file with ``edit(doc)``."""
    rewrite_model_section(
        path, 0, lambda raw: json.dumps(edit(json.loads(raw))).encode("utf-8")
    )


def set_array(params, name, value):
    """Overwrite the trainable array ``name`` of ``params`` in place."""
    for existing_name, arr in params.named_arrays():
        if existing_name == name:
            arr[...] = value
            return
    raise KeyError(name)


def reconstruction_loss(targets, probs, weight):
    """Weighted mean binary cross entropy of decoded probabilities, the
    plain-array oracle for the model's reconstruction term.

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


def neighbor_loss(embeddings, recv, send, weight):
    """``-weight * sum over directed edges of log sigmoid(h_recv . h_send)``,
    the plain-array oracle for the model's neighbor term."""
    h = np.asarray(embeddings, dtype=np.float64)
    recv = np.asarray(recv, dtype=np.int64)
    send = np.asarray(send, dtype=np.int64)
    dots = np.einsum("ij,ij->i", h[recv], h[send])
    return float(-weight * log_sigmoid_np(dots).sum())


@contextmanager
def cyclic_gc_off():
    """Run the block with the cyclic garbage collector disabled, so only
    reference counting frees memory inside it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one summary line per acceptance check, bypassing capture.

    Tests opt in by carrying a ``_criterion_label`` attribute (see
    test_acceptance.py); everything else is untouched.
    """
    outcome = yield
    rep = outcome.get_result()
    label = getattr(getattr(item, "function", None), "_criterion_label", None)
    if label is None:
        return
    if rep.when == "call" or (rep.when == "setup" and not rep.passed):
        verdict = "PASS" if rep.passed else "FAIL"
        detail = getattr(item.module, "DETAILS", {}).get(label, "")
        suffix = f": {detail}" if detail else ""
        print(f"[{verdict}] {label}{suffix}", file=sys.__stderr__, flush=True)

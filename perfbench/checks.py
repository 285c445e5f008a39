"""Correctness checks and the attempted/failed ledger behind ``error_rate``.

Each timed public call and each check is one operation. A call fails when it
raises; a check fails when its condition does not hold. The checks here are
written independently of the package code they verify.
"""

from __future__ import annotations

import math

import numpy as np

TOPK_TOL = 1e-12


class Ledger:
    """Counts operations; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        """Run one public call as an operation; a raise counts and propagates."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{getattr(fn, '__qualname__', fn)} raised {exc!r}")
            raise

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what)
        return bool(ok)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# malformed Zeek rows

MALFORMED_SHARE = 0.01


def _corrupt(cells: list[str], kind: int) -> list[str]:
    # Column positions follow the header written by synth.write_zeek_tsv:
    # ts, uid, id.orig_h, id.orig_p, id.resp_h, id.resp_p, proto, service,
    # duration, orig_bytes, ...
    cells = list(cells)
    if kind == 0:
        return cells[:-1]  # column count
    if kind == 1:
        cells[2] = "999.0.0.1"  # unparseable source IP
    elif kind == 2:
        cells[9] = "12x"  # non-integer counter
    elif kind == 3:
        cells[0] = "nan"  # non-finite timestamp
    elif kind == 4:
        cells[5] = "70000"  # port out of range
    else:
        cells[4] = "-"  # required destination unset
    return cells


def inject_malformed(text: str, seed: int) -> tuple[str, int]:
    """Insert corrupted copies of seeded data rows after their originals.

    Returns the new text and the number of rows inserted; every original
    row is kept, so a correct lenient parse emits exactly the original
    records and skips exactly the inserted rows.
    """
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    count = max(1, int(round(len(data) * MALFORMED_SHARE)))
    rng = np.random.default_rng([seed, 0x2EE])
    picks = set(int(i) for i in rng.choice(data, size=count, replace=False))
    kinds = iter(rng.integers(0, 6, size=count))
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i in picks:
            cells = line.rstrip("\n").split("\t")
            out.append("\t".join(_corrupt(cells, int(next(kinds)))) + "\n")
    return "".join(out), count


# ---------------------------------------------------------------------------
# top-k


def brute_force_cosines(vectors: np.ndarray, row: int) -> np.ndarray:
    """Cosine of every row against ``row``; rows with norm below 1e-12 score 0."""
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.sqrt((v * v).sum(axis=1))
    q = v[row]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (v @ q) / (norms * norms[row])
    degenerate = (norms < 1e-12) | (norms[row] < 1e-12)
    return np.clip(np.where(degenerate, 0.0, cos), -1.0, 1.0)


def topk_mismatch(ips, vectors, query: str, k: int, got, sort_key) -> str | None:
    """Compare a top-k answer with a brute-force ranking over the matrix.

    Scores must agree within 1e-12 and the order must be the brute-force
    order (descending cosine, ties by ``sort_key``); two entries whose
    brute-force cosines lie within 1e-12 of each other may swap. Returns a
    description of the first disagreement, or None.
    """
    ips = list(ips)
    row = ips.index(query)
    cos = brute_force_cosines(vectors, row)
    score = {ip: float(cos[i]) for i, ip in enumerate(ips) if i != row}
    expected = sorted(score, key=lambda ip: (-score[ip], sort_key(ip)))[:k]
    if len(got) != len(expected):
        return f"{query}: {len(got)} results, expected {len(expected)}"
    for rank, ((ip, value), want) in enumerate(zip(got, expected)):
        if ip not in score:
            return f"{query}: rank {rank} names unknown or excluded IP {ip}"
        if not math.isfinite(value) or abs(value - score[ip]) > TOPK_TOL:
            return f"{query}: {ip} scored {value!r}, brute force {score[ip]!r}"
        if ip != want and abs(score[ip] - score[want]) > TOPK_TOL:
            return f"{query}: rank {rank} is {ip}, brute force ranks {want} there"
    return None


# ---------------------------------------------------------------------------
# round trips


def graphs_equal(a, b) -> bool:
    """Structure and raw features identical, bit for bit."""
    return (
        a.start == b.start
        and a.end == b.end
        and tuple(a.nodes) == tuple(b.nodes)
        and np.array_equal(a.edge_src, b.edge_src)
        and np.array_equal(a.edge_dst, b.edge_dst)
        and np.array_equal(a.reverse, b.reverse)
        and a.raw_features.shape == b.raw_features.shape
        and a.raw_features.tobytes() == b.raw_features.tobytes()
    )


def bundles_equal(a, b) -> bool:
    """Weights, batch norm buffers, config, vocab and scaler identical."""
    arrays_a = list(a.params.named_arrays()) + list(a.params.named_buffers())
    arrays_b = dict(list(b.params.named_arrays()) + list(b.params.named_buffers()))
    same_arrays = len(arrays_a) == len(arrays_b) and all(
        name in arrays_b
        and arr.shape == arrays_b[name].shape
        and arr.tobytes() == arrays_b[name].tobytes()
        for name, arr in arrays_a
    )
    flags_a = [p.state.initialized for _, p in a.params.bn_pairs()]
    flags_b = [p.state.initialized for _, p in b.params.bn_pairs()]
    return (
        same_arrays
        and flags_a == flags_b
        and a.config == b.config
        and tuple(a.vocab.tokens) == tuple(b.vocab.tokens)
        and a.scaler.log_max.tobytes() == b.scaler.log_max.tobytes()
    )


def all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64)))) for a in arrays)

"""Self-tests of the benchmark harness: ``python3 perfbench/run.py --self-test``.

They check the checkers (a wrong answer must be caught), the metric names,
and that a smoke-sized run of every workload prints every metric. Kept out
of the package's pytest suite on purpose: the smoke runs start processes
and take about a minute.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import run as bench
from checks import Ledger, inject_malformed, topk_mismatch
from tracing import self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_topk_checker_rejects_perturbed_rankings():
    from ipembed.graphs import ip_sort_key
    from ipembed.serving import EmbeddingSet, top_k_similar

    rng = np.random.default_rng(0)
    ips = tuple(f"10.0.0.{i}" for i in range(1, 41))
    vectors = rng.normal(size=(len(ips), 8))
    vectors[7] = vectors[3]  # an exact tie, broken by IP order
    vectors[11] = 0.0  # a degenerate vector scores 0 against everything
    emb = EmbeddingSet(0.0, ips, vectors, np.zeros(0), {})
    for query in ips:
        got = top_k_similar(emb, query, 10)
        assert topk_mismatch(ips, vectors, query, 10, got, ip_sort_key) is None, query

    got = top_k_similar(emb, "10.0.0.1", 10)
    swapped = [got[1], got[0]] + got[2:]
    assert topk_mismatch(ips, vectors, "10.0.0.1", 10, swapped, ip_sort_key)
    nudged = [(got[0][0], got[0][1] - 1e-9)] + got[1:]
    assert topk_mismatch(ips, vectors, "10.0.0.1", 10, nudged, ip_sort_key)
    short = got[:-1]
    assert topk_mismatch(ips, vectors, "10.0.0.1", 10, short, ip_sort_key)
    outsider = got[:-1] + [("10.0.0.1", 1.0)]
    assert topk_mismatch(ips, vectors, "10.0.0.1", 10, outsider, ip_sort_key)


def test_malformed_row_mismatch_raises_error_rate():
    from ipembed.synth import DEFAULT_TRANSPORTS, default_roles, generate, write_zeek_tsv
    from ipembed.zeek import read_conn_log
    from workloads import Run, _check_parse
    from tracing import Tracer

    records = generate(default_roles(4, 1, 1), 600.0, seed=0)
    buffer = io.StringIO()
    write_zeek_tsv(records, buffer, DEFAULT_TRANSPORTS)
    text, injected = inject_malformed(buffer.getvalue(), seed=0)
    parsed, stats = read_conn_log(io.StringIO(text))

    honest = Run(Tracer("selftest", False), Ledger(), 0.0, HERE)
    _check_parse(honest, records, injected, parsed, stats)
    assert honest.ledger.failed == 0 and honest.ledger.attempted == 2

    off_by_one = Run(Tracer("selftest", False), Ledger(), 0.0, HERE)
    _check_parse(off_by_one, records, injected + 1, parsed, stats)
    assert off_by_one.ledger.failed / off_by_one.ledger.attempted > 0


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "timed", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "training.train", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "model.forward", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "serving.project_2d", "parent": 0, "start": 6.0, "end": 7.0},
    ]
    assert self_times(spans) == {"harness": 5.0, "training": 3.0, "model": 1.0, "serving": 1.0}


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = list(bench.END_TO_END) + list(bench.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(listed) == len(set(listed))
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.RESULT_END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.RESULT_PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _run(*args) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = re.match(r"^(\S+) = (\S+) (\S+)", line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    return printed, json.loads(lines[-1])


def test_smoke_runs_emit_every_metric():
    only = {
        "synth.make_experiment_s": ("desk-holdout", "campus-serve"),
        "serving.eval_inductive_ms": ("desk-holdout",),
    }
    for workload in bench.WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--smoke"]
        printed, result = _run(*base, "--trace", "0")
        expected = [n for n, (_, where) in bench.END_TO_END.items() if workload in where]
        assert sorted(printed) == sorted(expected), (workload, sorted(printed))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == list(bench.RESULT_END_TO_END)
        assert result["correct"] and result["failed"] == 0, (workload, result)

        printed, result = _run(*base, "--trace", "1")
        expected = [n for n in bench.PER_LAYER if workload in only.get(n, (workload,))]
        assert sorted(printed) == sorted(expected), (workload, sorted(printed))
        assert list(result["metrics"]) == list(bench.RESULT_PER_LAYER)
        assert result["correct"], (workload, result)
        for name in bench.RESULT_PER_LAYER:
            assert np.isfinite(result["metrics"][name]["value"]), name


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0

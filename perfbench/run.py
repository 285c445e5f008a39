"""ipembed benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload desk-holdout --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload campus-serve --seed 0 --trace 1
    python3 perfbench/run.py --self-test

Run from the repository root. The workload runs in child processes (this
file with ``--child``), one after another, until ``--seconds`` would be
exceeded. A desk-holdout child runs one repetition, so ``peak_rss_mb`` is
one process's peak and a repetition never inherits another's memory.
campus-serve first trains its model in a fixture child, then runs
``WARM_CHILDREN`` children that each repeat the timed part after a warm-up
(see ``workloads.repeat``). ``--trace 0`` reports the end-to-end metrics
as medians over the repetitions. ``--trace 1`` ignores ``--seconds``: it runs
one plain repetition, one traced repetition and one layer probe, prints the
per-layer metrics and writes spans and the per-layer table under
``perfbench/out/``. The last line of standard output is the JSON result.
"""

import os

# Pinned before NumPy can be imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORK_ROOT = HERE / ".work"
WORKLOADS = ("desk-holdout", "campus-serve")
# Workloads whose model is trained by a separate fixture child first.
WITH_FIXTURE = ("campus-serve",)
BUDGET_S = 170.0  # every run must end within 180 s

# Workloads whose children repeat the timed part after a warm-up, and how
# many such children, each set up on its own, share a run. Their first
# touch of a page costs a host-side fault on this kind of virtual machine,
# 0.35 to 1.7 ms per MB from one minute to the next, so the children keep
# freed heap memory for the next repetition instead of handing it back.
# 32 MiB is glibc's largest mmap threshold; larger arrays are still mapped
# and unmapped each time.
WARM = ("campus-serve",)
WARM_CHILDREN = 3
WARM_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20), "MALLOC_TRIM_THRESHOLD_": str(2**40)}

# End-to-end metrics: name -> (unit, workloads it applies to). The JSON
# result carries those every workload has; all are printed above it.
END_TO_END = {
    "setup_s": ("s", WORKLOADS),
    "run_s": ("s", WORKLOADS),
    "peak_rss_mb": ("MB", WORKLOADS),
    "ingest.rows_per_s": ("rows/s", ("campus-serve",)),
    "train.epoch_s": ("s", ("desk-holdout",)),
    "infer.graph_ms": ("ms", ("campus-serve",)),
    "query.topk_ms": ("ms", ("campus-serve",)),
    "query.topk_ms.p99": ("ms", ("campus-serve",)),
    "holdout.margin": ("cosine", ("desk-holdout",)),
    "holdout.win_rate": ("share", ("desk-holdout",)),
    "error_rate": ("share", WORKLOADS),
}
RESULT_END_TO_END = ("setup_s", "run_s", "peak_rss_mb")

# Per-layer metrics of the traced run: name -> unit. Those in
# RESULT_PER_LAYER go into the JSON result; the rest are counts fixed by the
# inputs or apply to one workload, and are printed and written only.
PER_LAYER = {
    "synth.generate_us_per_row": "us/row",
    "synth.write_tsv_us_per_row": "us/row",
    "synth.make_experiment_s": "s",
    "zeek.read_us_per_row": "us/row",
    "zeek.rows_read": "count",
    "zeek.rows_skipped": "count",
    "zeek.emit_ratio": "share",
    "graphs.aggregate_us_per_row": "us/row",
    "graphs.build_ms_per_graph": "ms",
    "graphs.normalize_ms_per_graph": "ms",
    "graphs.fit_scaler_ms": "ms",
    "graphs.nodes_per_graph": "count",
    "graphs.edges_per_graph": "count",
    "graphs.save_graph_ms": "ms",
    "graphs.load_graph_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.segment_sum_ms": "ms",
    "autodiff.gather_rows_ms": "ms",
    "autodiff.linear_ms": "ms",
    "autodiff.tape_nodes": "count",
    "autodiff.eval_tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "autodiff.leaf_copy_mb": "MB",
    "model.forward_ms": "ms",
    "model.eval_forward_ms": "ms",
    **{
        f"model.{part}.{way}_ms": "ms"
        for part in ("input", "conv0", "conv1", "decode", "loss")
        for way in ("fwd", "bwd")
    },
    "training.adam_step_ms": "ms",
    "training.steps": "count",
    "training.retained_mb_per_step": "MB",
    "training.save_model_ms": "ms",
    "training.load_model_ms": "ms",
    "serving.retained_mb_per_graph": "MB",
    "serving.project_2d_ms": "ms",
    "serving.csv_ms": "ms",
    "serving.eval_inductive_ms": "ms",
    "serving.topk_candidates": "count",
    "trace.overhead": "share",
    "trace.train_coverage": "share",
}
NOT_IN_RESULT = {
    "serving.eval_inductive_ms",  # desk-holdout only
    "graphs.nodes_per_graph",
    "graphs.edges_per_graph",
    "autodiff.tape_nodes",
    "autodiff.eval_tape_nodes",
    "training.steps",
    "serving.topk_candidates",
}
RESULT_PER_LAYER = tuple(name for name in PER_LAYER if name not in NOT_IN_RESULT)
COMPUTED = ("autodiff.tape_mb", "autodiff.leaf_copy_mb")  # from array sizes


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


# ---------------------------------------------------------------------------
# child side


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ipembed

    if Path(ipembed.__file__).resolve().parent != SRC / "ipembed":
        raise BenchError(f"imported ipembed from {ipembed.__file__}, not {SRC}")
    from workloads import run_child

    result = run_child(
        args.child,
        args.workload,
        args.seed,
        args.smoke,
        args.spawned_at,
        Path(args.work),
        args.budget,
    )
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def environment() -> dict:
    """Interpreter, NumPy and BLAS as this process sees them."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fp:
            libs = sorted({line.split()[-1] for line in fp if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# parent side


def load1() -> float:
    return os.getloadavg()[0]


def spawn(kind: str, args, deadline: float, budget: float = 0.0) -> dict:
    """Run one child to completion and return its measurements. A child
    given a ``budget`` repeats the timed part for about that many seconds."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(args.work),
        "--budget", repr(budget),
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **WARM_ENV} if budget > 0 else None
    load_before = load1()
    spawned_at = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} repetition of {args.workload} ran past the time budget")
    wall = time.perf_counter() - spawned_at
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{kind} repetition of {args.workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["load1"] = (load_before, load1())
    return result


def median(values) -> float:
    return float(statistics.median(values))


def p99(values) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[98])


def pooled(reps, key) -> list[float]:
    return [x for rep in reps for x in rep["samples"].get(key, [])]


def end_to_end(workload: str, mains: list[dict], fixture: dict | None) -> dict:
    """Every end-to-end metric that applies to the workload: (value, count).
    ``mains`` are the workload's children; set-up and peak RSS are per
    child, the rest per kept repetition. A fixture child's wall time counts
    as set-up of every child."""
    reps = [rep for child in mains for rep in child["reps"]]
    values = lambda key: [rep[key] for rep in reps]
    fixture_s = fixture["wall_s"] if fixture else 0.0
    out = {
        "setup_s": (fixture_s + median([c["reps"][0]["setup_s"] for c in mains]), len(mains)),
        "run_s": (median(values("run_s")), len(reps)),
        "peak_rss_mb": (median([c["peak_rss_mb"] for c in mains]), len(mains)),
    }
    if workload in END_TO_END["train.epoch_s"][1]:
        out["train.epoch_s"] = (median(values("train.epoch_s")), len(reps))
    if workload == "desk-holdout":
        out["holdout.margin"] = (median(values("holdout.margin")), len(reps))
        out["holdout.win_rate"] = (median(values("holdout.win_rate")), len(reps))
    if workload == "campus-serve":
        out["ingest.rows_per_s"] = (median(values("ingest.rows_per_s")), len(reps))
        infer = pooled(mains, "serving.infer_embeddings")
        out["infer.graph_ms"] = (1e3 * median(infer), len(infer))
        topk = pooled(mains, "serving.top_k_similar")
        out["query.topk_ms"] = (1e3 * median(topk), len(topk))
        out["query.topk_ms.p99"] = (1e3 * p99(topk), len(topk))
    children = mains + ([fixture] if fixture else [])
    attempted = sum(child["attempted"] for child in children)
    out["error_rate"] = (sum(child["failed"] for child in children) / attempted, attempted)
    return out


def per_layer(plain: dict, traced: dict, train_plain: dict, train_traced: dict, probe: dict) -> dict:
    """Per-layer metrics of a traced run. ``train_plain``/``train_traced``
    are the children that trained (the fixture children for campus-serve)."""
    ps, pv = probe["samples"], probe["values"]
    ts, tv = train_traced["samples"], train_traced["values"]
    ms = lambda samples, key: 1e3 * median(samples[key])
    rows = pv["zeek.rows_emitted"]
    graphs = pv["graphs.count"]
    aggregate = ps["graphs.aggregate_flows"][0]
    out = {
        "synth.generate_us_per_row": 1e6 * ps["synth.generate"][0] / rows,
        "synth.write_tsv_us_per_row": 1e6 * ps["synth.write_zeek_tsv"][0] / rows,
        "zeek.read_us_per_row": 1e6 * ps["zeek.read_conn_log"][0] / pv["zeek.rows_read"],
        "zeek.rows_read": pv["zeek.rows_read"],
        "zeek.rows_skipped": pv["zeek.rows_skipped"],
        "zeek.emit_ratio": rows / pv["zeek.rows_read"],
        "graphs.aggregate_us_per_row": 1e6 * aggregate / rows,
        "graphs.build_ms_per_graph": 1e3 * (ps["graphs.build_interval_graphs"][0] - aggregate) / graphs,
        "graphs.normalize_ms_per_graph": ms(ps, "graphs.normalize"),
        "graphs.fit_scaler_ms": ms(ps, "graphs.fit_scaler"),
        "graphs.nodes_per_graph": pv["graphs.nodes_per_graph"],
        "graphs.edges_per_graph": pv["graphs.edges_per_graph"],
        "graphs.save_graph_ms": ms(ps, "graphs.save_graph"),
        "graphs.load_graph_ms": ms(ps, "graphs.load_graph"),
        "autodiff.backward_ms": ms(ts, "autodiff.backward"),
        "autodiff.segment_sum_ms": ms(ps, "autodiff.segment_sum"),
        "autodiff.gather_rows_ms": ms(ps, "autodiff.gather_rows"),
        "autodiff.linear_ms": ms(ps, "autodiff.linear"),
        "autodiff.tape_nodes": tv["autodiff.tape_nodes"],
        "autodiff.eval_tape_nodes": pv["autodiff.eval_tape_nodes"],
        "autodiff.tape_mb": pv["autodiff.tape_mb"],
        "autodiff.leaf_copy_mb": pv["autodiff.leaf_copy_mb"],
        "model.forward_ms": ms(ts, "model.forward"),
        "model.eval_forward_ms": ms(ps, "model.eval_forward"),
        "training.adam_step_ms": ms(ts, "training.Adam.step"),
        "training.steps": tv["training.steps"],
        "training.retained_mb_per_step": train_plain["values"]["training.retained_mb_per_step"],
        "training.save_model_ms": ms(ps, "training.save_model"),
        "training.load_model_ms": ms(ps, "training.load_model"),
        "serving.retained_mb_per_graph": pv["serving.retained_mb_per_graph"],
        "serving.project_2d_ms": ms(ps, "serving.project_2d"),
        "serving.csv_ms": ms(ps, "serving.csv"),
        "serving.topk_candidates": pv["serving.topk_candidates"],
        "trace.overhead": traced["values"]["run_s"] / plain["values"]["run_s"] - 1.0,
        "trace.train_coverage": sum(
            sum(ts[key]) for key in ("model.forward", "autodiff.backward", "training.Adam.step")
        ) / train_plain["values"]["training.train_s"],
    }
    for part in ("input", "conv0", "conv1", "decode", "loss"):
        for way in ("fwd", "bwd"):
            out[f"model.{part}.{way}_ms"] = ms(ps, f"model.{part}.{way}")
    if "synth.make_experiment" in ts:
        out["synth.make_experiment_s"] = median(ts["synth.make_experiment"])
    if "synth.eval_inductive" in traced["samples"]:
        out["serving.eval_inductive_ms"] = ms(traced["samples"], "synth.eval_inductive")
    return out


def print_env(reps: list[dict]) -> None:
    """Print the environment and mark the run invalid if the load shows
    that another job shared the cores."""
    env = reps[0]["env"]
    loads = [x for rep in reps for x in rep["load1"]]
    cpus = env["cpu_count"] or 1
    # The child keeps one core busy. Load beyond that, on more than half of
    # the remaining cores, means other work ran beside it; on a 2-core
    # machine whose cores may be hyperthreads of one physical core, that
    # alone slows the child by up to half.
    valid = max(loads) - 1.0 <= (cpus - 1) / 2
    print(
        f"# env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
        f"{env['blas_version']}, blas threads {env['blas_threads']}, cpus {env['cpu_count']}"
    )
    print(
        "# load1 before/after each child: "
        + ", ".join(f"{a:.2f}/{b:.2f}" for a, b in (rep["load1"] for rep in reps))
        + ("" if valid else "  -> INVALID: another job shared the cores")
    )


def print_failures(reps: list[dict]) -> None:
    for rep in reps:
        for message in rep["failures"]:
            print(f"# FAILED [{rep['kind']}]: {message}")


def run_plain(args, start: float) -> dict:
    deadline = start + BUDGET_S
    fixture = spawn("fixture", args, deadline) if args.workload in WITH_FIXTURE else None
    mains = []
    if args.workload in WARM:
        for i in range(WARM_CHILDREN):
            # A tiny budget still buys the warm-up and one kept repetition.
            left = start + args.seconds - time.perf_counter()
            mains.append(spawn("main", args, deadline, max(left / (WARM_CHILDREN - i), 1e-3)))
    else:
        while True:
            mains.append(spawn("main", args, deadline))
            elapsed = time.perf_counter() - start
            if elapsed + max(child["wall_s"] for child in mains) > args.seconds:
                break
    children = mains + ([fixture] if fixture else [])
    print_env(children)
    print_failures(children)
    for i, child in enumerate(mains):
        print(
            f"# child {i}: setup {child['reps'][0]['setup_s']:.3f} s, peak rss "
            f"{child['peak_rss_mb']:.0f} MB, run s (user, sys): "
            + ", ".join(
                f"{rep['run_s']:.3f} ({rep['run_user_s']:.3f}, {rep['run_sys_s']:.3f})"
                for rep in child["reps"]
            )
        )
    metrics = end_to_end(args.workload, mains, fixture)
    for name, (value, count) in metrics.items():
        print(f"{name} = {value!r} {END_TO_END[name][0]} (n={count})")
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    print(f"# operations: {attempted} attempted, {failed} failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": END_TO_END[name][0]}
            for name in RESULT_END_TO_END
        },
    }


def run_traced(args, start: float) -> dict:
    from tracing import self_times, write_jsonl

    deadline = start + BUDGET_S
    fixture = args.workload in WITH_FIXTURE
    fixture_plain = spawn("fixture", args, deadline) if fixture else None
    plain = spawn("main", args, deadline)
    fixture_traced = spawn("fixture-traced", args, deadline) if fixture else None
    traced = spawn("main-traced", args, deadline)
    probe = spawn("probe", args, deadline)
    children = [c for c in (fixture_plain, plain, fixture_traced, traced, probe) if c]
    print_env(children)
    print_failures(children)
    for child in children:
        print(f"# child {child['kind']}: wall {child['wall_s']:.3f} s, peak rss {child['peak_rss_mb']:.0f} MB")
    metrics = per_layer(
        plain, traced, fixture_plain or plain, fixture_traced or traced, probe
    )

    # Span ids and parents are per child; the run id tells children apart.
    layers: dict[str, float] = {}
    for child in (fixture_traced, traced):
        for layer, seconds in self_times(child["spans"] if child else []).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
    total = sum(layers.values())
    print(f"# self time per layer, traced {args.workload} repetition:")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"#   {layer:<10} {seconds:9.4f} s  {100 * seconds / total:5.1f}%")
    for name, value in metrics.items():
        note = " (computed from array sizes, not measured)" if name in COMPUTED else ""
        print(f"{name} = {value!r} {PER_LAYER[name]}{note}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    write_jsonl([span for child in children for span in child["spans"]], f"{stem}.spans.jsonl")
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as fp:
        json.dump(
            {
                "self_time_s": layers,
                "metrics": {n: {"value": v, "unit": PER_LAYER[n]} for n, v in metrics.items()},
                "env": traced["env"],
            },
            fp,
            indent=2,
            sort_keys=True,
        )
    print(f"# spans and per-layer table written to {stem}.spans.jsonl and {stem}.layers.json")
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    print(f"# operations: {attempted} attempted, {failed} failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": PER_LAYER[name]} for name in RESULT_PER_LAYER
        },
    }


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument(
        "--child",
        choices=("fixture", "fixture-traced", "main", "main-traced", "probe"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.self_test:
        sys.path.insert(0, str(HERE))
        from selftest import main as selftest_main

        return selftest_main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.child:
            return child_main(args)
        if not (SRC / "ipembed" / "__init__.py").is_file():
            raise BenchError(f"package source not found under {SRC}")
        # On SIGTERM, unwind: subprocess.run then kills and reaps the child.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        args.work = WORK_ROOT / str(os.getpid())
        args.work.mkdir(parents=True)
        try:
            result = run_traced(args, start) if args.trace else run_plain(args, start)
        finally:
            shutil.rmtree(args.work, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

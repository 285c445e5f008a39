"""The benchmark's workloads, the training replay and the layer probes.

Every call into the package goes through :meth:`Run.call`, which counts it as
an operation, times it and, in a traced run, wraps it in a span named after
the module and function it calls. Only public functions are called. Two
pieces of package logic are copied: the training loop, which a traced run
replays in place of ``train()`` so that forward, backward and the optimizer
step can be timed from outside, and the assembly of the two loss terms,
which the layer probe times on its own. ``autodiff.tape_mb`` reads the
tape's node list, the one private attribute used.
"""

from __future__ import annotations

import gc
import io
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ipembed import autodiff as ad
from ipembed.graphs import (
    aggregate_flows,
    build_interval_graphs,
    fit_protocol_vocab,
    fit_scaler,
    ip_sort_key,
    load_graph,
    normalize,
    save_graph,
    validate_graph,
)
from ipembed.model import (
    GraphTensors,
    ModelConfig,
    conv_layer,
    decode,
    edge_dim_for_vocab,
    forward,
    init_params,
    input_layer,
)
from ipembed.serving import (
    infer_embeddings,
    project_2d,
    top_k_similar,
    write_anomaly_csv,
    write_embeddings_csv,
)
from ipembed.synth import (
    DEFAULT_TRANSPORTS,
    default_roles,
    eval_inductive,
    generate,
    make_experiment,
    write_zeek_tsv,
)
from ipembed.training import (
    Adam,
    ModelBundle,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from ipembed.zeek import read_conn_log

from checks import (
    Ledger,
    all_finite,
    bundles_equal,
    graphs_equal,
    inject_malformed,
    topk_mismatch,
)
from tracing import Tracer

INTERVAL = 600.0
TOP_K = 10
DESK_ROLES = (32, 4, 6)
CAMPUS_ROLES = (250, 25, 56)
WIN_COSINE = 0.9
WIN_MARGIN = 0.2
WIN_RATE_TARGET = 0.9
MODEL_FILE = "model.ipgm"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``roles`` is (clients, dns servers, web
    servers); ``duration`` is seconds of generated traffic; ``epochs`` is the
    training length of the workload's ``train()`` call; ``topk_queries`` is
    the seeded sample of query IPs per served graph; ``probe_repeats`` is how
    often a layer probe repeats each measurement."""

    roles: tuple[int, int, int]
    duration: float
    epochs: int
    topk_queries: int
    probe_repeats: int


SPECS = {
    "desk-holdout": Spec(DESK_ROLES, 7200.0, 20, 40, 5),
    "campus-serve": Spec(CAMPUS_ROLES, 1800.0, 3, 300, 1),
}

# Same code paths at sizes small enough for the harness self-test.
SMOKE_SPECS = {
    "desk-holdout": Spec(DESK_ROLES, 7200.0, 6, 10, 1),
    "campus-serve": Spec((30, 3, 6), 1200.0, 2, 10, 1),
}


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fp:
        pages = int(fp.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One child process's measurements: per-call samples, single values,
    the values of each kept repetition, the operation ledger and the
    tracer."""

    def __init__(self, tracer: Tracer, ledger: Ledger, spawned_at: float, work: Path):
        self.tracer = tracer
        self.ledger = ledger
        self.spawned_at = spawned_at
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.reps: list[dict[str, float]] = []
        self.work = work

    def call(self, name: str, fn, *args, key: str | None = None, **kwargs):
        """Call ``fn`` as one operation inside a span called ``name``; its
        wall time is appended to the samples under ``key`` (default name)."""
        with self.tracer.span(name):
            start = time.perf_counter()
            out = self.ledger.call(fn, *args, **kwargs)
            self.samples[key or name].append(time.perf_counter() - start)
        return out

    def check(self, ok: bool, what: str) -> bool:
        return self.ledger.check(ok, what)

    @contextmanager
    def timed(self):
        """The timed part: ``setup_s`` ends where it first starts; ``run_s``
        is its wall time, with the user and system CPU seconds beside it."""
        with self.tracer.span("timed"):
            usage = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            self.values.setdefault("setup_s", start - self.spawned_at)
            yield
            self.values["run_s"] = time.perf_counter() - start
            end = resource.getrusage(resource.RUSAGE_SELF)
            self.values["run_user_s"] = end.ru_utime - usage.ru_utime
            self.values["run_sys_s"] = end.ru_stime - usage.ru_stime


# ---------------------------------------------------------------------------
# training: the public call, or its replay when traced


def train_model(run: Run, graphs, config: ModelConfig, tc: TrainConfig, replay: bool):
    """Train as ``train()`` does and record the training-layer values.

    Returns (params, per-epoch mean losses)."""
    rss_before = current_rss_mb()
    start = time.perf_counter()
    if replay:
        params, losses = _replay(run, graphs, config, tc)
    else:
        params, history = run.call("training.train", train, graphs, config, tc)
        losses = list(history.loss)
    wall = time.perf_counter() - start
    steps = len(losses) * len(graphs)
    run.values["training.train_s"] = wall
    run.values["training.epochs"] = len(losses)
    run.values["training.steps"] = steps
    run.values["training.retained_mb_per_step"] = (current_rss_mb() - rss_before) / steps
    run.check(all_finite(losses), "training losses are finite")
    run.check(
        all_finite(*(arr for _, arr in params.named_arrays())), "trained weights are finite"
    )
    return params, losses


def _replay(run: Run, graphs, config: ModelConfig, tc: TrainConfig):
    """The steps ``train()`` takes, with each forward, backward and Adam
    step called and timed separately. Best-epoch bookkeeping is not
    replayed; the last weights are returned."""
    tensors = [GraphTensors.from_graph(g) for g in graphs]
    params = init_params(config, seed=tc.seed)
    optimizer = Adam(lr=tc.learning_rate, beta1=tc.beta1, beta2=tc.beta2, eps=tc.adam_eps)
    rng = np.random.default_rng(tc.seed)
    losses = []
    for _ in range(tc.epochs):
        total = 0.0
        for index in rng.permutation(len(tensors)):
            result = run.call(
                "model.forward", forward, params, config, tensors[int(index)], mode="train"
            )
            total += result.loss.item()
            run.call("autodiff.backward", ad.backward, result.loss)
            grads = {name: leaf.grad for name, leaf in result.leaves.items()}
            run.call("training.Adam.step", optimizer.step, params.named_arrays(), grads)
            run.values["autodiff.tape_nodes"] = len(result.loss.tape)
        losses.append(total / len(tensors))
    return params, losses


def _experiment(run: Run, seed: int):
    return run.call(
        "synth.make_experiment",
        make_experiment,
        default_roles(*DESK_ROLES),
        duration=7200.0,
        interval_len=INTERVAL,
        holdout_fraction=0.25,
        train_fraction=0.7,
        seed=seed,
    )


def _config(vocab) -> ModelConfig:
    return ModelConfig(edge_dim=edge_dim_for_vocab(vocab.size))


def _train_config(epochs: int, seed: int) -> TrainConfig:
    # patience >= epochs: early stopping never changes the amount of work.
    return TrainConfig(epochs=epochs, seed=seed, patience=epochs)


# ---------------------------------------------------------------------------
# workloads


def desk_holdout(run: Run, spec: Spec, seed: int, replay: bool):
    """The paper's inductive experiment at desk scale: train, then score
    the held-out IPs against their role. Sets up and returns the
    repetition."""
    exp = _experiment(run, seed)
    config = _config(exp.vocab)

    def repetition() -> None:
        with run.timed():
            params, _ = train_model(
                run, exp.train_graphs, config, _train_config(spec.epochs, seed), replay
            )
            bundle = ModelBundle(params, config, exp.vocab, exp.scaler)
            result = run.call(
                "synth.eval_inductive",
                eval_inductive,
                bundle,
                exp.train_graphs,
                exp.test_graphs,
                exp.holdout_ips,
                exp.in_role_ips,
                exp.out_role_ips,
            )
        run.values["train.epoch_s"] = run.values["training.train_s"] / run.values["training.epochs"]
        wins = sum(
            1 for _, in_mean, _, margin in result.per_graph
            if in_mean >= WIN_COSINE and margin >= WIN_MARGIN
        )
        run.values["holdout.margin"] = result.margin_mean
        run.values["holdout.win_rate"] = wins / result.n_graphs
        run.check(
            all_finite([row[1:] for row in result.per_graph]), "holdout cosines are finite"
        )
        run.check(
            run.values["holdout.win_rate"] >= WIN_RATE_TARGET,
            f"holdout win rate {wins}/{result.n_graphs} is below {WIN_RATE_TARGET}",
        )

    return repetition


def serve_fixture(run: Run, spec: Spec, seed: int, replay: bool) -> None:
    """campus-serve's model: a desk model trained for a few epochs, saved
    to the work directory. It runs in its own process so that the training
    tapes it leaves behind do not decide the serving process's peak RSS."""
    exp = _experiment(run, seed)
    config = _config(exp.vocab)
    params, _ = train_model(
        run, exp.train_graphs, config, _train_config(spec.epochs, seed), replay
    )
    _round_trip_model(run, ModelBundle(params, config, exp.vocab, exp.scaler))


def campus_serve(run: Run, spec: Spec, seed: int, replay: bool):
    """Ingest a campus conn.log, store its graphs, and serve the desk-trained
    fixture model on the newest one, as the README's library example does.
    Sets up and returns the repetition.

    One graph is served per repetition: how many earlier inference tapes are
    still held when the next is built depends on when the cyclic garbage
    collector happens to run, which would make peak RSS vary with the seed.
    """
    records, text, injected = _zeek_log(run, spec, seed)
    bundle = run.call("training.load_model", load_model, run.work / MODEL_FILE)

    def repetition() -> None:
        with run.timed():
            start = time.perf_counter()
            parsed, stats = run.call("zeek.read_conn_log", read_conn_log, io.StringIO(text))
            graphs = run.call(
                "graphs.build_interval_graphs", build_interval_graphs, parsed, INTERVAL, bundle.vocab
            )
            graphs = [run.call("graphs.normalize", normalize, g, bundle.scaler) for g in graphs]
            ingest_s = time.perf_counter() - start
            loaded = []
            for i, graph in enumerate(graphs):
                path = run.work / f"graph_{i}.ipgr"
                run.call("graphs.save_graph", save_graph, graph, path)
                loaded.append(run.call("graphs.load_graph", load_graph, path))
            rss_before = current_rss_mb()
            emb = run.call("serving.infer_embeddings", infer_embeddings, bundle, graphs[-1])
            retained = current_rss_mb() - rss_before
            answers = _top_k(run, emb, spec.topk_queries, np.random.default_rng([seed, 1]))
            projection = run.call("serving.project_2d", project_2d, emb)
            _write_csvs(run, emb)

        run.values["ingest.rows_per_s"] = stats.read / ingest_s
        run.values["serving.retained_mb_per_graph"] = retained
        _check_parse(run, records, injected, parsed, stats)
        for graph, copy in zip(graphs, loaded):
            _check_graph_round_trip(run, graph, copy)
        _check_served(run, emb, answers, projection)

    return repetition


# ---------------------------------------------------------------------------
# layer probes: one sweep over every layer at the workload's scale


def probe(run: Run, spec: Spec, seed: int) -> None:
    """Call each module's public functions once (or ``probe_repeats``
    times) on this workload's data, so every workload reports the same
    per-layer metrics."""
    records, text, injected = _zeek_log(run, spec, seed)
    parsed, stats = run.call("zeek.read_conn_log", read_conn_log, io.StringIO(text))
    _check_parse(run, records, injected, parsed, stats)
    run.values["zeek.rows_read"] = stats.read
    run.values["zeek.rows_skipped"] = stats.skipped
    run.values["zeek.rows_emitted"] = stats.emitted

    vocab = fit_protocol_vocab(
        run.call("graphs.aggregate_flows", aggregate_flows, parsed, INTERVAL)
    )
    raw = run.call("graphs.build_interval_graphs", build_interval_graphs, parsed, INTERVAL, vocab)
    scaler = run.call("graphs.fit_scaler", fit_scaler, raw)
    graphs = [run.call("graphs.normalize", normalize, g, scaler) for g in raw]
    run.values["graphs.count"] = len(graphs)
    run.values["graphs.nodes_per_graph"] = float(np.mean([g.n_nodes for g in graphs]))
    run.values["graphs.edges_per_graph"] = float(np.mean([g.n_edges for g in graphs]))
    for i, graph in enumerate(graphs):
        path = run.work / f"graph_{i}.ipgr"
        run.call("graphs.save_graph", save_graph, graph, path)
        _check_graph_round_trip(run, graph, run.call("graphs.load_graph", load_graph, path))

    graph = graphs[0]
    gt = GraphTensors.from_graph(graph)
    config = _config(vocab)
    params = init_params(config, seed=seed)
    params.mark_bn_initialized()  # eval mode needs running statistics
    run.values["autodiff.leaf_copy_mb"] = (
        sum(arr.nbytes for _, arr in params.named_arrays()) + gt.feats.nbytes
    ) / 2**20

    # Serving first, while no earlier tape is waiting for the collector: a
    # collection during the call would free it and hide the call's growth.
    bundle = _round_trip_model(run, ModelBundle(params, config, vocab, scaler), "probe.ipgm")
    rss_before = current_rss_mb()
    emb = run.call("serving.infer_embeddings", infer_embeddings, bundle, graph)
    run.values["serving.retained_mb_per_graph"] = current_rss_mb() - rss_before
    answers = _top_k(run, emb, spec.topk_queries, np.random.default_rng([seed, 1]))
    projection = run.call("serving.project_2d", project_2d, emb)
    _write_csvs(run, emb)
    _check_served(run, emb, answers, projection)
    run.values["serving.topk_candidates"] = len(emb.ips) - 1

    for _ in range(spec.probe_repeats):
        _probe_model(run, params, config, gt)
    for _ in range(spec.probe_repeats):
        _probe_ops(run, gt, config.hidden, np.random.default_rng([seed, 2]))


def _probe_model(run: Run, params, config: ModelConfig, gt: GraphTensors) -> None:
    """Forward and backward per model part, each on its own tape; a part's
    backward starts from the sum of all its outputs."""
    full = run.call("model.forward", forward, params, config, gt, mode="train")
    run.values["autodiff.tape_nodes"] = len(full.loss.tape)
    # Computed from array sizes: the forward values recorded on the tape.
    run.values["autodiff.tape_mb"] = sum(
        node.tensor.data.nbytes for node in full.loss.tape._nodes
    ) / 2**20

    h, edges, gates = run.call(
        "model.input_layer", input_layer, params, config, gt, mode="train", key="model.input.fwd"
    )
    _backward_of_sum(run, "model.input.bwd", h, edges, gates)
    for layer in range(config.layers):
        h, edges, gates = run.call(
            "model.conv_layer", conv_layer, params, config, gt, h.data, edges.data, layer,
            mode="train", key=f"model.conv{layer}.fwd",
        )
        _backward_of_sum(run, f"model.conv{layer}.bwd", h, edges, gates)
    decoded = run.call(
        "model.decode", decode, params, config, gt, h.data, edges.data, key="model.decode.fwd"
    )
    _backward_of_sum(run, "model.decode.bwd", decoded)

    # The two loss terms as forward() assembles them, on the logits and
    # embeddings of the full pass.
    tape = ad.Tape()
    start = time.perf_counter()
    logits = tape.leaf(full.logits.data)
    h = tape.leaf(full.node_states.data)
    recon = ad.scalar_mul(ad.bce_with_logits_mean(logits, gt.feats), config.lambda_recon)
    dots = ad.row_sums(ad.hadamard(ad.gather_rows(h, gt.recv), ad.gather_rows(h, gt.send)))
    neighbor = ad.scalar_mul(ad.sum_all(ad.log_sigmoid(dots)), -config.lambda_neighbor)
    loss = ad.add(recon, neighbor)
    run.samples["model.loss.fwd"].append(time.perf_counter() - start)
    run.call("autodiff.backward", ad.backward, loss, key="model.loss.bwd")

    evaluated = run.call(
        "model.forward", forward, params, config, gt, mode="eval", key="model.eval_forward"
    )
    run.values["autodiff.eval_tape_nodes"] = len(evaluated.loss.tape)


def _backward_of_sum(run: Run, key: str, *outputs) -> None:
    total = ad.sum_all(outputs[0])
    for out in outputs[1:]:
        total = ad.add(total, ad.sum_all(out))
    run.call("autodiff.backward", ad.backward, total, key=key)


def _probe_ops(run: Run, gt: GraphTensors, hidden: int, rng) -> None:
    """segment_sum, gather_rows and linear at the graph's E x H and n
    shapes; each sample is forward plus backward through a sum."""
    n, e = gt.n_nodes, len(gt.recv)
    cases = (
        ("autodiff.segment_sum", lambda t: ad.segment_sum(t.leaf(rng.random((e, hidden))), gt.recv, n)),
        ("autodiff.gather_rows", lambda t: ad.gather_rows(t.leaf(rng.random((n, hidden))), gt.send)),
        (
            "autodiff.linear",
            lambda t: ad.linear(t.leaf(rng.random((e, hidden))), t.leaf(rng.random((hidden, hidden)))),
        ),
    )
    for name, build in cases:
        tape = ad.Tape()
        with run.tracer.span(name):
            start = time.perf_counter()
            out = run.ledger.call(build, tape)
            run.ledger.call(ad.backward, ad.sum_all(out))
            run.samples[name].append(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# shared steps and checks


def _zeek_log(run: Run, spec: Spec, seed: int):
    """Generated records, their Zeek TSV with malformed rows inserted, and
    the number of rows inserted."""
    records = run.call("synth.generate", generate, default_roles(*spec.roles), spec.duration, seed)
    buffer = io.StringIO()
    run.call("synth.write_zeek_tsv", write_zeek_tsv, records, buffer, DEFAULT_TRANSPORTS)
    text, injected = inject_malformed(buffer.getvalue(), seed)
    return records, text, injected


def _round_trip_model(run: Run, bundle: ModelBundle, name: str = MODEL_FILE) -> ModelBundle:
    path = run.work / name
    run.call("training.save_model", save_model, bundle, path)
    loaded = run.call("training.load_model", load_model, path)
    run.check(bundles_equal(bundle, loaded), "model round trip is bit-exact")
    return loaded


def _top_k(run: Run, emb, count: int, rng):
    picks = rng.choice(len(emb.ips), size=min(count, len(emb.ips)), replace=False)
    return [
        (emb.ips[i], run.call("serving.top_k_similar", top_k_similar, emb, emb.ips[i], TOP_K))
        for i in sorted(int(p) for p in picks)
    ]


def _write_csvs(run: Run, emb) -> None:
    with run.tracer.span("serving.csv"):
        start = time.perf_counter()
        run.ledger.call(write_embeddings_csv, emb, io.StringIO())
        run.ledger.call(write_anomaly_csv, emb, io.StringIO())
        run.samples["serving.csv"].append(time.perf_counter() - start)


def _check_parse(run: Run, records, injected: int, parsed, stats) -> None:
    run.check(
        stats.emitted == len(records) and parsed == records,
        f"zeek emitted {stats.emitted} rows, {len(records)} generated",
    )
    run.check(
        stats.skipped == injected and stats.read == len(records) + injected,
        f"zeek skipped {stats.skipped} of {stats.read} rows, {injected} injected",
    )


def _check_graph_round_trip(run: Run, graph, loaded) -> None:
    run.check(graphs_equal(graph, loaded), f"graph at {graph.start} survives save/load")
    try:
        validate_graph(loaded)
    except ValueError as exc:
        run.check(False, f"graph at {graph.start} fails validation: {exc}")
    else:
        run.check(True, f"graph at {graph.start} validates")


def _check_served(run: Run, emb, answers, projection) -> None:
    run.check(
        all_finite(emb.vectors, emb.edge_errors, list(emb.anomaly.values())),
        f"embeddings and anomaly scores at {emb.interval} are finite",
    )
    run.check(
        all_finite(list(projection.values())) and set(projection) == set(emb.ips),
        f"projection at {emb.interval} is finite and covers every IP",
    )
    for ip, got in answers:
        problem = topk_mismatch(emb.ips, emb.vectors, ip, TOP_K, got, ip_sort_key)
        run.check(problem is None, f"top-k matches brute force: {problem}")


WORKLOADS = {
    "desk-holdout": desk_holdout,
    "campus-serve": campus_serve,
}


def repeat(run: Run, repetition, budget_s: float) -> None:
    """Run the timed part once, or, given a budget, once as a warm-up and
    then again while the next repetition is expected to end within
    ``budget_s`` of the process start, at least once. The warm-up's values
    and call samples are dropped; each kept repetition's values go to
    ``run.reps``.

    Between repetitions the harness collects garbage, so that each starts
    with the previous one's tapes freed, as a fresh process would; inside a
    repetition the collector runs only when Python decides.
    """
    repetition()
    if budget_s <= 0:
        run.reps.append(dict(run.values))
        return
    run.samples.clear()
    while True:
        gc.collect()
        start = time.perf_counter()
        repetition()
        run.reps.append(dict(run.values))
        now = time.perf_counter()
        if now - run.spawned_at + (now - start) > budget_s:
            return


def run_child(
    kind: str,
    workload: str,
    seed: int,
    smoke: bool,
    spawned_at: float,
    work: Path,
    budget_s: float = 0.0,
) -> dict:
    """Run one stage in this process and return its measurements. ``kind``
    is ``fixture`` (campus-serve's model), ``main`` (the workload's
    repetitions, see :func:`repeat`) or ``probe`` (the layer probe);
    ``traced`` turns on spans and the training replay."""
    spec = (SMOKE_SPECS if smoke else SPECS)[workload]
    stage, _, traced = kind.partition("-")
    run = Run(Tracer(f"{workload}/{seed}/{kind}/{os.getpid()}", bool(traced)), Ledger(), spawned_at, work)
    if stage == "probe":
        probe(run, spec, seed)
    elif stage == "fixture":
        serve_fixture(run, spec, seed, replay=bool(traced))
    else:
        repeat(run, WORKLOADS[workload](run, spec, seed, replay=bool(traced)), budget_s)
    return {
        "kind": kind,
        "values": run.values,
        "reps": run.reps,
        "samples": dict(run.samples),
        "spans": run.tracer.spans,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "failures": run.ledger.failures,
        "peak_rss_mb": peak_rss_mb(),
    }

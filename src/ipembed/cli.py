"""Command line pipeline: ingest, build graphs, train, embed, query.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
inputs), 3 numeric failure (diverged training). All progress goes to
standard error; results go to the declared output paths or standard out.

Every subcommand accepts ``--config FILE`` with ``key=value`` lines naming
long flags (dashes or underscores); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .binio import FormatError
from .graphs import (
    ProtocolVocab,
    aggregate_flows,
    drop_nodes,
    fit_protocol_vocab,
    fit_scaler,
    iter_interval_graphs,
    load_graph,
    load_graph_dir,
    normalize,
    resolve_origin,
    save_graph,
)
from .model import ModelConfig, edge_dim_for_vocab
from .serving import (
    infer_embeddings,
    pairwise_report,
    project_2d,
    top_k_similar,
    write_anomaly_csv,
    write_embeddings_csv,
    write_projection_csv,
    write_similarity_csv,
)
from .synth import (
    DEFAULT_TRANSPORTS,
    default_roles,
    eval_inductive,
    generate,
    make_experiment,
    write_zeek_tsv,
)
from .training import (
    ModelBundle,
    TrainConfig,
    TrainingDivergedError,
    filter_holdout,
    load_model,
    save_model,
    train,
)
from .zeek import ParseError, parse_conn_log, read_conn_log, write_canonical_tsv

__all__ = ["run", "main", "sweep"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _read_config_pairs(path: str) -> list[tuple[str, str]]:
    pairs = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config into flags placed before the user's own flags so the
    command line wins on conflict."""
    if not argv or "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    injected: list[str] = []
    for key, value in _read_config_pairs(argv[at + 1]):
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(flag)
        else:
            injected.extend([flag, value])
    return [argv[0], *injected, *argv[1:]]


def _ip_list(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _pair_list(raw: str) -> list[tuple[str, str]]:
    pairs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise UsageError(f"bad pair {token!r}; expected ip:ip")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise UsageError("no pairs given")
    return pairs


@contextmanager
def _output(path: str | None):
    """Text stream for ``--out``: the file, or standard out for ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp


def _load_vocab(path: Path) -> ProtocolVocab:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return ProtocolVocab(tuple(doc["tokens"]))


def _model_config(args, vocab: ProtocolVocab) -> ModelConfig:
    return ModelConfig(
        edge_dim=edge_dim_for_vocab(vocab.size),
        hidden=args.hidden,
        layers=args.layers,
        decoder_hidden=args.decoder_hidden,
        lambda_recon=args.lambda_recon,
        lambda_neighbor=args.lambda_neighbor,
    )


def _embed_graph(args):
    """Load ``--model`` and ``--graph``; return the graph and its embeddings."""
    bundle = load_model(args.model)
    graph = load_graph(args.graph)
    return graph, infer_embeddings(bundle, graph)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    records, stats = parse_conn_log(args.input, args.format, args.strict)
    with _output(args.out) as fp:
        write_canonical_tsv(records, fp)
    _log(
        f"ingest: read {stats.read} rows, emitted {stats.emitted}, "
        f"skipped {stats.skipped}"
    )
    return 0


def _cmd_build_graphs(args) -> int:
    records, stats = read_conn_log(args.input, args.format, args.strict)
    if args.holdout:
        records = filter_holdout(records, _ip_list(args.holdout))
    if not records:
        raise ValueError("no usable records in input")
    origin = args.origin if args.origin is not None else resolve_origin(
        records, args.interval
    )
    aggregates = aggregate_flows(records, args.interval, origin)
    if args.vocab:
        vocab = _load_vocab(Path(args.vocab))
    else:
        vocab = fit_protocol_vocab(aggregates)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, graph in iter_interval_graphs(aggregates, vocab, args.interval, origin):
        save_graph(graph, out_dir / f"graph_{idx:06d}.ipgr")
    (out_dir / "vocab.json").write_text(
        json.dumps({"tokens": list(vocab.tokens)}), encoding="utf-8"
    )
    _log(
        f"build-graphs: {len(aggregates)} graphs from {stats.emitted} records "
        f"(skipped {stats.skipped}) into {out_dir}"
    )
    return 0


def _cmd_train(args) -> int:
    graphs_dir = Path(args.graphs)
    graphs = load_graph_dir(graphs_dir)
    vocab_path = Path(args.vocab) if args.vocab else graphs_dir / "vocab.json"
    if not vocab_path.exists():
        raise FileNotFoundError(f"vocab file {vocab_path} not found")
    vocab = _load_vocab(vocab_path)
    if args.holdout:
        kept = []
        for graph in graphs:
            filtered = drop_nodes(graph, _ip_list(args.holdout))
            if filtered is not None:
                kept.append(filtered)
        graphs = kept
    if not graphs:
        raise ValueError("no training graphs left after holdout filtering")
    if graphs[0].feat_dim != edge_dim_for_vocab(vocab.size) - 1:
        raise ValueError(
            f"graph feature dim {graphs[0].feat_dim} does not match vocab "
            f"size {vocab.size}"
        )
    scaler = fit_scaler(graphs)
    graphs = [normalize(g, scaler) for g in graphs]
    config = _model_config(args, vocab)
    train_config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
        shuffle=not args.no_shuffle,
        patience=args.patience,
        min_delta=args.min_delta,
    )
    params, history = train(
        graphs, config, train_config, log=_log, vocab=vocab, scaler=scaler
    )
    save_model(ModelBundle(params, config, vocab, scaler), args.out)
    _log(
        f"train: {len(history)} epochs, best loss {min(history.loss)!r}, "
        f"model written to {args.out}"
    )
    return 0


def _cmd_embed(args) -> int:
    _, embeddings = _embed_graph(args)
    with _output(args.out) as fp:
        write_embeddings_csv(embeddings, fp)
    _log(f"embed: {len(embeddings.ips)} IPs from {args.graph}")
    return 0


def _cmd_similar(args) -> int:
    _, embeddings = _embed_graph(args)
    ranked = top_k_similar(embeddings, args.ip, args.k)
    with _output(args.out) as fp:
        fp.write("ip,cosine\n")
        for ip, value in ranked:
            fp.write(f"{ip},{value!r}\n")
    return 0


def _cmd_report(args) -> int:
    bundle = load_model(args.model)
    graphs = load_graph_dir(args.graphs)
    report = pairwise_report(bundle, graphs, _pair_list(args.pairs))
    with _output(args.out) as fp:
        write_similarity_csv(report, fp)
    _log(f"report: {len(report.pairs)} pairs over {report.n_graphs} graphs")
    return 0


def _cmd_anomaly(args) -> int:
    graph, embeddings = _embed_graph(args)
    with _output(args.out) as fp:
        write_anomaly_csv(embeddings, fp)
    if args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as efp:
            efp.write("source,destination,reverse,error\n")
            for k in range(graph.n_edges):
                efp.write(
                    f"{graph.nodes[graph.edge_src[k]]},"
                    f"{graph.nodes[graph.edge_dst[k]]},"
                    f"{int(graph.reverse[k])},"
                    f"{embeddings.edge_errors[k]!r}\n"
                )
    return 0


def _cmd_project(args) -> int:
    _, embeddings = _embed_graph(args)
    projection = project_2d(embeddings)
    with _output(args.out) as fp:
        write_projection_csv(projection, fp)
    return 0


def _cmd_synth(args) -> int:
    roles = default_roles(
        clients=args.clients, dns_servers=args.dns_servers, web_servers=args.web_servers
    )
    records = generate(roles, args.duration, args.seed)
    with _output(args.out) as fp:
        count = write_zeek_tsv(records, fp, DEFAULT_TRANSPORTS)
    _log(f"synth: {count} flows over {args.duration} seconds")
    return 0


def _run_holdout(args, interval_len: float, out_dir: Path) -> dict:
    exp = make_experiment(
        holdout_fraction=args.holdout_fraction,
        interval_len=interval_len,
        seed=args.seed,
        duration=args.duration,
    )
    config = _model_config(args, exp.vocab)
    train_config = TrainConfig(
        epochs=args.epochs, learning_rate=args.learning_rate, seed=args.seed
    )
    params, history = train(exp.train_graphs, config, train_config, log=_log)
    bundle = ModelBundle(params, config, exp.vocab, exp.scaler)
    result = eval_inductive(
        bundle,
        exp.train_graphs,
        exp.test_graphs,
        exp.holdout_ips,
        exp.in_role_ips,
        exp.out_role_ips,
    )
    path = out_dir / f"holdout_{int(interval_len)}.csv"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("interval,in_role_cosine,out_role_cosine,margin\n")
        for interval, in_mean, out_mean, margin in result.per_graph:
            fp.write(f"{interval!r},{in_mean!r},{out_mean!r},{margin!r}\n")
    in_values = np.array([v for _, v, _, _ in result.per_graph])
    return {
        "interval_length": interval_len,
        "mean": float(in_values.mean()),
        "std": float(in_values.std()),
        "n_graphs": result.n_graphs,
        "margin_mean": result.margin_mean,
        "status": "OK",
    }


def sweep(interval_lengths, run_one) -> list[dict]:
    """Run one pipeline per interval length; failures are recorded as
    FAILED rows instead of aborting the remaining lengths."""
    rows = []
    for length in interval_lengths:
        try:
            rows.append(run_one(length))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            _log(f"sweep: interval {length} failed: {exc}")
            rows.append(
                {
                    "interval_length": length,
                    "mean": None,
                    "std": None,
                    "n_graphs": 0,
                    "margin_mean": None,
                    "status": "FAILED",
                }
            )
    return rows


def _cmd_eval_holdout(args) -> int:
    lengths = [float(tok) for tok in str(args.intervals).split(",") if tok.strip()]
    if not lengths:
        raise UsageError("no interval lengths given")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(lengths) == 1:
        rows = [_run_holdout(args, lengths[0], out_dir)]
    else:
        rows = sweep(lengths, lambda length: _run_holdout(args, length, out_dir))
    with open(out_dir / "summary.csv", "w", encoding="utf-8") as fp:
        fp.write("interval_length,mean_in_role_cosine,std,n_graphs,margin_mean,status\n")
        for row in rows:
            cells = [
                repr(float(row["interval_length"])),
                "" if row["mean"] is None else repr(row["mean"]),
                "" if row["std"] is None else repr(row["std"]),
                str(row["n_graphs"]),
                "" if row["margin_mean"] is None else repr(row["margin_mean"]),
                row["status"],
            ]
            fp.write(",".join(cells) + "\n")
    _log(f"eval-holdout: summary written to {out_dir / 'summary.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub) -> None:
    sub.add_argument("--config", help="key=value defaults file")
    sub.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ipembed", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("ingest", parents=[], help="parse a conn.log to canonical TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = subs.add_parser("build-graphs", help="aggregate flows into interval graphs")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--interval", type=float, default=600.0)
    p.add_argument("--origin", type=float, default=None)
    p.add_argument("--holdout", help="comma-separated IPs to remove first")
    p.add_argument("--vocab", help="reuse a fitted vocab.json")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_build_graphs)

    p = subs.add_parser("train", help="train a model on graph snapshots")
    p.add_argument("--graphs", required=True, help="directory of .ipgr files")
    p.add_argument("--vocab", help="vocab.json (defaults to the graphs directory)")
    p.add_argument("--holdout", help="comma-separated IPs to drop from the graphs")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--decoder-hidden", type=int, default=128)
    p.add_argument("--lambda-recon", type=float, default=1.0)
    p.add_argument("--lambda-neighbor", type=float, default=0.01)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--min-delta", type=float, default=1e-4)
    p.add_argument("--no-shuffle", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("embed", help="embeddings CSV for one graph")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=_cmd_embed)

    p = subs.add_parser("similar", help="top-k similar IPs")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--ip", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=_cmd_similar)

    p = subs.add_parser("report", help="pairwise cosine report over graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--pairs", required=True, help="ip:ip[,ip:ip...]")
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    p = subs.add_parser("anomaly", help="per-IP reconstruction anomaly scores")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--edges-out", help="optional per-edge error CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_anomaly)

    p = subs.add_parser("project", help="2-D PCA projection CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=_cmd_project)

    p = subs.add_parser("synth", help="generate a synthetic Zeek conn.log")
    p.add_argument("--out", default="-")
    p.add_argument("--duration", type=float, default=7200.0)
    p.add_argument("--clients", type=int, default=32)
    p.add_argument("--dns-servers", type=int, default=4)
    p.add_argument("--web-servers", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser(
        "eval-holdout", help="synthetic inductive holdout experiment"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--intervals",
        default="600",
        help="comma-separated interval lengths; several run as a sweep",
    )
    p.add_argument("--duration", type=float, default=7200.0)
    p.add_argument("--holdout-fraction", type=float, default=0.25)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--decoder-hidden", type=int, default=64)
    p.add_argument("--lambda-recon", type=float, default=1.0)
    p.add_argument("--lambda-neighbor", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=_cmd_eval_holdout)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand, mapping errors to the
    documented exit codes."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _inject_config(argv)
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code in (0, None) else int(code)
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (
        ParseError,
        FormatError,
        FileNotFoundError,
        NotADirectoryError,
        IsADirectoryError,
        PermissionError,
        KeyError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

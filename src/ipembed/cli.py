"""Command line pipeline: ingest, build graphs, train, embed, query.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
inputs), 3 numeric failure (diverged training). All progress goes to
standard error; results go to the declared output paths or standard out.

Flags are the only way to set an option; one that sets a ``ModelConfig``
or ``TrainConfig`` field is named after it and defaults to it. Every CSV
table goes through ``serving.write_csv``. A failed ``eval-holdout`` run
leaves no ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import fields
from ipaddress import ip_address
from pathlib import Path

from .graphs import (
    ProtocolVocab,
    aggregate_flows,
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
    write_csv,
    write_edge_errors_csv,
    write_embeddings_csv,
    write_projection_csv,
    write_similarity_csv,
)
from .synth import (
    DEFAULT_TRANSPORTS,
    MAX_ROLE_MEMBERS,
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
from .zeek import parse_conn_log, read_conn_log, write_canonical_tsv

__all__ = ["run", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _ip(text: str) -> str:
    """An IP in the canonical form records and graphs store it in."""
    try:
        return str(ip_address(text.strip()))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an IP address: {text!r}") from None


def _ip_list(raw: str) -> list[str]:
    return [_ip(token) for token in raw.split(",") if token.strip()]


# One ``a:b`` pair; a member holding colons, an IPv6 address, is bracketed.
_PAIR = re.compile(r"(\[[^\]]*\]|[^\[\]:]*):(\[[^\]]*\]|[^\[\]:]*)")


def _pair_list(raw: str) -> list[tuple[str, str]]:
    pairs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        match = _PAIR.fullmatch(token)
        if match is None:
            raise argparse.ArgumentTypeError(
                f"bad pair {token!r}; expected ip:ip, with IPv6 in brackets "
                "as in [2001:db8::1]:10.0.0.1"
            )
        pairs.append(tuple(_ip(member.strip("[]")) for member in match.groups()))
    if not pairs:
        raise argparse.ArgumentTypeError("no pairs given")
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
    tokens = doc.get("tokens") if isinstance(doc, dict) else None
    return ProtocolVocab.from_json(tokens, f"{path} tokens")


def _config(cls, args, **fixed):
    """A ``cls`` config: each field the flag named after it sets, plus ``fixed``."""
    flags = vars(args)
    kwargs = {f.name: flags[f.name] for f in fields(cls) if f.name in flags}
    return cls(**kwargs, **fixed)


def _embed_graph(args):
    """Load ``--model`` and ``--graph``; return the graph and its embeddings."""
    bundle = load_model(args.model)
    graph = load_graph(args.graph)
    return graph, infer_embeddings(bundle, graph)


# ---------------------------------------------------------------------------
# subcommands


def _skipped(stats) -> str:
    """``skipped N``, followed by the count per reason when N > 0."""
    if not stats.reasons:
        return f"skipped {stats.skipped}"
    reasons = ", ".join(f"{k} {v}" for k, v in sorted(stats.reasons.items()))
    return f"skipped {stats.skipped}: {reasons}"


def _cmd_ingest(args) -> int:
    records, stats = parse_conn_log(args.input, args.format, args.strict)
    with _output(args.out) as fp:
        write_canonical_tsv(records, fp)
    _log(f"ingest: read {stats.read} rows, emitted {stats.emitted}, {_skipped(stats)}")
    return 0


def _cmd_build_graphs(args) -> int:
    records, stats = read_conn_log(args.input, args.format, args.strict)
    if not records:
        raise ValueError("no usable records in input")
    held_out = ""
    if args.holdout:
        kept = filter_holdout(records, args.holdout)
        if not kept:
            raise ValueError("no records left after holdout")
        held_out = f", held out {len(records) - len(kept)} records"
        records = kept
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
        f"({_skipped(stats)}{held_out}) into {out_dir}"
    )
    return 0


def _cmd_train(args) -> int:
    graphs_dir = Path(args.graphs)
    graphs = load_graph_dir(graphs_dir)
    vocab = _load_vocab(graphs_dir / "vocab.json")
    scaler = fit_scaler(graphs)
    graphs = [normalize(g, scaler) for g in graphs]
    config = _config(ModelConfig, args, edge_dim=edge_dim_for_vocab(vocab.size))
    params, history = train(graphs, config, _config(TrainConfig, args), log=_log)
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
    if args.k < 1:
        raise UsageError(f"-k must be at least 1, got {args.k}")
    _, embeddings = _embed_graph(args)
    ranked = top_k_similar(embeddings, args.ip, args.k)
    with _output(args.out) as fp:
        write_csv(fp, ["ip", "cosine"], ranked)
    return 0


def _cmd_report(args) -> int:
    bundle = load_model(args.model)
    graphs = load_graph_dir(args.graphs)
    report = pairwise_report(bundle, graphs, args.pairs)
    with _output(args.out) as fp:
        write_similarity_csv(report, fp)
    apart = sum(not report.series[pair] for pair in report.pairs)
    _log(
        f"report: {len(report.pairs)} pairs over {report.n_graphs} graphs, "
        f"{apart} never together"
    )
    return 0


def _cmd_anomaly(args) -> int:
    graph, embeddings = _embed_graph(args)
    with _output(args.out) as fp:
        write_anomaly_csv(embeddings, fp)
    if args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as efp:
            write_edge_errors_csv(graph, embeddings, efp)
    return 0


def _cmd_project(args) -> int:
    _, embeddings = _embed_graph(args)
    projection = project_2d(embeddings)
    with _output(args.out) as fp:
        write_projection_csv(projection, fp)
    return 0


def _cmd_synth(args) -> int:
    for flag in ("clients", "dns_servers", "web_servers"):
        count = getattr(args, flag)
        if not 1 <= count <= MAX_ROLE_MEMBERS:
            raise UsageError(
                f"--{flag.replace('_', '-')} must lie in [1, {MAX_ROLE_MEMBERS}], "
                f"got {count}"
            )
    roles = default_roles(
        clients=args.clients, dns_servers=args.dns_servers, web_servers=args.web_servers
    )
    records = generate(roles, args.duration, args.seed)
    with _output(args.out) as fp:
        count = write_zeek_tsv(records, fp, DEFAULT_TRANSPORTS)
    _log(f"synth: {count} flows over {args.duration} seconds")
    return 0


def _cmd_eval_holdout(args) -> int:
    exp = make_experiment(
        holdout_fraction=args.holdout_fraction,
        interval_len=args.interval,
        seed=args.seed,
        duration=args.duration,
    )
    config = _config(ModelConfig, args, edge_dim=edge_dim_for_vocab(exp.vocab.size))
    params, _ = train(exp.train_graphs, config, _config(TrainConfig, args), log=_log)
    result = eval_inductive(
        ModelBundle(params, config, exp.vocab, exp.scaler),
        exp.train_graphs,
        exp.test_graphs,
        exp.holdout_ips,
        exp.in_role_ips,
        exp.out_role_ips,
    )
    with _output(args.out) as fp:
        header = ["interval", "in_role_cosine", "out_role_cosine", "margin"]
        write_csv(fp, header, result.per_graph)
    _log(
        f"eval-holdout: {result.n_graphs} graphs, "
        f"in-role cosine {result.in_role_mean!r}, "
        f"out-role cosine {result.out_role_mean!r}, margin {result.margin_mean!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly: each flag group is declared once, as a parent parser


_HYPERPARAMETERS = ("epochs", "learning_rate", "hidden", "layers", "decoder_hidden",
                    "lambda_recon", "lambda_neighbor")


def _config_flags(*names: str, **overrides):
    """One flag per named config field, typed by its default: the field's
    own, unless ``overrides`` gives the command another."""
    defaults = {f.name: f.default for f in fields(ModelConfig) + fields(TrainConfig)}
    group = argparse.ArgumentParser(add_help=False)
    for name in names:
        value = overrides.get(name, defaults[name])
        flag = "--" + name.replace("_", "-")
        group.add_argument(flag, type=type(value), default=value)
    return group


def _build_parser() -> _Parser:
    parser = _Parser(prog="ipembed", description=__doc__)
    subs = parser.add_subparsers(dest="command")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    log_input = argparse.ArgumentParser(add_help=False)
    log_input.add_argument("--input", required=True)
    log_input.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto")
    log_input.add_argument("--strict", action="store_true")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="-")
    served = argparse.ArgumentParser(add_help=False, parents=[output])
    served.add_argument("--model", required=True)
    served.add_argument("--graph", required=True)

    def command(name, func, summary, *groups):
        sub = subs.add_parser(name, help=summary, parents=groups)
        sub.set_defaults(func=func)
        return sub

    command("ingest", _cmd_ingest, "conn.log to canonical TSV", log_input, output)

    p = command(
        "build-graphs", _cmd_build_graphs, "aggregate flows into interval graphs",
        log_input,
    )
    p.add_argument("--interval", type=float, default=600.0)
    p.add_argument("--origin", type=float, default=None)
    p.add_argument("--holdout", type=_ip_list, help="comma-separated IPs to leave out")
    p.add_argument("--vocab", help="reuse a fitted vocab.json")
    p.add_argument("--out", required=True, help="output directory")

    p = command(
        "train", _cmd_train, "train a model on graph snapshots",
        _config_flags(*_HYPERPARAMETERS, "patience", "min_delta"), seed,
    )
    p.add_argument("--graphs", required=True, help="a build-graphs output directory")
    p.add_argument("--out", required=True)

    command("embed", _cmd_embed, "embeddings CSV for one graph", served)

    p = command("similar", _cmd_similar, "top-k similar IPs", served)
    p.add_argument("--ip", required=True, type=_ip)
    p.add_argument("-k", type=int, default=5)

    p = command("report", _cmd_report, "pairwise cosine report over graphs", output)
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--pairs", required=True, type=_pair_list, help="ip:ip,[ip6]:ip,...")

    p = command("anomaly", _cmd_anomaly, "per-IP reconstruction anomaly scores", served)
    p.add_argument("--edges-out", help="optional per-edge error CSV")

    command("project", _cmd_project, "2-D PCA projection CSV", served)

    p = command("synth", _cmd_synth, "generate a synthetic Zeek conn.log", seed, output)
    p.add_argument("--duration", type=float, default=7200.0)
    p.add_argument("--clients", type=int, default=32)
    p.add_argument("--dns-servers", type=int, default=4)
    p.add_argument("--web-servers", type=int, default=6)

    p = command(
        "eval-holdout", _cmd_eval_holdout, "synthetic inductive holdout experiment",
        _config_flags(*_HYPERPARAMETERS, epochs=150, hidden=32, decoder_hidden=64),
        seed, output,
    )
    p.add_argument("--interval", type=float, default=600.0)
    p.add_argument("--duration", type=float, default=7200.0)
    p.add_argument("--holdout-fraction", type=float, default=0.25)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand, mapping errors to the
    documented exit codes."""
    parser = _build_parser()
    try:
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
    # ParseError, FormatError and json.JSONDecodeError are ValueErrors.
    except (OSError, KeyError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

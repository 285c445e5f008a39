"""End-to-end command line coverage: options, exit codes, the pipeline flow,
output tables, determinism."""

import csv
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
from dataclasses import fields, replace
from ipaddress import ip_address
from pathlib import Path

import numpy as np
import pytest

import ipembed
from conftest import (
    assert_graphs_equal,
    make_record,
    model_tensor_record,
    rewrite_model_config,
    rewrite_model_section,
    version1_snapshot,
    with_item,
    with_model_tensor,
)
from ipembed.cli import _build_parser, _open_beside, run
from ipembed.graphs import (
    ProtocolVocab,
    build_interval_graphs,
    load_graph,
    save_graph,
)
from ipembed.model import ModelConfig
from ipembed.training import TrainConfig, load_model, save_model
from ipembed.zeek import read_conn_log, write_canonical_tsv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> ingest -> build-graphs -> train, shared by the read-only
    query tests."""
    base = tmp_path_factory.mktemp("cli")
    conn = base / "conn.log"
    canon = base / "canon.tsv"
    gdir = base / "graphs"
    model = base / "model.ipgm"

    steps = [
        ["synth", "--out", str(conn), "--duration", "2400", "--clients", "4",
         "--dns-servers", "2", "--web-servers", "2", "--seed", "3"],
        ["ingest", "--input", str(conn), "--out", str(canon)],
        ["build-graphs", "--input", str(canon), "--interval", "600",
         "--origin", "0", "--out", str(gdir)],
        ["train", "--graphs", str(gdir), "--out", str(model), "--epochs", "2",
         "--hidden", "4", "--decoder-hidden", "4", "--seed", "0"],
    ]
    for argv in steps:
        code = run(argv)
        assert code == 0, f"setup step failed: {argv}"
    graph_files = sorted(gdir.glob("graph_*.ipgr"))
    nodes = load_graph(graph_files[0]).nodes
    return {
        "base": base,
        "conn": conn,
        "canon": canon,
        "gdir": gdir,
        "model": model,
        "graph0": graph_files[0],
        "nodes": nodes,
    }


# ---------------------------------------------------------------------------
# options

_INPUT = {"--input": None, "--format": "auto", "--strict": False}
_SERVED = {"--model": None, "--graph": None, "--out": "-"}
_HYPER = {"--learning-rate": 0.001, "--layers": 2, "--lambda-recon": 1.0,
          "--lambda-neighbor": 0.01, "--seed": 0}

# Option string -> default of every subcommand. Only synth, train and
# eval-holdout draw random numbers, so only they take --seed.
OPTION_DEFAULTS = {
    "ingest": {**_INPUT, "--out": "-"},
    "build-graphs": {**_INPUT, "--interval": 600.0, "--origin": None,
                     "--holdout": None, "--vocab": None, "--out": None},
    "train": {**_HYPER, "--graphs": None, "--out": None,
              "--epochs": 200, "--hidden": 64, "--decoder-hidden": 128,
              "--patience": 20, "--min-delta": 0.0001},
    "embed": _SERVED,
    "similar": {**_SERVED, "--ip": None, "-k": 5},
    "report": {"--model": None, "--graphs": None, "--pairs": None, "--out": "-"},
    "anomaly": {**_SERVED, "--edges-out": None},
    "project": _SERVED,
    "synth": {"--out": "-", "--duration": 7200.0, "--clients": 32,
              "--dns-servers": 4, "--web-servers": 6, "--seed": 0},
    "eval-holdout": {**_HYPER, "--out": "-", "--interval": 600.0,
                     "--duration": 7200.0, "--holdout-fraction": 0.25,
                     "--epochs": 150, "--hidden": 32, "--decoder-hidden": 64},
}


def test_option_defaults_per_subcommand():
    (subs,) = _build_parser()._subparsers._group_actions
    actual = {
        name: {
            option: action.default
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, sub in subs.choices.items()
    }
    assert actual == OPTION_DEFAULTS


def test_every_config_field_is_a_train_flag_with_the_same_default():
    # A config field no flag sets is a setting no caller can vary; it should
    # be a constant instead.
    (subs,) = _build_parser()._subparsers._group_actions
    flags = {
        action.dest: action.default for action in subs.choices["train"]._actions
    }
    declared = [f for f in fields(ModelConfig) if f.name != "edge_dim"]
    declared += fields(TrainConfig)
    assert {f.name: f.default for f in declared} == {
        f.name: flags.get(f.name, "no flag") for f in declared
    }


def test_seed_on_a_command_that_draws_nothing_is_usage_error(workspace, capsys):
    assert run(
        ["embed", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"]), "--seed", "1"]
    ) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _complete_argv(workspace, out):
    """Subcommand -> an argv that would run it, writing only under ``out``."""
    served = ["--model", str(workspace["model"]), "--graph", str(workspace["graph0"])]
    a, b = workspace["nodes"][:2]
    return {
        "ingest": ["--input", str(workspace["canon"]), "--out", str(out / "o")],
        "build-graphs": ["--input", str(workspace["canon"]), "--out", str(out / "g")],
        "train": ["--graphs", str(workspace["gdir"]), "--out", str(out / "m")],
        "embed": served,
        "similar": [*served, "--ip", a],
        "report": ["--model", str(workspace["model"]), "--graphs",
                   str(workspace["gdir"]), "--pairs", f"{a}:{b}"],
        "anomaly": served,
        "project": served,
        "synth": ["--out", str(out / "o")],
        "eval-holdout": ["--out", str(out / "h")],
    }


@pytest.mark.parametrize("command", OPTION_DEFAULTS)
def test_config_is_an_unknown_argument(workspace, tmp_path, capsys, command):
    # Flags are the only way to set an option; there is no config file.
    flags = _complete_argv(workspace, tmp_path)[command]
    assert run([command, *flags, "--config", "x"]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --config x" in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "ingest" in capsys.readouterr().out
    assert run(["train", "--help"]) == 0


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1


def test_bad_flag_value(capsys):
    # Every int or float flag of every subcommand refuses a non-number.
    (subs,) = _build_parser()._subparsers._group_actions
    cases = [
        [name, action.option_strings[0], "soon"]
        for name, sub in subs.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    ]
    assert len(cases) > 20
    for argv in cases:
        assert run(argv) == 1, argv
        assert "invalid" in capsys.readouterr().err, argv


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert run(["ingest", "--input", str(tmp_path / "nope.log")]) == 2


def test_malformed_input_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("just some text\nwith no structure\n")
    assert run(["ingest", "--input", str(bad)]) == 2


@pytest.mark.parametrize("flag", ["--clients", "--dns-servers", "--web-servers"])
@pytest.mark.parametrize("count", ["300", "0"])
def test_synth_role_size_outside_range_is_usage_error(tmp_path, capsys, flag, count):
    out = tmp_path / "conn.log"
    assert run(["synth", "--out", str(out), "--duration", "60", flag, count]) == 1
    err = capsys.readouterr().err
    assert flag in err and "255" in err
    assert not out.exists()


def test_synth_255_clients_succeeds(tmp_path, capsys):
    out = tmp_path / "conn.log"
    assert run(
        ["synth", "--out", str(out), "--duration", "60", "--clients", "255"]
    ) == 0
    records, stats = read_conn_log(out)
    assert stats.skipped == 0
    assert "10.0.0.255" in {r.source_ip for r in records}


def test_summaries_count_skips_per_reason(tmp_path, capsys):
    log = tmp_path / "conn.log"
    assert run(
        ["synth", "--out", str(log), "--duration", "600", "--clients", "2",
         "--dns-servers", "1", "--web-servers", "1", "--seed", "1"]
    ) == 0
    lines = log.read_text().splitlines(keepends=True)
    row = next(line for line in lines if not line.startswith("#"))
    cells = row.rstrip("\n").split("\t")
    bad_ip = "\t".join(cells[:2] + ["999.0.0.1"] + cells[3:]) + "\n"
    log.write_text("".join(lines + [bad_ip, bad_ip, "\t".join(cells[:-1]) + "\n"]))
    capsys.readouterr()
    assert run(["ingest", "--input", str(log), "--out", str(tmp_path / "c.tsv")]) == 0
    assert "skipped 3: bad IP 2, column count 1" in capsys.readouterr().err
    assert run(["build-graphs", "--input", str(log), "--out", str(tmp_path / "g")]) == 0
    assert "(skipped 3: bad IP 2, column count 1)" in capsys.readouterr().err


def test_empty_input_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    with open(empty, "w") as fp:
        write_canonical_tsv([], fp)
    code = run(
        ["build-graphs", "--input", str(empty), "--out", str(tmp_path / "g")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["build-graphs", "--interval", "0"],
        ["build-graphs", "--interval", "nan"],
        ["build-graphs", "--interval", "inf"],
        ["build-graphs", "--interval", "nan", "--origin", "0"],
        ["eval-holdout", "--interval", "0"],
        ["eval-holdout", "--interval", "nan"],
        ["eval-holdout", "--interval", "inf"],
        ["eval-holdout", "--duration", "inf"],
        ["synth", "--duration", "nan"],
        ["synth", "--duration", "inf"],
    ],
)
def test_bad_interval_or_duration_is_data_error(workspace, tmp_path, capsys, argv):
    if argv[0] == "build-graphs":
        argv = argv + ["--input", str(workspace["canon"])]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    if argv[0] != "build-graphs":
        assert not out.exists()


@pytest.mark.parametrize("origin", ["-inf", "nan", "inf"])
def test_non_finite_origin_is_data_error(workspace, tmp_path, capsys, origin):
    # "--origin=-inf": with a space, argparse would read "-inf" as a flag.
    argv = ["build-graphs", "--input", str(workspace["canon"]),
            f"--origin={origin}", "--out", str(tmp_path / "g")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert "origin must be finite" in err



def test_out_name_too_long_is_data_error(workspace, tmp_path, capsys):
    out = tmp_path / ("g" * 300)
    assert run(
        ["build-graphs", "--input", str(workspace["canon"]), "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_holdout_of_everything_is_data_error(workspace, tmp_path, capsys):
    everyone = ",".join(
        [f"10.0.0.{i}" for i in range(1, 5)]
        + ["10.0.1.1", "10.0.1.2", "10.0.2.1", "10.0.2.2"]
    )
    code = run(
        ["build-graphs", "--input", str(workspace["canon"]), "--out",
         str(tmp_path / "g"), "--holdout", everyone]
    )
    assert code == 2
    assert "no records left after holdout" in capsys.readouterr().err


def test_build_graphs_holdout_leaves_no_trace(workspace, tmp_path, capsys):
    # One DNS server is the only host that also speaks ssh: held out, it
    # must shape neither the graphs nor the vocab the model is sized by.
    records, _ = read_conn_log(workspace["canon"])
    ssh = [
        make_record(ts=100.0 + 60 * i, source_ip="10.0.0.1",
                    destination_ip="10.0.1.1", destination_port=22,
                    protocol_service="ssh")
        for i in range(30)
    ]
    log = tmp_path / "conn.tsv"
    with open(log, "w") as fp:
        write_canonical_tsv(records + ssh, fp)
    touching = sum("10.0.1.1" in (r.source_ip, r.destination_ip) for r in records + ssh)

    assert run(["build-graphs", "--input", str(log), "--origin", "0",
                "--out", str(tmp_path / "all")]) == 0
    tokens = json.loads((tmp_path / "all" / "vocab.json").read_text())["tokens"]
    assert "ssh" in tokens
    capsys.readouterr()

    held = tmp_path / "held"
    assert run(["build-graphs", "--input", str(log), "--origin", "0",
                "--holdout", "10.0.1.1", "--out", str(held)]) == 0
    assert f"held out {touching} records" in capsys.readouterr().err
    tokens = json.loads((held / "vocab.json").read_text())["tokens"]
    assert "ssh" not in tokens
    paths = sorted(held.glob("graph_*.ipgr"))
    assert paths
    for path in paths:
        assert "10.0.1.1" not in load_graph(path).nodes


def test_build_graphs_holdout_output_is_pinned(workspace, tmp_path, capsys):
    # Digest and summary taken when the holdout filter returned a record
    # list that build-graphs converted back into a table.
    held = tmp_path / "held"
    assert run(["build-graphs", "--input", str(workspace["conn"]), "--interval", "600",
                "--holdout", "10.0.1.1,10.0.2.2", "--out", str(held)]) == 0
    err = capsys.readouterr().err
    assert "4 graphs from 774 records (skipped 0, held out 402 records)" in err
    digest = hashlib.sha256()
    for path in sorted(held.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    assert digest.hexdigest() == (
        "615d02443ff4d459ebf69094c2f9596b79952747a15e6224091fc280087867d4"
    )


def test_model_config_larger_than_its_file_is_data_error(workspace, tmp_path, capsys):
    model = tmp_path / "huge.ipgm"
    shutil.copy(Path(__file__).parent / "data" / "init_seed7.ipgm", model)
    rewrite_model_config(model, lambda doc: {**doc, "hidden": 10**9})
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"])]
    ) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_row_that_is_not_utf8_is_skipped(tmp_path, capsys):
    log = tmp_path / "conn.log"
    assert run(
        ["synth", "--out", str(log), "--duration", "600", "--clients", "2",
         "--dns-servers", "1", "--web-servers", "1", "--seed", "1"]
    ) == 0
    lines = log.read_bytes().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    lines[at] = lines[at].replace(b"\tSF\t", b"\tS\xff\t")
    assert b"\xff" in lines[at]
    log.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run(["ingest", "--input", str(log), "--out", str(tmp_path / "c.tsv")]) == 0
    assert "skipped 1: bad UTF-8 1" in capsys.readouterr().err


def test_bad_model_config_is_data_error(workspace, tmp_path, capsys):
    model = tmp_path / "bad.ipgm"
    shutil.copy(workspace["model"], model)
    rewrite_model_config(model, lambda doc: {**doc, "unknown_key": 1})
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"])]
    ) == 2
    assert "data error" in capsys.readouterr().err


def test_model_whose_vocab_does_not_fit_its_width_is_data_error(
    workspace, tmp_path, capsys
):
    bundle = load_model(workspace["model"])
    wider = ProtocolVocab(("zz", *bundle.vocab.tokens))
    model = tmp_path / "bad.ipgm"
    save_model(replace(bundle, vocab=wider), model)
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"])]
    ) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "do not fit" in err


def test_bad_model_vocab_is_data_error(workspace, tmp_path, capsys):
    model = tmp_path / "bad.ipgm"
    shutil.copy(workspace["model"], model)
    rewrite_model_section(model, 1, lambda raw: b"5")
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"])]
    ) == 2
    assert "data error" in capsys.readouterr().err


def test_model_section_length_past_end_is_data_error(workspace, tmp_path, capsys):
    model = tmp_path / "bad.ipgm"
    blob = bytearray(workspace["model"].read_bytes())
    blob[6:14] = (2**40).to_bytes(8, "little")  # config section length
    model.write_bytes(bytes(blob))
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"])]
    ) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "index, edit",
    [
        (3, lambda table: with_model_tensor(table, model_tensor_record("bogus.w"))),
        (0, lambda raw: raw.replace(b'"bn_eps": 1e-05', b'"bn_eps": -5')),
    ],
    ids=["extra-tensor", "negative-bn-eps"],
)
def test_refused_model_file_is_data_error(
    workspace, tmp_path, capsys, index, edit
):
    model = tmp_path / "bad.ipgm"
    shutil.copy(workspace["model"], model)
    rewrite_model_section(model, index, edit)
    out = tmp_path / "embed.csv"
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"]),
         "--out", str(out)]
    ) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


# Graph snapshot faults, each applied to a valid graph before it is saved.
# The first edge pair is forward edge 0 and its companion, edge 1, which
# share feature row 0; the last feature column is a traffic sum, column 0 a
# protocol one-hot cell.
CORRUPT_GRAPHS = {
    "flipped-reverse-flag": lambda g: with_item(g, "reverse", 0, 1),
    "unmirrored-companion": lambda g: with_item(
        g, "edge_dst", 1, (g.edge_src[0] + 1) % g.n_nodes
    ),
    "nan-feature": lambda g: with_item(g, "raw_features", (0, -1), np.nan),
    "negative-feature": lambda g: with_item(g, "raw_features", (0, -1), -5.0),
    "onehot-7": lambda g: with_item(g, "raw_features", (0, 0), 7.0),
    "duplicate-node": lambda g: replace(
        g, nodes=(g.nodes[0], g.nodes[0], *g.nodes[2:])
    ),
    "endpoint-out-of-range": lambda g: with_item(
        with_item(g, "edge_src", 0, g.n_nodes), "edge_dst", 1, g.n_nodes
    ),
}


def _nan_weight(bundle):
    bundle.params.arrays["edge_embed"][0, 0] = np.nan


def _negative_running_variance(bundle):
    bundle.params.bns["bn_node_in"].running_var[0, 0] = -1.0


def _infinite_scaler_max(bundle):
    bundle.scaler.log_max[0] = np.inf


# Model file faults, each applied in memory to a valid bundle before it is
# saved.
CORRUPT_MODELS = {
    "nan-weight": _nan_weight,
    "negative-running-variance": _negative_running_variance,
    "infinite-scaler-max": _infinite_scaler_max,
}


@pytest.mark.parametrize("fault", [*CORRUPT_GRAPHS, *CORRUPT_MODELS])
def test_corrupt_graph_or_model_is_data_error(workspace, tmp_path, capsys, fault):
    graph, model = workspace["graph0"], workspace["model"]
    if fault in CORRUPT_GRAPHS:
        graph = tmp_path / "bad.ipgr"
        save_graph(CORRUPT_GRAPHS[fault](load_graph(workspace["graph0"])), graph)
    else:
        bundle = load_model(model)
        CORRUPT_MODELS[fault](bundle)
        model = tmp_path / "bad.ipgm"
        save_model(bundle, model)
    out = tmp_path / "embed.csv"
    assert run(
        ["embed", "--model", str(model), "--graph", str(graph), "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert not out.exists()


def test_version_1_graph_is_data_error(workspace, tmp_path, capsys):
    graph = tmp_path / "old.ipgr"
    graph.write_bytes(
        version1_snapshot(
            workspace["graph0"].read_bytes(), load_graph(workspace["graph0"])
        )
    )
    out = tmp_path / "embed.csv"
    assert run(
        ["embed", "--model", str(workspace["model"]), "--graph", str(graph),
         "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert "version 1 stores companion rows" in err and "build-graphs" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [{"tokens": 5}, [1, 2], {"tokens": [5, "other"]}],
    ids=["tokens-int", "json-list", "non-string-token"],
)
def test_bad_vocab_file_is_data_error(workspace, tmp_path, capsys, doc):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(doc))
    out = tmp_path / "graphs"
    assert run(
        ["build-graphs", "--input", str(workspace["canon"]), "--interval", "600",
         "--vocab", str(vocab), "--out", str(out)]
    ) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_train_vocab_wider_than_the_graphs_is_data_error(workspace, tmp_path, capsys):
    gdir = tmp_path / "graphs"
    shutil.copytree(workspace["gdir"], gdir)
    tokens = json.loads((gdir / "vocab.json").read_text())["tokens"]
    (gdir / "vocab.json").write_text(json.dumps({"tokens": ["aaa", *tokens]}))
    model = tmp_path / "m.ipgm"
    assert run(
        ["train", "--graphs", str(gdir),
         "--out", str(model), "--epochs", "1", "--hidden", "4",
         "--decoder-hidden", "4"]
    ) == 2
    assert "does not match model edge_dim" in capsys.readouterr().err
    assert not model.exists()


def test_divergent_training_is_numeric_error(workspace, tmp_path, capsys):
    # a learning rate near the top of float32 range throws the weights past
    # what the next step can multiply without overflow
    code = run(
        ["train", "--graphs", str(workspace["gdir"]), "--out",
         str(tmp_path / "m.ipgm"), "--epochs", "4", "--hidden", "4",
         "--decoder-hidden", "4", "--learning-rate", "1e38"]
    )
    assert code == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--learning-rate", "nan"),
        ("--learning-rate", "inf"),
        ("--min-delta", "nan"),
        ("--min-delta", "inf"),
        ("--lambda-recon", "inf"),
        ("--lambda-neighbor", "nan"),
        ("--learning-rate", "1e300"),
        ("--lambda-recon", "1e300"),
        ("--lambda-neighbor", "1e300"),
    ],
)
def test_non_finite_training_setting_is_data_error(
    workspace, tmp_path, capsys, flag, value
):
    model = tmp_path / "m.ipgm"
    assert run(
        ["train", "--graphs", str(workspace["gdir"]), "--out", str(model),
         "--epochs", "50", "--patience", "3", "--hidden", "4",
         "--decoder-hidden", "4", flag, value]
    ) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "finite" in err
    assert not model.exists()


# ---------------------------------------------------------------------------
# pipeline outputs


def test_failed_ingest_leaves_no_partial_out_file(workspace, tmp_path):
    log = tmp_path / "conn.log"
    text = workspace["conn"].read_text()
    last_row = text.splitlines()[-1]
    log.write_text(text + last_row.rsplit("\t", 1)[0] + "\n")  # a column short
    out = tmp_path / "flows.tsv"
    argv = ["ingest", "--strict", "--input", str(log), "--out", str(out)]
    assert run(argv) == 2
    assert sorted(tmp_path.iterdir()) == [log]
    out.write_text("kept\n")
    assert run(argv) == 2
    assert out.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [log, out]


def test_out_keeps_an_existing_file_mode(workspace, tmp_path):
    out = tmp_path / "flows.tsv"
    out.write_text("old\n")
    out.chmod(0o640)
    assert run(["ingest", "--input", str(workspace["conn"]), "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text() == workspace["canon"].read_text()


def test_out_writes_through_a_symlink(workspace, tmp_path):
    real = tmp_path / "real.tsv"
    real.write_text("old\n")
    link = tmp_path / "flows.tsv"
    link.symlink_to(real)
    assert run(["ingest", "--input", str(workspace["conn"]), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_text() == workspace["canon"].read_text()
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_out_to_a_device_is_written_in_place(workspace):
    # Asked first, without writing: a temporary file that replaced the
    # device would break every later user of it.
    beside = _open_beside(os.devnull)
    if beside is not None:
        beside[0].close()
        beside[1].unlink()
    assert beside is None
    assert run(["ingest", "--input", str(workspace["conn"]), "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)


def test_out_in_a_missing_directory_names_the_path(workspace, tmp_path, capsys):
    out = tmp_path / "missing" / "flows.tsv"
    assert run(["ingest", "--input", str(workspace["conn"]), "--out", str(out)]) == 2
    assert f"No such file or directory: '{out}'" in capsys.readouterr().err


def test_ingest_writes_canonical_tsv(workspace):
    lines = workspace["canon"].read_text().splitlines()
    assert lines[0] == "#separator \\x09"
    assert lines[1].startswith("#fields\tts\tsourceIP\tdestinationIP")
    assert len(lines) > 2


def test_build_graphs_outputs(workspace):
    files = sorted(workspace["gdir"].glob("graph_*.ipgr"))
    assert len(files) == 4  # 2400 s at 600 s intervals
    assert files[0].name == "graph_000000.ipgr"
    assert (workspace["gdir"] / "vocab.json").exists()
    graph = load_graph(files[0])
    assert graph.start == 0.0 and graph.end == 600.0


def test_build_graphs_names_files_by_interval_index(tmp_path, capsys):
    # Intervals 0 and 2 after a non-zero origin have flows; interval 1 has none.
    records = [
        make_record(ts=1100.0),
        make_record(ts=1150.0, destination_ip="10.0.0.3", protocol_service="http"),
        make_record(ts=2300.0, source_ip="10.0.0.4"),
    ]
    flows = tmp_path / "flows.tsv"
    with open(flows, "w") as fp:
        write_canonical_tsv(records, fp)
    gdir = tmp_path / "graphs"
    assert run(
        ["build-graphs", "--input", str(flows), "--interval", "600",
         "--origin", "1000", "--out", str(gdir)]
    ) == 0
    files = sorted(p.name for p in gdir.glob("graph_*.ipgr"))
    assert files == ["graph_000000.ipgr", "graph_000002.ipgr"]

    tokens = json.loads((gdir / "vocab.json").read_text())["tokens"]
    expected = build_interval_graphs(records, 600.0, ProtocolVocab(tuple(tokens)), 1000.0)
    assert [(g.start, g.end) for g in expected] == [(1000.0, 1600.0), (2200.0, 2800.0)]
    for name, want in zip(files, expected):
        assert_graphs_equal(load_graph(gdir / name), want)


def test_embed_to_stdout(workspace, capsys):
    assert run(
        ["embed", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"])]
    ) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("ip,dim_0")
    assert len(lines) == 1 + len(workspace["nodes"])


def test_similar_output(workspace, capsys):
    ip = workspace["nodes"][0]
    assert run(
        ["similar", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"]), "--ip", ip, "-k", "3"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ip,cosine"
    assert 1 <= len(lines) - 1 <= 3
    for line in lines[1:]:
        name, value = line.split(",")
        assert name != ip
        assert -1.0 <= float(value) <= 1.0


def test_similar_unknown_ip_is_data_error(workspace, capsys):
    assert run(
        ["similar", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"]), "--ip", "198.51.100.9"]
    ) == 2


def test_report_output(workspace, tmp_path, capsys):
    a, b = workspace["nodes"][0], workspace["nodes"][1]
    out = tmp_path / "report.csv"
    assert run(
        ["report", "--model", str(workspace["model"]), "--graphs",
         str(workspace["gdir"]), "--pairs", f"{a}:{b},{a}:198.51.100.9",
         "--out", str(out)]
    ) == 0
    text = out.read_text()
    assert text.startswith("pair,interval,cosine\n")
    assert "pair,mean,std,count" not in text
    assert f"{a}|{b}" in text
    n_graphs = len(list(workspace["gdir"].glob("graph_*.ipgr")))
    assert (
        f"report: 2 pairs over {n_graphs} graphs, 1 never together"
        in capsys.readouterr().err
    )


def test_report_writes_a_repeated_pair_once(workspace, tmp_path, capsys):
    a, b = workspace["nodes"][0], workspace["nodes"][1]
    outs = []
    for pairs in (f"{a}:{b}", f"{a}:{b},{a}:{b}", f"{a}:{b},{b}:{a},{a}:{b}"):
        out = tmp_path / "report.csv"
        assert run(
            ["report", "--model", str(workspace["model"]), "--graphs",
             str(workspace["gdir"]), "--pairs", pairs, "--out", str(out)]
        ) == 0
        outs.append((out.read_bytes(), capsys.readouterr().err))
    assert outs[1][0] == outs[0][0]
    assert "report: 1 pairs over" in outs[1][1]
    # b:a is labelled b|a, so it stays a pair of its own, after a:b.
    assert outs[2][0].startswith(outs[0][0])
    assert f"\n{b}|{a},".encode() in outs[2][0]
    assert "report: 2 pairs over" in outs[2][1]


def test_report_bad_pair_is_usage_error(workspace, capsys):
    assert run(
        ["report", "--model", str(workspace["model"]), "--graphs",
         str(workspace["gdir"]), "--pairs", "10.0.0.1"]
    ) == 1


def test_report_canonicalizes_pair_members(workspace, tmp_path, capsys):
    a, b = workspace["nodes"][0], workspace["nodes"][1]
    outs = []
    for pairs in (f"{a}:{b}", f" {a} : {b} "):
        out = tmp_path / "report.csv"
        assert run(
            ["report", "--model", str(workspace["model"]), "--graphs",
             str(workspace["gdir"]), "--pairs", pairs, "--out", str(out)]
        ) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert f"\n{a}|{b}," in outs[0]  # the pair was found


def test_report_on_snapshot_with_bad_interval_is_data_error(
    workspace, tmp_path, capsys
):
    gdir = tmp_path / "graphs"
    shutil.copytree(workspace["gdir"], gdir)
    bad = replace(load_graph(workspace["graph0"]), start=np.nan, end=-5.0)
    save_graph(bad, gdir / workspace["graph0"].name)
    a, b = workspace["nodes"][0], workspace["nodes"][1]
    out = tmp_path / "report.csv"
    assert run(
        ["report", "--model", str(workspace["model"]), "--graphs", str(gdir),
         "--pairs", f"{a}:{b}", "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert "interval bounds" in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def ipv6_workspace(tmp_path_factory):
    """Graphs of four IPv6 hosts, 2001:db8::1 to ::4, and a model on them."""
    base = tmp_path_factory.mktemp("ipv6")
    hosts = [f"2001:db8::{i}" for i in range(1, 5)]
    records = [
        make_record(ts=10.0 * k, source_ip=hosts[k % 4],
                    destination_ip=hosts[(k + 1 + k // 4 % 3) % 4])
        for k in range(24)
    ]
    flows = base / "flows.tsv"
    with open(flows, "w") as fp:
        write_canonical_tsv(records, fp)
    gdir, model = base / "graphs", base / "model.ipgm"
    assert run(["build-graphs", "--input", str(flows), "--out", str(gdir)]) == 0
    assert run(
        ["train", "--graphs", str(gdir), "--out", str(model), "--epochs", "1",
         "--hidden", "4", "--decoder-hidden", "4"]
    ) == 0
    return gdir, model


def test_similar_canonicalizes_the_query_ip(ipv6_workspace, capsys):
    gdir, model = ipv6_workspace
    graph = str(next(gdir.glob("graph_*.ipgr")))
    capsys.readouterr()
    outs = []
    for ip in ("2001:db8::1", "2001:DB8::1", "2001:0db8:0:0::1"):
        argv = ["similar", "--model", str(model), "--graph", graph, "--ip", ip]
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].count("\n") == 4  # header and the three other hosts
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_report_names_ipv6_pair_members_in_brackets(ipv6_workspace, tmp_path, capsys):
    gdir, model = ipv6_workspace
    out = tmp_path / "report.csv"
    assert run(
        ["report", "--model", str(model), "--graphs", str(gdir), "--pairs",
         "[2001:db8::1]:[2001:DB8::2],[2001:db8::3]:10.0.0.1", "--out", str(out)]
    ) == 0
    text = out.read_text()
    # The first pair, canonicalized, is in the graph; the second in none.
    assert "\n2001:db8::1|2001:db8::2,0.0," in text
    assert "2001:db8::3|" not in text
    assert "2 pairs over 1 graphs, 1 never together" in capsys.readouterr().err


def test_report_unbracketed_ipv6_pair_is_usage_error(ipv6_workspace, capsys):
    gdir, model = ipv6_workspace
    assert run(
        ["report", "--model", str(model), "--graphs", str(gdir), "--pairs",
         "2001:db8::1:2001:db8::2"]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[2001:db8::1]:10.0.0.1" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["similar", "--ip", "not-an-ip"],
        ["similar", "--ip", "10.0.0.1", "-k", "0"],
        ["report", "--pairs", "10.0.0.1:bogus"],
        ["report", "--pairs", "10.0.0.1:"],
        ["build-graphs", "--holdout", "10.0.0.1,not-an-ip"],
    ],
    ids=["similar-non-ip", "similar-k-0", "report-non-ip", "report-empty-member",
         "holdout-non-ip"],
)
def test_bad_ip_or_k_is_usage_error(workspace, tmp_path, capsys, extra):
    command, *flags = extra
    model = ["--model", str(workspace["model"])]
    source = {
        "similar": [*model, "--graph", str(workspace["graph0"])],
        "report": [*model, "--graphs", str(workspace["gdir"])],
        "build-graphs": ["--input", str(workspace["canon"]),
                         "--out", str(tmp_path / "g")],
    }[command]
    assert run([command, *source, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "g").exists()


def test_anomaly_with_edge_csv(workspace, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    edges = tmp_path / "edges.csv"
    assert run(
        ["anomaly", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"]), "--out", str(out), "--edges-out",
         str(edges)]
    ) == 0
    score_lines = out.read_text().splitlines()
    assert score_lines[0] == "ip,score"
    assert len(score_lines) == 1 + len(workspace["nodes"])
    for line in score_lines[1:]:
        assert float(line.split(",")[1]) >= 0.0

    edge_lines = edges.read_text().splitlines()
    assert edge_lines[0] == "source,destination,reverse,error"
    assert len(edge_lines) == 1 + load_graph(workspace["graph0"]).n_edges
    for line in edge_lines[1:]:
        assert float(line.split(",")[3]) >= 0.0


def test_project_output(workspace, tmp_path, capsys):
    out = tmp_path / "proj.csv"
    assert run(
        ["project", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"]), "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ip,x,y"
    assert len(lines) == 1 + len(workspace["nodes"])


def _is_text_cell(cell: str) -> bool:
    """An empty cell, a status, an IP or an ``ip|ip`` pair name."""
    if cell in ("", "OK", "FAILED"):
        return True
    try:
        for member in cell.split("|"):
            ip_address(member)
    except ValueError:
        return False
    return True


def test_every_csv_the_cli_writes_parses(workspace, tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    model, gdir = str(workspace["model"]), str(workspace["gdir"])
    served = ["--model", model, "--graph", str(workspace["graph0"])]
    a, b = workspace["nodes"][0], workspace["nodes"][1]
    for argv in (
        ["embed", *served, "--out", "embed.csv"],
        ["similar", *served, "--ip", a, "--out", "similar.csv"],
        ["report", "--model", model, "--graphs", gdir,
         "--pairs", f"{a}:{b},{a}:198.51.100.9", "--out", "report.csv"],
        ["anomaly", *served, "--out", "anomaly.csv", "--edges-out", "edges.csv"],
        ["project", *served, "--out", "project.csv"],
        ["eval-holdout", "--out", "holdout.csv", "--duration", "2400",
         "--epochs", "1", "--hidden", "4", "--decoder-hidden", "4"],
    ):
        assert run(argv) == 0, argv
    paths = sorted(tmp_path.rglob("*.csv"))
    assert [p.name for p in paths] == [
        "anomaly.csv", "edges.csv", "embed.csv", "holdout.csv", "project.csv",
        "report.csv", "similar.csv",
    ]
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fp:
            rows = list(csv.reader(fp))
        header, *data = rows
        numbers = 0
        for row in data:
            assert len(row) == len(header), (path.name, row)
            for cell in row:
                if not _is_text_cell(cell):
                    float(cell)  # raises on a cell no CSV reader takes as a number
                    numbers += 1
        assert numbers, path.name


# ---------------------------------------------------------------------------
# determinism


def test_synth_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.log"
    b = tmp_path / "b.log"
    for path in (a, b):
        assert run(
            ["synth", "--out", str(path), "--duration", "900", "--clients",
             "2", "--dns-servers", "1", "--web-servers", "1", "--seed", "9"]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_graphs_and_train_are_deterministic(workspace, tmp_path, capsys):
    gdir2 = tmp_path / "graphs2"
    assert run(
        ["build-graphs", "--input", str(workspace["canon"]), "--interval",
         "600", "--origin", "0", "--out", str(gdir2)]
    ) == 0
    for name in ["graph_000000.ipgr", "vocab.json"]:
        assert (gdir2 / name).read_bytes() == (
            workspace["gdir"] / name
        ).read_bytes()

    model2 = tmp_path / "model2.ipgm"
    assert run(
        ["train", "--graphs", str(workspace["gdir"]), "--out", str(model2),
         "--epochs", "2", "--hidden", "4", "--decoder-hidden", "4", "--seed",
         "0"]
    ) == 0
    assert model2.read_bytes() == workspace["model"].read_bytes()


def test_embed_reruns_byte_identical(workspace, tmp_path, capsys):
    outs = []
    for name in ("e1.csv", "e2.csv"):
        path = tmp_path / name
        assert run(
            ["embed", "--model", str(workspace["model"]), "--graph",
             str(workspace["graph0"]), "--out", str(path)]
        ) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# longer flows


def test_long_capture_makes_207_graphs(tmp_path, capsys):
    # 2070 minutes of traffic at 10 minute intervals -> 207 graphs
    conn = tmp_path / "long.log"
    canon = tmp_path / "long.tsv"
    gdir = tmp_path / "graphs"
    assert run(
        ["synth", "--out", str(conn), "--duration", "124200", "--clients",
         "1", "--dns-servers", "1", "--web-servers", "1", "--seed", "1"]
    ) == 0
    assert run(["ingest", "--input", str(conn), "--out", str(canon)]) == 0
    assert run(
        ["build-graphs", "--input", str(canon), "--interval", "600",
         "--origin", "0", "--out", str(gdir)]
    ) == 0
    assert len(list(gdir.glob("graph_*.ipgr"))) == 207


def test_eval_holdout_single_interval(tmp_path, capfd):
    out = tmp_path / "holdout.csv"
    assert run(
        ["eval-holdout", "--out", str(out), "--interval", "600",
         "--duration", "2400", "--epochs", "2", "--hidden", "4",
         "--decoder-hidden", "4", "--seed", "0"]
    ) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "interval,in_role_cosine,out_role_cosine,margin"
    assert rows
    columns = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    (summary,) = [
        line for line in capfd.readouterr().err.splitlines()
        if line.startswith("eval-holdout:")
    ]
    in_mean, out_mean, margin = columns[:, 1:].mean(axis=0).tolist()
    assert summary == (
        f"eval-holdout: {len(rows)} graphs, in-role cosine {in_mean!r}, "
        f"out-role cosine {out_mean!r}, margin {margin!r}"
    )


def test_eval_holdout_writes_one_csv_per_length(tmp_path, capfd):
    # A fractional length: every test graph starts on a multiple of it.
    assert run(
        ["eval-holdout", "--interval", "600.5", "--duration", "2400",
         "--epochs", "1", "--hidden", "4", "--decoder-hidden", "4"]
    ) == 0
    lines = capfd.readouterr().out.splitlines()
    starts = [float(line.split(",")[0]) for line in lines[1:]]
    assert starts and max(starts) > 0
    assert all(start % 600.5 == 0 for start in starts)


def test_eval_holdout_single_bad_interval_propagates(tmp_path, capfd):
    out = tmp_path / "x.csv"
    assert run(
        ["eval-holdout", "--out", str(out), "--interval", "999999",
         "--duration", "2400", "--epochs", "1"]
    ) == 2
    assert "data error" in capfd.readouterr().err
    assert not out.exists()


def test_eval_holdout_divergence_is_numeric_error(tmp_path, capfd):
    out = tmp_path / "x.csv"
    assert run(
        ["eval-holdout", "--out", str(out), "--duration", "2400", "--epochs",
         "2", "--hidden", "4", "--decoder-hidden", "4", "--learning-rate", "1e38"]
    ) == 3
    assert "numeric failure" in capfd.readouterr().err
    assert not out.exists()


def test_console_entry_point():
    # Run the package under test, also when it is imported from a checkout.
    src = str(Path(ipembed.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ipembed", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "eval-holdout" in proc.stdout

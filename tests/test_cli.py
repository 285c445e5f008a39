"""End-to-end command line coverage: exit codes, the pipeline flow, config
files, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ipembed
from conftest import assert_graphs_equal, make_record, rewrite_model_config
from ipembed.cli import run
from ipembed.graphs import ProtocolVocab, build_interval_graphs, load_graph
from ipembed.zeek import write_canonical_tsv


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
    assert run(["train", "--graphs", "x", "--out", "y", "--epochs", "soon"]) == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert run(["ingest", "--input", str(tmp_path / "nope.log")]) == 2


def test_malformed_input_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("just some text\nwith no structure\n")
    assert run(["ingest", "--input", str(bad)]) == 2


def test_empty_input_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    with open(empty, "w") as fp:
        write_canonical_tsv([], fp)
    code = run(
        ["build-graphs", "--input", str(empty), "--out", str(tmp_path / "g")]
    )
    assert code == 2


def test_holdout_of_everything_is_data_error(workspace, tmp_path, capsys):
    everyone = ",".join(
        [f"10.0.0.{i}" for i in range(1, 5)]
        + ["10.0.1.1", "10.0.1.2", "10.0.2.1", "10.0.2.2"]
    )
    code = run(
        ["train", "--graphs", str(workspace["gdir"]), "--out",
         str(tmp_path / "m.ipgm"), "--holdout", everyone, "--epochs", "1"]
    )
    assert code == 2


def test_bad_model_config_is_data_error(workspace, tmp_path, capsys):
    model = tmp_path / "bad.ipgm"
    shutil.copy(workspace["model"], model)
    rewrite_model_config(model, lambda doc: {**doc, "unknown_key": 1})
    assert run(
        ["embed", "--model", str(model), "--graph", str(workspace["graph0"])]
    ) == 2
    assert "data error" in capsys.readouterr().err


def test_divergent_training_is_numeric_error(workspace, tmp_path, capsys):
    # an infinite loss weight makes the very first loss non-finite
    code = run(
        ["train", "--graphs", str(workspace["gdir"]), "--out",
         str(tmp_path / "m.ipgm"), "--epochs", "4", "--hidden", "4",
         "--decoder-hidden", "4", "--lambda-recon", "inf"]
    )
    assert code == 3


# ---------------------------------------------------------------------------
# pipeline outputs


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
         str(workspace["gdir"]), "--pairs", f"{a}:{b}", "--out", str(out)]
    ) == 0
    text = out.read_text()
    assert text.startswith("pair,interval,cosine\n")
    assert "pair,mean,std,count" in text
    assert f"{a}|{b}" in text


def test_report_bad_pair_is_usage_error(workspace, capsys):
    assert run(
        ["report", "--model", str(workspace["model"]), "--graphs",
         str(workspace["gdir"]), "--pairs", "10.0.0.1"]
    ) == 1


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


def test_project_output(workspace, tmp_path, capsys):
    out = tmp_path / "proj.csv"
    assert run(
        ["project", "--model", str(workspace["model"]), "--graph",
         str(workspace["graph0"]), "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ip,x,y"
    assert len(lines) == 1 + len(workspace["nodes"])


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults(workspace, tmp_path, capfd):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=2\nhidden = 4\ndecoder-hidden=4\n# comment\n\n")
    assert run(
        ["train", "--graphs", str(workspace["gdir"]), "--out",
         str(tmp_path / "m.ipgm"), "--config", str(cfg)]
    ) == 0
    err = capfd.readouterr().err
    assert err.count("epoch ") == 2


def test_explicit_flag_beats_config(workspace, tmp_path, capfd):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=3\nhidden=4\ndecoder_hidden=4\n")
    assert run(
        ["train", "--graphs", str(workspace["gdir"]), "--out",
         str(tmp_path / "m.ipgm"), "--config", str(cfg), "--epochs", "1"]
    ) == 0
    err = capfd.readouterr().err
    assert err.count("epoch ") == 1


def test_config_bad_line_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this is not a key value line\n")
    assert run(
        ["train", "--graphs", str(workspace["gdir"]), "--out",
         str(tmp_path / "m.ipgm"), "--config", str(cfg)]
    ) == 1


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
    out = tmp_path / "exp"
    assert run(
        ["eval-holdout", "--out", str(out), "--intervals", "600",
         "--duration", "2400", "--epochs", "2", "--hidden", "4",
         "--decoder-hidden", "4", "--seed", "0"]
    ) == 0
    detail = (out / "holdout_600.csv").read_text().splitlines()
    assert detail[0] == "interval,in_role_cosine,out_role_cosine,margin"
    assert len(detail) > 1
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == (
        "interval_length,mean_in_role_cosine,std,n_graphs,margin_mean,status"
    )
    assert len(summary) == 2 and summary[1].endswith("OK")


def test_eval_holdout_sweep_isolates_failures(tmp_path, capfd):
    out = tmp_path / "sweep"
    assert run(
        ["eval-holdout", "--out", str(out), "--intervals", "600,999999",
         "--duration", "2400", "--epochs", "2", "--hidden", "4",
         "--decoder-hidden", "4", "--seed", "0"]
    ) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].endswith("OK")
    assert rows[2].endswith("FAILED")
    assert (out / "holdout_600.csv").exists()
    assert not (out / "holdout_999999.csv").exists()


def test_eval_holdout_single_bad_interval_propagates(tmp_path, capfd):
    assert run(
        ["eval-holdout", "--out", str(tmp_path / "x"), "--intervals",
         "999999", "--duration", "2400", "--epochs", "1"]
    ) == 2


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

"""The benchmark under ``perfbench/`` imports the package's API by name.
Tier-1 does not run the benchmark, so this checks statically that every
name it imports from ``ipembed``, every attribute it reads off an imported
``ipembed`` module still exist, and that each call of an imported callable
binds to its signature: the positional arguments by count, the keywords by
name. A call counts whether the callable is called directly or handed to the
harness's ``call(name, fn, *args, **kwargs)`` helpers. A call that spreads
``*args`` has its keywords checked alone.

The harness's own round-trip checks also run here, on a graph and a model
saved and loaded by the package, so a file layout they no longer accept
fails a test rather than showing up as failed operations in a benchmark
run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from conftest import with_item
from ipembed.graphs import load_graph, save_graph
from ipembed.model import ModelConfig, edge_dim_for_vocab
from ipembed.synth import default_roles, make_experiment
from ipembed.training import ModelBundle, TrainConfig, load_model, save_model, train

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def _bindings(tree):
    """Local name -> imported ipembed object, for every import in the file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ipembed":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["ipembed"] = importlib.import_module("ipembed")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] != "ipembed":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def _binds(func, args, keywords):
    """Whether a call with these argument and keyword nodes binds to
    ``func``'s signature. Without a ``*args`` or ``**kwargs`` spread the call
    must be complete; with one, only what it spells out is checked."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in args)
    names = [kw.arg for kw in keywords if kw.arg is not None]
    complete = not starred and len(names) == len(keywords)
    bind = signature.bind if complete else signature.bind_partial
    try:
        bind(*(() if starred else range(len(args))), **dict.fromkeys(names))
    except TypeError:
        return False
    return True


def _helper_keywords():
    """Keyword-only parameters of the harness's own ``call`` helpers: they
    are consumed there and never reach the wrapped callable."""
    own = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "call":
                own.update(arg.arg for arg in node.args.kwonlyargs)
    return own


def _callee(func, bound):
    """The ipembed object a call expression names, with its label, or None."""
    if isinstance(func, ast.Name) and func.id in bound:
        return bound[func.id], func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and inspect.ismodule(bound.get(func.value.id))
        and hasattr(bound[func.value.id], func.attr)
    ):
        return getattr(bound[func.value.id], func.attr), f"{func.value.id}.{func.attr}"
    return None


def test_benchmark_sources_are_found():
    assert [p.name for p in SOURCES if p.name == "run.py"] == ["run.py"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _bindings(tree)
    helper_own = _helper_keywords()
    missing = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and inspect.ismodule(bound.get(node.value.id))
            and not hasattr(bound[node.value.id], node.attr)
        ):
            missing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        if not isinstance(node, ast.Call):
            continue
        args, keywords = node.args, node.keywords
        callee = _callee(node.func, bound)
        if callee is None and getattr(node.func, "attr", None) == "call":
            # call(name, fn, *args, **kwargs): fn's arguments follow it.
            for i, arg in enumerate(node.args):
                wrapped = _callee(arg, bound)
                if wrapped and callable(wrapped[0]):
                    callee, args = wrapped, node.args[i + 1 :]
                    break
            keywords = [kw for kw in keywords if kw.arg not in helper_own]
        if callee is None:
            continue
        target, label = callee
        if not _binds(target, args, keywords):
            names = ", ".join(kw.arg or "**" for kw in keywords)
            missing.append(
                f"line {node.lineno}: {label}({len(args)} positional; {names})"
            )
    assert not missing, f"{path.name} uses names ipembed no longer has: {missing}"


def _bench_checks():
    """The harness's ``checks.py``, imported from its file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_benchmark_round_trip_checks_accept_saved_files(tmp_path):
    checks = _bench_checks()
    exp = make_experiment(default_roles(4, 2, 2), duration=1800.0, seed=0)
    graph = exp.train_graphs[0]
    save_graph(graph, tmp_path / "graph.ipgr")
    loaded = load_graph(tmp_path / "graph.ipgr")
    assert checks.graphs_equal(graph, loaded)
    cell = loaded.raw_features[0, -1] + 1.0
    assert not checks.graphs_equal(graph, with_item(loaded, "raw_features", (0, -1), cell))

    config = ModelConfig(
        edge_dim=edge_dim_for_vocab(exp.vocab.size), hidden=4, decoder_hidden=4
    )
    params, _ = train(exp.train_graphs, config, TrainConfig(epochs=1, seed=0))
    bundle = ModelBundle(params, config, exp.vocab, exp.scaler)
    save_model(bundle, tmp_path / "model.ipgm")
    assert checks.bundles_equal(bundle, load_model(tmp_path / "model.ipgm"))

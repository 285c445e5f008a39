"""The benchmark under ``perfbench/`` imports the package's API by name.
Tier-1 does not run the benchmark, so this checks statically that every
name it imports from ``ipembed``, every attribute it reads off an imported
``ipembed`` module and every keyword it passes to an imported callable
still exist. Keywords count whether the callable is called directly or
handed to the harness's ``call(name, fn, *args, **kwargs)`` helpers."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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


def _accepts(func, keyword):
    try:
        params = inspect.signature(func).parameters
    except (TypeError, ValueError):
        return True
    return keyword in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


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
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        callee = _callee(node.func, bound)
        if callee is None and getattr(node.func, "attr", None) == "call":
            wrapped = [_callee(arg, bound) for arg in node.args]
            callee = next((c for c in wrapped if c and callable(c[0])), None)
            keywords = [k for k in keywords if k not in helper_own]
        if callee is None:
            continue
        target, label = callee
        for keyword in keywords:
            if not _accepts(target, keyword):
                missing.append(f"line {node.lineno}: {label}({keyword}=...)")
    assert not missing, f"{path.name} uses names ipembed no longer has: {missing}"

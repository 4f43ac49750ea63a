"""The library names the benchmark reads exist in the library.

``bench/tracer.py`` gives extra facts to the spans of the functions its
``NAMED`` table lists, by ``layer.function``.  A name that no longer
resolves opens no span, and every per-layer figure read from it reads 0
instead of failing, so this test reads the table from the file's source
and checks each name against what the tracer would wrap.

``bench/run.py`` checks every benchmark run's outputs and runs its probes
through ``pf.<name>`` chains on the imported package, and
``bench/test_bench.py`` imports names from it; a name deleted from the
library, or a signature its calls no longer fit, would fail the
benchmark, so each name is resolved and each call bound here first.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import pianofinger

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _assigned(name: str):
    """The literal value assigned to ``name`` at the top of the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} is not assigned in {TRACER.name}")


LAYERS = ast.literal_eval(_assigned("LAYERS"))
NAMED = [ast.literal_eval(key) for key in _assigned("NAMED").keys]


def test_the_tracer_names_operations():
    assert NAMED and len(set(NAMED)) == len(NAMED)


@pytest.mark.parametrize("qualname", NAMED)
def test_named_operation_is_a_public_function_of_its_layer(qualname):
    layer, attr = qualname.split(".")
    assert layer in LAYERS
    module = importlib.import_module(f"pianofinger.{layer}")
    function = getattr(module, attr, None)
    # the conditions under which Tracer.install wraps a function
    assert isinstance(function, types.FunctionType), qualname
    assert not attr.startswith("_")
    assert function.__module__ == module.__name__, qualname


def _chain(node):
    """The dotted path from the package of a ``pf.<name>[.<name>...]``
    chain, where ``pf`` is the package, or None for any other node."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if chain and isinstance(node, ast.Name) and node.id == "pf":
        return ".".join(reversed(chain))
    return None


def _imported(tree) -> set:
    """The names a module imports from the package."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pianofinger"
        for alias in node.names
    }


def _bench_names() -> set:
    """Each ``pf.<name>[.<name>...]`` chain in ``bench/run.py`` and each
    name ``bench/test_bench.py`` imports from the package, as dotted
    paths from the package."""
    names = {_chain(node) for node in ast.walk(ast.parse((BENCH / "run.py").read_text()))}
    return (names - {None}) | _imported(ast.parse((BENCH / "test_bench.py").read_text()))


def _bench_calls() -> list:
    """``(file, dotted path, call)`` of each call in ``bench/run.py`` to a
    ``pf.<name>...`` chain and in ``bench/test_bench.py`` to a name it
    imports from the package."""
    calls = []
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        if isinstance(node, ast.Call) and _chain(node.func):
            calls.append(("run.py", _chain(node.func), node))
    tree = ast.parse((BENCH / "test_bench.py").read_text())
    imported = _imported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in imported:
            calls.append(("test_bench.py", node.func.id, node))
    return calls


def _resolve(name: str):
    obj = pianofinger
    for attr in name.split("."):
        obj = getattr(obj, attr, None)
    return obj


def test_every_library_name_the_benchmark_reads_resolves():
    import pianofinger.cli  # as bench/run.py imports the package

    names = _bench_names()
    assert {"cli.main", "estimate_piece", "split_hands"} <= names
    assert not [name for name in sorted(names) if _resolve(name) is None]


def test_every_library_call_the_benchmark_makes_binds_to_its_signature():
    # a call's arguments are bound by their number and keywords alone, so
    # one that unpacks a sequence or a mapping cannot be checked here
    import pianofinger.cli  # as bench/run.py imports the package

    calls = _bench_calls()
    called = {name for _, name, _ in calls}
    assert {"enumerate_states", "chord_path_log_score", "cluster_chords"} <= called
    unbound = []
    for where, name, call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args), (where, call.lineno)
        assert all(k.arg is not None for k in call.keywords), (where, call.lineno)
        try:
            inspect.signature(_resolve(name)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"{where}:{call.lineno}: {name}: {exc}")
    assert not unbound

"""The library names the benchmark reads exist in the library.

``bench/tracer.py`` gives extra facts to the spans of the functions its
``NAMED`` table lists, by ``layer.function``.  A name that no longer
resolves opens no span, and every per-layer figure read from it reads 0
instead of failing, so this test reads the table from the file's source
and checks each name against what the tracer would wrap.

``bench/run.py`` checks every benchmark run's outputs and runs its probes
through ``pf.<name>`` chains on the imported package, and
``bench/test_bench.py`` imports names from it; a name deleted from the
library would fail the benchmark, so each is resolved here first.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

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


def _bench_names() -> set:
    """Each ``pf.<name>[.<name>...]`` chain in ``bench/run.py``, where
    ``pf`` is the package, and each name ``bench/test_bench.py`` imports
    from it, as dotted paths from the package."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "pf":
            names.add(".".join(reversed(chain)))
    for node in ast.walk(ast.parse((BENCH / "test_bench.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "pianofinger":
            names.update(alias.name for alias in node.names)
    return names


def test_every_library_name_the_benchmark_reads_resolves():
    import pianofinger.cli  # as bench/run.py imports the package

    names = _bench_names()
    assert {"cli.main", "estimate_piece", "split_hands"} <= names
    missing = []
    for name in sorted(names):
        obj = pianofinger
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing

"""The benchmark tracer's named operations exist in the library.

``bench/tracer.py`` gives extra facts to the spans of the functions its
``NAMED`` table lists, by ``layer.function``.  A name that no longer
resolves opens no span, and every per-layer figure read from it reads 0
instead of failing, so this test reads the table from the file's source
and checks each name against what the tracer would wrap.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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

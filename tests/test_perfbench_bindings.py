"""The benchmark's tracer finds every name it wraps.

`perfbench/tracer.py` wraps the package's functions by looking each binding
up with getattr (methods in the class's __dict__) when it is installed, so
a name moved or renamed in the package would crash every traced benchmark
run.  The binding tables are read from the tracer's source, which is not
imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def bindings(name: str) -> tuple:
    """The literal value of the tracer's module-level assignment name."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize("module, attr, span", bindings("FUNCTION_BINDINGS"))
def test_function_binding_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, span",
                         bindings("METHOD_BINDINGS"))
def test_method_binding_resolves(module, cls, attr, span):
    owner = getattr(importlib.import_module(module), cls)
    assert attr in owner.__dict__

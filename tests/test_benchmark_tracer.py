"""The benchmark tracer (`benchmarks/tracer.py`) wraps epsolve functions
and classes by name; a rename or deletion in the package must fail here,
not only in a traced benchmark run."""
import importlib

import pytest

from benchmarks import tracer


@pytest.mark.parametrize(
    "module,name",
    [(m, f) for m, f, _layer in tracer.WRAPPED] + list(tracer.SUITE_FUNCS),
)
def test_wrapped_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"epsolve.{module}"), name)
    assert callable(fn) and not isinstance(fn, type)


@pytest.mark.parametrize("module,name", tracer.EQ_CLASSES)
def test_counted_class_resolves(module, name):
    assert isinstance(getattr(importlib.import_module(f"epsolve.{module}"), name), type)

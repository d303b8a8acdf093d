"""The benchmark's tracer wraps named package functions; a renamed one
would only fail the traced benchmark run, so check the names here."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


@pytest.mark.skipif(not os.path.isfile(TRACER), reason="no perfbench/ in this checkout")
def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"cellnash.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cellnash.{layer}.{name}"

"""The benchmark's tracer wraps named package functions, and its
workloads call package names through ``cn``; a renamed or deleted one
would only fail a benchmark run, so check the names here."""

import ast
import glob
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


def _cn_chains(path):
    """Every ``cn.<name>`` and ``cn.<module>.<name>`` chain in one file,
    where ``cn`` is the benchmark's name for the imported package."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "cn":
            chains.add(tuple(reversed(parts)))
    return chains


@pytest.mark.skipif(not os.path.isfile(TRACER), reason="no perfbench/ in this checkout")
def test_every_name_the_benchmark_calls_exists():
    import cellnash
    import cellnash.cli  # noqa: F401  perfbench imports it alongside the package

    perfbench = os.path.dirname(TRACER)
    chains = set()
    for path in sorted(glob.glob(os.path.join(perfbench, "*.py"))):
        chains |= _cn_chains(path)
    assert ("subdivision", "vertex_profile_count") in chains
    for chain in sorted(chains):
        target = cellnash
        for part in chain:
            assert hasattr(target, part), "cn." + ".".join(chain)
            target = getattr(target, part)

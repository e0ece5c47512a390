"""The program names that perfbench/ reaches still exist.

perfbench/tracer.py wraps package functions and AssemblyPlan methods by name,
and perfbench/run.py executes its WARMUP snippet before any timing.  A change
that deletes or renames one of those would otherwise surface only when the
benchmark runs (the tracer only at --trace 1).
"""

import ast
import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _warmup_source() -> str:
    """The WARMUP string literal of perfbench/run.py, read without importing it."""
    with open(os.path.join(PERFBENCH, "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WARMUP" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no WARMUP in perfbench/run.py")


def test_traced_names_resolve_and_warmup_runs():
    tracer = _load_tracer()
    missing = [
        f"{module}.{name}"
        for module, names in tracer.FUNCTIONS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []

    from plap1d.core_types import AssemblyPlan

    assert [m for m in tracer.METHODS.values() if not hasattr(AssemblyPlan, m)] == []

    exec(_warmup_source(), {})

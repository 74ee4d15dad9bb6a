"""The benchmark tracer's function names all exist in the library.

``perfbench/tracer.py`` wraps each name of its ``TRACED`` table by
``getattr``, so a deleted or renamed function breaks every traced benchmark
run.  The table is read from the tracer's source, without importing it.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_is_callable():
    table = traced_names()
    assert table
    for module, names in table.items():
        mod = importlib.import_module(f"dyadiclab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"dyadiclab.{module}.{name}"

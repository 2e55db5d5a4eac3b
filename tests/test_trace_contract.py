"""The benchmark's tracer looks placenet's functions up by name.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of ``SPANS`` and
each generator kind of ``KIND_SPANS``; a rename in ``placenet`` would break
``perfbench/run.py --trace 1``, and a traced name that ``cli.py`` imports but
no longer calls would leave its metric at 0. These tests resolve the names
and read ``cli.py``'s syntax tree; they do not install the tracer.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import placenet.cli
from placenet.generators import _KIND_FUNCS

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in tracing.SPANS],
                         ids=[f"{m}.{a}" for m, a, _ in tracing.SPANS])
def test_traced_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_traced_generator_kinds_resolve():
    assert set(tracing.KIND_SPANS) <= set(_KIND_FUNCS)
    assert all(callable(_KIND_FUNCS[kind]) for kind in tracing.KIND_SPANS)


def _loaded_names(path):
    """Every name that the module at ``path`` reads; imports bind, not read."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("attr", sorted({a for m, a, _ in tracing.SPANS if m == "placenet.cli"}))
def test_traced_cli_name_is_used(attr):
    assert attr in _loaded_names(placenet.cli.__file__), f"placenet.cli never uses {attr}"

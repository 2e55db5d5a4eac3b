"""The benchmark's tracer looks placenet's functions up by name.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of ``SPANS`` and
each generator kind of ``KIND_SPANS``; a rename in ``placenet`` would break
``perfbench/run.py --trace 1``. These tests only resolve the names; they do
not install the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

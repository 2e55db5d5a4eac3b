"""The package's public names and the README's imports agree.

A name dropped from ``placenet`` must leave ``__all__`` with it, a README
example must not import a name the package no longer exports, and the
README must not call a ``Graph`` method that no longer exists.
"""

import re
from pathlib import Path

import pytest

import placenet

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", placenet.__all__)
def test_exported_name_resolves(name):
    assert hasattr(placenet, name)


def test_readme_imports_only_exported_names():
    blocks = re.findall(r"^from placenet import (\([^)]*\)|.*)$", README.read_text(), re.M)
    names = {name.strip() for block in blocks for name in block.strip("()").split(",")} - {""}
    assert names, "README has no 'from placenet import' line"
    assert names <= set(placenet.__all__), sorted(names - set(placenet.__all__))


def test_readme_calls_only_existing_graph_methods():
    methods = set(re.findall(r"\bg\.(\w+)\(", README.read_text()))
    assert methods, "README calls no 'g.<method>('"
    missing = sorted(m for m in methods if not hasattr(placenet.Graph, m))
    assert not missing, missing

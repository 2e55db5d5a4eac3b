"""Turn leaked file handles in this directory's tests into failures.

An unclosed file warns with ``ResourceWarning`` when it is collected; as an
error raised in a finalizer it reaches pytest as an unraisable exception,
so both warnings are made errors. Only the items under ``tests/`` get the
filters.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent

_LEAK_FILTERS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            for mark in _LEAK_FILTERS:
                item.add_marker(mark)

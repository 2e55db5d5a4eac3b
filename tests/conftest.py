"""Turn leaked file handles and numeric or deprecation warnings in this
directory's tests into failures.

An unclosed file warns with ``ResourceWarning`` when it is collected; as an
error raised in a finalizer it reaches pytest as an unraisable exception,
so both warnings are made errors. ``DeprecationWarning`` and
``FutureWarning`` flag library calls that are about to change, and
``RuntimeWarning`` flags numpy overflow, invalid values and division by
zero. Only the items under ``tests/`` get the filters.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent

_WARNING_FILTERS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
    pytest.mark.filterwarnings("error::FutureWarning"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            for mark in _WARNING_FILTERS:
                item.add_marker(mark)

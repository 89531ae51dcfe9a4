"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro.network.graph

MODULES = [
    repro.network.graph,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0

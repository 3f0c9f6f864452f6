"""Shared fixture graphs for the test suite, and a guard on the collector."""

from __future__ import annotations

import gc

import pytest

from actree import Graph


@pytest.fixture(autouse=True)
def _collector_left_on():
    """Fail any test that leaves the cyclic garbage collector disabled: the
    build and the searches pause it and must turn it back on, whether they
    return or raise. It is turned on again, so the next test starts clean."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def diamond() -> Graph:
    # s -> a (1), s -> b (4), a -> t (2), b -> t (1); shortest s-t is 3 via a
    return Graph.from_arcs(4, 0, [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)])


@pytest.fixture
def cycle3() -> Graph:
    # s -> a -> b -> s, unit weights
    return Graph.from_arcs(3, 0, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def complete3() -> Graph:
    # complete digraph over {s, a, b}, unit weights
    arcs = [(u, v) for u in range(3) for v in range(3) if u != v]
    return Graph.from_arcs(3, 0, arcs)


@pytest.fixture
def single() -> Graph:
    return Graph.from_arcs(1, 0, [])

"""Module checks, family validation, and the exact width oracle."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actree import (
    Graph,
    GraphError,
    InvalidFamilyError,
    brute_force_nesting_width,
    build_ac_tree,
    family_width,
    is_module,
)
from random_graphs import gen_layered, gen_random_digraph
from test_acceptance import _module_closure_check


def _all_modules(g):
    n = g.node_count
    out = []
    for mask in range(1, 1 << n):
        members = frozenset(v for v in range(n) if mask >> v & 1)
        if is_module(g, members) is not None:
            out.append(members)
    return out


def test_is_module_cycle(cycle3):
    assert is_module(cycle3, {1, 2}) == 1  # only external in-arc is s->a
    assert is_module(cycle3, {0, 1, 2}) == 0
    for v in range(3):
        assert is_module(cycle3, {v}) == v


def test_is_module_diamond(diamond):
    assert is_module(diamond, {1, 3}) is None  # external in-arcs hit both
    assert is_module(diamond, {3}) == 3
    assert is_module(diamond, {0, 1, 2, 3}) == 0


def test_is_module_source_convention(cycle3):
    # sets containing the graph source must take it as their module source
    assert is_module(cycle3, {0, 1}) == 0  # the only external arc, 2->0, hits s
    assert is_module(cycle3, {0, 2}) is None  # 1->2 enters away from s


def test_is_module_empty_set_rejected(cycle3):
    with pytest.raises(ValueError):
        is_module(cycle3, frozenset())


@pytest.mark.parametrize("nodes, bad", [
    ([1, 7], "7"), ([-1], "-1"), ([1.5], "1.5"), ([2, True], "True"), (iter([0, 3]), "3"),
])
def test_is_module_names_an_id_that_is_no_node(cycle3, nodes, bad):
    with pytest.raises(GraphError, match=f"node {bad} is not a node id of a 3-node graph"):
        is_module(cycle3, nodes)


def test_module_closure_exhaustive_small():
    checked = 0
    for i in range(60):
        n = 2 + i % 5
        g = gen_random_digraph(n, n + (i * 3) % (2 * n + 1), seed=1100 + i)
        modules = _all_modules(g)
        for x in range(len(modules)):
            for y in range(x + 1, len(modules)):
                a, b = modules[x], modules[y]
                if a & b and not (a <= b or b <= a):
                    assert _module_closure_check(g, a, b)
                    checked += 1
    assert checked > 0


def test_closure_preconditions(cycle3):
    with pytest.raises(ValueError):
        _module_closure_check(cycle3, {0}, {1})  # disjoint
    with pytest.raises(ValueError):
        _module_closure_check(cycle3, {1, 2}, {1})  # nested
    with pytest.raises(ValueError):
        _module_closure_check(cycle3, {0, 2}, {1, 2})  # {0, 2} is not a module


@pytest.mark.parametrize("m, h, message", [
    ({0}, {1}, r"sets \[0\] and \[1\] do not overlap properly"),
    ({1, 2}, {1}, r"sets \[1, 2\] and \[1\] do not overlap properly"),
    ({0, 2}, {1, 2}, r"set \[0, 2\] is not a module"),
    ({1, 2}, {0, 2}, r"set \[0, 2\] is not a module"),
    (set(), set(), r"sets \[\] and \[\] do not overlap properly"),
])
def test_closure_preconditions_raise_a_graph_error_naming_the_sets(cycle3, m, h, message):
    with pytest.raises(InvalidFamilyError, match=f"^module_closure_check: {message}$"):
        _module_closure_check(cycle3, m, h)


def test_is_module_empty_set_raises_a_graph_error(cycle3):
    for nodes in (frozenset(), [], iter(())):
        with pytest.raises(GraphError, match=r"^is_module: the node set \[\] is empty$"):
            is_module(cycle3, nodes)


def test_family_width_trivial_family():
    g = gen_random_digraph(9, 20, seed=4)
    sets = [frozenset(range(9))] + [frozenset((v,)) for v in range(9)]
    assert family_width(g, sets) == 9


def test_family_width_cycle(cycle3):
    sets = [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    ]
    assert family_width(cycle3, sets) == 2
    assert family_width(cycle3, tuple(sets)) == 2


def test_family_width_single(single):
    assert family_width(single, [frozenset({0})]) == 1


def test_invalid_family_error_is_a_typed_graph_error():
    assert InvalidFamilyError.__bases__ == (GraphError,)
    assert issubclass(InvalidFamilyError, ValueError)


def test_family_width_reports_violations(cycle3, diamond):
    with pytest.raises(InvalidFamilyError, match="whole node set"):
        family_width(cycle3, [frozenset({0}), frozenset({1}), frozenset({2})])
    with pytest.raises(InvalidFamilyError, match="singleton"):
        family_width(cycle3, [frozenset({0, 1, 2}), frozenset({0})])
    all_d = [frozenset(range(4))] + [frozenset((v,)) for v in range(4)]
    with pytest.raises(InvalidFamilyError, match="not a module"):
        family_width(diamond, all_d + [frozenset({1, 3})])
    with pytest.raises(InvalidFamilyError, match="overlap"):
        family_width(cycle3, [
            frozenset({0, 1, 2}),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0, 1}),
            frozenset({1, 2}),
        ])


@st.composite
def _interval_families(draw):
    """A path ``0 -> 1 -> ... -> n-1`` and a family of its intervals, which
    are exactly its modules, holding the whole node set and every singleton:
    so only laminarity decides whether the family is valid."""
    n = draw(st.integers(1, 8))
    intervals = [frozenset(range(i, j)) for i in range(n) for j in range(i + 1, n + 1)]
    family = draw(st.lists(st.sampled_from(intervals), max_size=8))
    family += [frozenset(range(n))] + [frozenset((v,)) for v in range(n)]
    g = Graph.from_arcs(n, 0, [(v, v + 1) for v in range(n - 1)])
    return g, draw(st.permutations(family))


def _overlap(a, b):
    return bool(a & b) and not (a <= b or b <= a)


@settings(max_examples=300, deadline=None)
@given(_interval_families())
def test_family_width_accepts_exactly_the_pairwise_laminar_families(case):
    """The owner pass against the definition: every pair of sets nested or
    disjoint, and each set's width the count of its largest strict subsets
    in the family."""
    g, family = case
    sets = set(family)
    laminar = not any(_overlap(a, b) for a in sets for b in sets)
    try:
        width = family_width(g, family)
    except InvalidFamilyError as e:
        assert not laminar
        named = re.fullmatch(r"sets (\[.*\]) and (\[.*\]) overlap", str(e))
        a, b = (frozenset(map(int, re.findall(r"\d+", x))) for x in named.groups())
        assert a in sets and b in sets and _overlap(a, b)
        return
    assert laminar
    maximal = [
        sum(1 for c in sets if c < s and not any(c < d < s for d in sets))
        for s in sets if len(s) >= 2
    ]
    assert width == max(maximal, default=1)


def test_brute_force_width_fixtures(complete3, single):
    assert brute_force_nesting_width(complete3) == 3
    assert brute_force_nesting_width(gen_layered(2, seed=1)) == 2
    assert brute_force_nesting_width(single) == 1


def test_brute_force_width_guard():
    g = gen_random_digraph(13, 30, seed=0)
    with pytest.raises(ValueError):
        brute_force_nesting_width(g)
    with pytest.raises(GraphError, match=r"g has 13 nodes, more than EXACT_WIDTH_LIMIT = 12"):
        brute_force_nesting_width(g)


def test_width_at_least_two_beyond_one_node():
    for i in range(40):
        n = 2 + i % 6
        g = gen_random_digraph(n, n + i % (2 * n), seed=1200 + i)
        assert brute_force_nesting_width(g) >= 2
        assert build_ac_tree(g).width >= 2


def test_actree_width_equals_oracle_sample():
    for i in range(150):
        n = 2 + i % 6
        e = (n - 1) + (i * 7) % (2 * n + 2)
        g = gen_random_digraph(n, e, seed=1300 + i)
        assert build_ac_tree(g).width == brute_force_nesting_width(g), i

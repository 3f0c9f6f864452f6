"""Graph container, parsers, pruning, and generators."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actree import (
    FormatError,
    Graph,
    GraphError,
    NegativeWeightError,
    build_ac_tree,
    dijkstra,
    gen_complete,
    gen_layered,
    gen_nested,
    gen_random_dag,
    gen_random_digraph,
    nest,
    parse_dimacs_sp,
    parse_edge_list,
    prune_unreachable,
    recursive_dijkstra,
    serialize_dimacs_sp,
    serialize_edge_list,
)


def test_parse_edge_list_basic():
    g = parse_edge_list("4 4 0\n0 1 1\n0 2 4\n1 3 2\n2 3 1")
    assert g.node_count == 4
    assert g.arc_count == 4
    assert g.source == 0
    assert list(g.arcs()) == [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)]


def test_parse_edge_list_single_node():
    g = parse_edge_list("1 0 0")
    assert g.node_count == 1
    assert g.arc_count == 0


def test_parse_edge_list_comments_and_default_weight():
    g = parse_edge_list("# header\n2 1 0\n# arc\n0 1\n")
    assert list(g.arcs()) == [(0, 1, 1.0)]


def test_parse_edge_list_negative_weight_reports_line():
    with pytest.raises(NegativeWeightError) as exc:
        parse_edge_list("2 1 0\n0 1 -3")
    assert exc.value.line == 2


def test_parse_edge_list_errors():
    with pytest.raises(FormatError):
        parse_edge_list("")  # missing header
    with pytest.raises(FormatError) as exc:
        parse_edge_list("2 1 0\n0 five 1")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_edge_list("2 1 0\n0 7 1")  # id out of range
    with pytest.raises(FormatError):
        parse_edge_list("2 2 0\n0 1 1")  # header/arc-count mismatch
    with pytest.raises(FormatError):
        parse_edge_list("2 0 5")  # source out of range


def test_parse_dimacs_basic():
    g = parse_dimacs_sp("p sp 2 1\na 1 2 7")
    assert g.node_count == 2
    assert g.source == 0
    assert list(g.arcs()) == [(0, 1, 7.0)]


def test_parse_dimacs_comment_single_node():
    g = parse_dimacs_sp("c x\np sp 1 0")
    assert g.node_count == 1
    assert g.arc_count == 0


def test_parse_dimacs_arc_before_header():
    with pytest.raises(FormatError) as exc:
        parse_dimacs_sp("a 1 2 1\np sp 2 1")
    assert exc.value.line == 1


def test_parse_dimacs_errors():
    with pytest.raises(FormatError):
        parse_dimacs_sp("a 1 2 1")  # missing problem line
    with pytest.raises(FormatError):
        parse_dimacs_sp("p max 2 1\na 1 2 1")  # wrong problem tag
    with pytest.raises(FormatError):
        parse_dimacs_sp("p sp 2 1\na 1 3 1")  # id out of range
    with pytest.raises(NegativeWeightError):
        parse_dimacs_sp("p sp 2 1\na 1 2 -1")
    with pytest.raises(FormatError):
        parse_dimacs_sp("p sp 2 1\na 1 2 1", source=3)


@pytest.mark.parametrize("source", [0, 3, -1, "1", 1.0, True, None])
def test_parse_dimacs_bad_source_is_a_format_error(source):
    with pytest.raises(FormatError, match=r"^source .* out of range \(1\.\.2\)"):
        parse_dimacs_sp("p sp 2 1\na 1 2 1", source=source)


def test_round_trip_both_formats():
    for seed in range(8):
        g = gen_random_digraph(2 + 7 * seed, 4 + 10 * seed, seed)
        assert parse_edge_list(serialize_edge_list(g)) == g
        assert parse_dimacs_sp(serialize_dimacs_sp(g), source=g.source + 1) == g
    lay = gen_layered(4, 3)
    assert parse_edge_list(serialize_edge_list(lay)) == lay


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph.from_arcs(2, 0, [(0, 5)])
    with pytest.raises(GraphError):
        Graph.from_arcs(2, 5, [])
    with pytest.raises(NegativeWeightError):
        Graph.from_arcs(2, 0, [(0, 1, -1.0)])
    with pytest.raises(GraphError):
        Graph.from_arcs(0, 0, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_graph_rejects_non_finite_weights(bad):
    with pytest.raises(GraphError, match=r"arc 1->2 has non-finite weight"):
        Graph.from_arcs(3, 0, [(0, 1, 1.0), (1, 2, bad)])
    with pytest.raises(GraphError, match=r"arc 0->1"):
        Graph(2, 0, (0, 1, 1), (1,), (bad,), 1)


def test_malformed_fields_raise_graph_error_not_type_error():
    with pytest.raises(GraphError, match=r"arc 0->1 has weight 'x', not a float"):
        Graph(2, 0, (0, 1, 1), (1,), ("x",), 1)
    with pytest.raises(GraphError, match=r"node_count '3' is not an integer"):
        Graph.from_arcs("3", 0, [])
    with pytest.raises(GraphError, match=r"arcs must be an iterable"):
        Graph.from_arcs(2, 0, None)
    with pytest.raises(GraphError, match=r"source '0' out of range"):
        Graph(2, "0", (0, 0, 0), (), (), 0)
    with pytest.raises(GraphError, match=r"heads is not a tuple"):
        Graph(2, 0, (0, 1, 1), [1], (1.0,), 1)


def test_from_arcs_holds_no_per_arc_objects():
    rng = random.Random(0)
    n, m = 1 << 10, 1 << 12
    arcs = [(rng.randrange(n), rng.randrange(n), rng.random()) for _ in range(m)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = Graph.from_arcs(n, 0, arcs)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert g.arc_count == m
    # the arcs' ints and floats belong to the input; the graph adds one 8 B
    # slot in heads and one in weights per arc, and per node an offsets slot
    # and an int object of at most 32 B (26 B per arc here; a tuple per arc
    # costs at least 56 B more)
    assert held <= 16 * m + 40 * (n + 1) + 1024, held / m


def test_from_arcs_rejects_malformed_arcs_naming_them():
    cases = [  # a list: (0.0, 1), (0, 1.0) and (0, True) are equal keys
        ((0,), "(0,)"),  # wrong tuple length
        ((0, 1, 2, 3), "(0, 1, 2, 3)"),
        ((0, 1, "x"), "(0, 1, 'x')"),  # weight float() cannot read
        ((0, 1, None), "(0, 1, None)"),
        ((0, 1, 10**400), "(0, 1, 1000"),  # weight too large for a float
        ((0.0, 1), "(0.0, 1)"),  # tail not an integer
        (("0", 1), "('0', 1)"),
        ((0, 1.0), "0->1.0"),  # target not an integer
        ((0, True), "0->True"),
        ((0, "1"), "0->'1'"),
    ]
    for arc, named in cases:
        with pytest.raises(GraphError) as info:
            Graph.from_arcs(2, 0, [(1, 0), arc])
        assert type(info.value) is GraphError, arc
        assert str(info.value).startswith("arc " + named), (arc, str(info.value))


def test_parsers_report_non_finite_weights_by_line():
    with pytest.raises(FormatError) as exc:
        parse_edge_list("2 1 0\n0 1 nan")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_dimacs_sp("p sp 2 1\na 1 2 inf")
    assert exc.value.line == 2


def test_prune_identity_on_reachable(diamond):
    pruned, remap = prune_unreachable(diamond)
    assert pruned == diamond
    assert remap == [0, 1, 2, 3]


def test_prune_drops_unreachable():
    g = Graph.from_arcs(3, 0, [(0, 1)])
    pruned, remap = prune_unreachable(g)
    assert pruned.node_count == 2
    assert remap == [0, 1, None]
    assert list(pruned.arcs()) == [(0, 1, 1.0)]
    again, remap2 = prune_unreachable(pruned)
    assert again == pruned and remap2 == [0, 1]


def test_prune_single_node(single):
    pruned, remap = prune_unreachable(single)
    assert pruned == single and remap == [0]


def test_prune_keeps_arcs_among_retained():
    # node 3 unreachable; its arcs vanish, everything else survives
    g = Graph.from_arcs(4, 0, [(0, 1), (1, 2), (2, 1), (3, 1)])
    pruned, _ = prune_unreachable(g)
    assert pruned.node_count == 3
    assert list(pruned.arcs()) == [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]


def test_gen_layered_shapes():
    g1 = gen_layered(1, 0)
    assert (g1.node_count, g1.arc_count) == (3, 2)
    g2 = gen_layered(2, 0)
    assert (g2.node_count, g2.arc_count) == (5, 6)
    with pytest.raises(ValueError):
        gen_layered(0, 0)


def test_gen_random_digraph_reachable_and_deterministic():
    assert gen_random_digraph(1, 0, 0).node_count == 1
    g = gen_random_digraph(50, 200, 7)
    pruned, _ = prune_unreachable(g)
    assert pruned == g
    assert serialize_edge_list(g) == serialize_edge_list(gen_random_digraph(50, 200, 7))
    with pytest.raises(ValueError):
        gen_random_digraph(0, 0, 0)


def test_gen_random_dag_is_acyclic():
    g = gen_random_dag(10, 20, 3)
    assert all(u != v for u, v, _ in g.arcs())
    assert all(u < v for u, v, _ in g.arcs())
    pruned, _ = prune_unreachable(g)
    assert pruned == g


def test_gen_complete():
    g = gen_complete(3)
    assert g.arc_count == 6
    assert all(w == 1.0 for _, _, w in g.arcs())


def test_nested_identity_composition():
    inner = gen_complete(4, seed=5)
    assert gen_nested((1, 0, inner), seed=0) == inner


def test_nested_shape():
    g = gen_nested((3, 2, 3), seed=11)
    assert g.node_count == 5
    assert g.source == 0
    # node 2 was replaced: its in-arcs now hit the inner source (node 2 again
    # after renumbering), and the inner clique occupies nodes 2..4
    heads_from_0 = {v for u, v, _ in g.arcs() if u == 0}
    assert heads_from_0 == {1, 2}


def test_nested_source_substituted_twice():
    # the outer source a0 becomes b0, and b0 in turn becomes c0 (node 2), so
    # arcs of all three cliques meet there, in spec order
    g = gen_nested(((2, 0, 2), 1, 2), seed=3)
    assert g.source == 2
    arcs = [(0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)]
    assert [(u, v) for u, v, _ in g.arcs()] == arcs


def test_nested_deep_spec_builds_without_recursion():
    spec = 2
    for _ in range(2000):
        spec = (2, 1, spec)
    g = gen_nested(spec, seed=5)
    assert g.node_count == 2002
    tree = build_ac_tree(g)
    assert tree.width == 2
    assert recursive_dijkstra(g, tree).dist == dijkstra(g).dist


def test_nested_replacing_the_source():
    outer = Graph.from_arcs(2, 0, [(0, 1)])
    inner = Graph.from_arcs(2, 0, [(0, 1), (1, 0)])
    g = nest(outer, 0, inner)
    assert g.node_count == 3
    assert g.source == 1  # inner source, shifted past the surviving outer node
    with pytest.raises(ValueError):
        gen_nested(None, 0)
    with pytest.raises(ValueError):
        gen_nested((), 0)


# ---------------------------------------------------------------------------
# Properties of the CSR layout (n <= 12, a mix of 2- and 3-tuples)
# ---------------------------------------------------------------------------

@st.composite
def arc_inputs(draw) -> tuple[int, int, list[tuple]]:
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    weight = st.one_of(st.integers(0, 3), st.floats(0, 8, allow_nan=False))
    arc = st.one_of(st.tuples(node, node), st.tuples(node, node, weight))
    return n, draw(node), draw(st.lists(arc, max_size=3 * n))


@settings(max_examples=200, deadline=None)
@given(arc_inputs())
def test_csr_layout_properties(case):
    n, s, arcs = case
    g = Graph.from_arcs(n, s, arcs)
    normalised = [(a[0], a[1], float(a[2]) if len(a) == 3 else 1.0) for a in arcs]
    stored = list(g.arcs())
    assert stored == sorted(normalised, key=lambda arc: arc[0])
    assert all(type(w) is float for _, _, w in stored)
    assert Graph(n, s, g.offsets, g.heads, g.weights, g.arc_count) == g
    assert parse_edge_list(serialize_edge_list(g)) == g
    assert parse_dimacs_sp(serialize_dimacs_sp(g), source=s + 1) == g
    pruned, _ = prune_unreachable(g)
    again, remap = prune_unreachable(pruned)
    assert again == pruned and remap == list(range(pruned.node_count))


@settings(max_examples=200, deadline=None)
@given(arc_inputs(), st.data())
def test_malformed_csr_fields_name_the_arc_or_the_field(case, data):
    n, s, arcs = case
    g = Graph.from_arcs(n, s, arcs)
    off, heads, weights, m = g.offsets, g.heads, g.weights, g.arc_count

    def build(offsets=off, hs=heads, ws=weights, count=m):
        return Graph(n, s, offsets, hs, ws, count)

    with pytest.raises(GraphError, match=r"offsets has"):
        build(offsets=off[:-1])
    if m:
        with pytest.raises(GraphError, match=r"arc_count"):
            build(hs=heads[:-1])
        i = data.draw(st.integers(0, m - 1))
        u, v = bisect_right(off, i) - 1, heads[i]
        for head in (n, True):
            with pytest.raises(GraphError, match=rf"^arc {u}->{head}: target is not"):
                build(hs=heads[:i] + (head,) + heads[i + 1 :])
        with pytest.raises(GraphError, match=rf"^arc {u}->{v} has non-finite weight"):
            build(ws=weights[:i] + (math.nan,) + weights[i + 1 :])
    if n >= 2 and m:
        k = data.draw(st.integers(1, n - 1))
        raised = off[:k] + (off[k + 1] + 1,) + off[k + 1 :]
        names_k = rf"offsets must .* \(offsets\[{k + 1}\] is not\)"
        with pytest.raises(GraphError, match=names_k):
            build(offsets=raised)

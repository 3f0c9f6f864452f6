"""Graph container, parsers, pruning, and generators."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import actree.graph
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
    parse_dimacs_sp,
    parse_edge_list,
    prune_unreachable,
    recursive_dijkstra,
    serialize_dimacs_sp,
    serialize_edge_list,
)
from actree.graph import _parse_dimacs_lines, _parse_edge_list_lines


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


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_edge_list, "# huge\n10000000000000000000 0 0\n"),
        (parse_dimacs_sp, "c huge\np sp 10000000000000000000 0\n"),
    ],
)
def test_a_node_count_too_large_to_allocate_is_a_format_error(parse, text):
    with pytest.raises(FormatError, match="node count 10000000000000000000") as exc:
        parse(text)
    assert exc.value.line == 2


def test_from_arcs_names_a_node_count_too_large_to_allocate():
    with pytest.raises(GraphError, match="node count 100000000000000000000 is too large"):
        Graph.from_arcs(10**20, 0, [])


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


# ---------------------------------------------------------------------------
# Column-at-a-time parsing against the line parsers
# ---------------------------------------------------------------------------

class _LineParserCalled(Exception):
    pass


def _column_path(parse, line_parser: str, *args):
    """``parse``'s result when its line parser is never called, else None."""
    with mock.patch.object(actree.graph, line_parser, side_effect=_LineParserCalled):
        try:
            return parse(*args)
        except _LineParserCalled:
            return None


def _edge_list_columns(text: str):
    return _column_path(parse_edge_list, "_parse_edge_list_lines", text)


def _dimacs_columns(text: str, source: int):
    return _column_path(parse_dimacs_sp, "_parse_dimacs_lines", text, source)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except GraphError as exc:
        return type(exc), exc.line if isinstance(exc, FormatError) else None, str(exc)


def _assert_paths_agree(parse, columns, spec_parser, *args):
    spec = _outcome(spec_parser, *args)
    assert _outcome(parse, *args) == spec
    fast = columns(*args)
    if fast is not None:
        assert type(spec) is Graph, (fast, spec)
        assert fast == spec
        assert list(map(repr, fast.weights)) == list(map(repr, spec.weights))


_BAD_TOKENS = (
    st.sampled_from(["-1", "-2", "+1", "01", "1_0", "1.0", "x", ""]),  # ids
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "+3", "1_0", "-1", "x"]),
)


@st.composite
def _graph_texts(draw, dimacs: bool):
    """A canonical graph text with up to two deviations of every kind."""
    n = draw(st.integers(1, 5))
    base = 1 if dimacs else 0
    node = st.integers(base, n - 1 + base).map(str)
    m = draw(st.integers(max(n - 1, 0), n + 3))
    rows = draw(st.lists(st.tuples(node, node, st.floats(0, 100).map(repr)),
                         min_size=m, max_size=m))
    arcs = [[list(row), " ", "\n"] for row in rows]
    lines: list = arcs[:]  # arcs, and other lines as strings
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if arcs else 0):
        line = draw(st.sampled_from(arcs))
        kind = draw(st.sampled_from(["token", "count", "sep", "eol", "insert"]))
        if kind == "token":
            j = draw(st.integers(0, len(line[0]) - 1))
            line[0][j] = draw(_BAD_TOKENS[j >= 2])
        elif kind == "count":  # a 2-field or a 4-field arc
            line[0] = line[0][:2] if draw(st.booleans()) else line[0] + ["1"]
        elif kind == "sep":
            line[1] = draw(st.sampled_from(["  ", "\t"]))
        elif kind == "eol":
            line[2] = draw(st.sampled_from(["\r\n", " \n", "\n\n"]))
        else:
            other = ["c 1 2 3", "p sp 2 1"] if dimacs else ["# 1 2", " "]
            lines.insert(lines.index(line), draw(st.sampled_from(other)) + "\n")
    body = "".join(
        line if isinstance(line, str)
        else line[1].join(["a", *line[0]] if dimacs else line[0]) + line[2]
        for line in lines
    )
    m += draw(st.sampled_from([0] * 8 + [-1, 1]))
    s = draw(st.sampled_from([0] * 6 + [n - 1, n]))
    head = f"p sp {n} {m}" if dimacs else f"{n} {m} {s}"
    text = head + draw(st.sampled_from(["\n"] * 8 + ["\r\n", " \n"])) + body
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]
    return text, s + 1


@settings(max_examples=400, deadline=None)
@given(_graph_texts(dimacs=False))
@example(("3 2 0\n0 1 2.5\n1 2 0.5\n", 1))
@example(("# c\n3 2 0\n\n0 1 2.5\r\n1\t2 0.5\n", 1))
@example(("3 2 0\n0  1 2.5\n1 2 0.5", 1))
@example(("3 3 0\n0 1 nan\n0 2 inf\n1 2 1e400\n", 1))
@example(("3 2 0\n0 1 -0.0\n+1 1_0 +3\n", 1))
@example(("3 2 0\n0 1 \u0663.\u0665\n1 2\u00a01\n", 1))
@example(("3 2 0\n0 1 1_0\n-1 2 1\n", 1))
@example(("3 2 0\n0 -1 1\n1 2 1\n", 1))
@example(("3 3 0\n0 1\n1 2 3\n0 2\n", 1))
@example(("5 2 0\n0 1 2 3\n1 2\n", 1))
@example(("3 2 0\n0 1 -2\n1 2 1\n", 1))
def test_column_and_line_parsers_agree_on_edge_lists(case):
    text, _ = case
    _assert_paths_agree(
        parse_edge_list, _edge_list_columns, _parse_edge_list_lines, text
    )


@settings(max_examples=400, deadline=None)
@given(_graph_texts(dimacs=True))
@example(("p sp 3 2\na 1 2 2.5\na 2 3 0.5\n", 1))
@example(("c x\np sp 3 2\n\na 1 2 2.5\r\na 2\t3 0.5\n", 1))
@example(("p sp 3 2\na 1  2 2.5\na 2 3 0.5", 2))
@example(("p sp 3 3\na 1 2 nan\na 1 3 inf\na 2 3 1e400\n", 1))
@example(("p sp 3 2\na 1 2 -0.0\na +2 1_0 +3\n", 1))
@example(("p sp 3 2\na 1 0 1\na -1 2 1\n", 1))
@example(("p sp 3 2\na 1 2 1 1\na 2 3\n", 1))
@example(("p sp 3 2\na 1 2 3 a 2 3 1\n\n", 1))
@example(("p sp 3 2\nc 1 2 3\na 1 2 1\na 2 3 1\n", 1))
@example(("p sp 2 1\nc 1 2 3\n", 1))
@example(("p sp 3 2\na 1 2 -2\na 2 3 1\n", 4))
def test_column_and_line_parsers_agree_on_dimacs(case):
    text, source = case
    _assert_paths_agree(
        parse_dimacs_sp, _dimacs_columns, _parse_dimacs_lines, text, source
    )


@pytest.mark.parametrize("seed", range(-1, 6))
def test_canonical_serializations_take_the_column_path(seed):
    if seed < 0:
        g = Graph.from_arcs(1, 0, [])
    else:
        g = gen_random_digraph(1 + 9 * seed, 1 + 30 * seed, seed)
        m = g.arc_count
        k = min(3, m)
        ws = g.weights[: m - k] + (0.0, -0.0, 1e300)[:k]
        g = Graph(g.node_count, seed % g.node_count, g.offsets, g.heads, ws, m)
    assert _edge_list_columns(serialize_edge_list(g)) == g
    assert _dimacs_columns(serialize_dimacs_sp(g), g.source + 1) == g


def test_column_path_declines_fewer_arcs_than_nodes_or_than_the_text_holds():
    for text in ("3 1 0\n0 1 1.0\n", "2 50 0\n0 1 1.0\n"):
        assert _edge_list_columns(text) is None
    assert parse_edge_list("3 1 0\n0 1 1.0\n") == Graph.from_arcs(3, 0, [(0, 1)])
    assert _dimacs_columns("p sp 3 1\na 1 2 1.0\n", 1) is None


def test_column_path_spans_many_slices():
    g = gen_random_digraph(3000, 12000, 5)
    text = serialize_edge_list(g)
    assert len(text) > 4 * actree.graph._CHUNK
    assert _edge_list_columns(text) == g
    assert _edge_list_columns(text.rstrip("\n")) == g
    bad = text[: len(text) // 2] + "#" + text[len(text) // 2 :]
    assert _edge_list_columns(bad) is None


def test_prune_identity_on_reachable(diamond):
    pruned, remap = prune_unreachable(diamond)
    assert pruned == diamond
    assert list(remap) == [0, 1, 2, 3]
    with pytest.raises(TypeError):
        remap[0] = 1


def test_prune_drops_unreachable():
    g = Graph.from_arcs(3, 0, [(0, 1)])
    pruned, remap = prune_unreachable(g)
    assert pruned.node_count == 2
    assert remap == (0, 1, None)
    with pytest.raises(TypeError):
        remap[2] = 2
    assert list(pruned.arcs()) == [(0, 1, 1.0)]
    again, remap2 = prune_unreachable(pruned)
    assert again == pruned and list(remap2) == [0, 1]


def test_prune_single_node(single):
    pruned, remap = prune_unreachable(single)
    assert pruned == single and list(remap) == [0]


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


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gen_complete_with_a_seed_is_the_int_nesting_spec(seed):
    for k in range(1, 9):
        a, b = gen_complete(k, seed), gen_nested(k, seed)
        assert a == b
        assert list(map(repr, a.weights)) == list(map(repr, b.weights))


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
    g = gen_nested((outer, 0, inner), seed=0)
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
    assert again == pruned and list(remap) == list(range(pruned.node_count))


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

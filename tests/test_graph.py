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
    InvalidFamilyError,
    NegativeWeightError,
    build_ac_tree,
    dijkstra,
    family_width,
    gen_nested,
    is_module,
    parse_dimacs_sp,
    parse_edge_list,
    prune_unreachable,
    recursive_dijkstra,
    serialize_dimacs_sp,
    serialize_edge_list,
)
from actree.graph import _DIMACS, _EDGE_LIST, _parse_columns, _parse_lines
from random_graphs import (
    gen_complete,
    gen_layered,
    gen_random_dag,
    gen_random_digraph,
    small_graphs,
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


def _never_read():
    raise AssertionError("an arc was read")
    yield


@pytest.mark.parametrize("arcs", [
    [],
    [(0, 1, 1.0)] * 3,
    [(0, 1), (0,)],  # a malformed arc is not named before the node count
    (arc for arc in _never_read()),
])
def test_from_arcs_names_a_node_count_too_large_to_allocate(arcs):
    """Both paths check the node count before they read an arc."""
    with pytest.raises(GraphError, match="^node count 100000000000000000000 is too large"):
        Graph.from_arcs(10**20, 0, arcs)


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


@pytest.mark.parametrize("parse, text, message, line", [
    (parse_edge_list, "1 2\n", "expected header 'n m s'", 1),
    (parse_edge_list, "a b c\n", "expected integer header 'n m s'", 1),
    (parse_edge_list, "0 0 0\n", "node count must be positive", 1),
    (parse_edge_list, "2 -1 0\n", "arc count must be non-negative", 1),
    (parse_dimacs_sp, "p sp x 1\n", "expected problem line 'p sp <n> <m>'", 1),
    (parse_dimacs_sp, "p sp 0 0\n", "node count must be positive", 1),
    (parse_dimacs_sp, "p sp 2 -1\n", "arc count must be non-negative", 1),
    (parse_dimacs_sp, "p sp 1 0\nx 1\n", "unknown line tag 'x'", 2),
    (parse_dimacs_sp, "c only\n", "missing problem line 'p sp <n> <m>'", None),
])
def test_header_and_tag_errors_name_the_line(parse, text, message, line):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert type(exc.value) is FormatError
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")
    assert exc.value.line == line


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


def test_serializers_write_each_formats_header_tag_and_ids():
    """Arcs in storage order, so ``0 2`` before ``1 2``, and each weight's
    ``repr``; DIMACS drops the source and counts ids from 1."""
    g = Graph.from_arcs(3, 0, [(0, 1, 0.1), (1, 2, 1e-05), (0, 2, 1e+20)])
    assert serialize_edge_list(g) == "3 3 0\n0 1 0.1\n0 2 1e+20\n1 2 1e-05\n"
    assert serialize_dimacs_sp(g) == "p sp 3 3\na 1 2 0.1\na 1 3 1e+20\na 2 3 1e-05\n"


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
        Graph(0, (0, 1, 1), (1,), (bad,))


def test_malformed_fields_raise_graph_error_not_type_error():
    with pytest.raises(GraphError, match=r"arc 0->1 has weight 'x', not a float"):
        Graph(0, (0, 1, 1), (1,), ("x",))
    with pytest.raises(GraphError, match=r"node_count '3' is not an integer"):
        Graph.from_arcs("3", 0, [])
    with pytest.raises(GraphError, match=r"arcs must be an iterable"):
        Graph.from_arcs(2, 0, None)
    with pytest.raises(GraphError, match=r"source '0' out of range"):
        Graph("0", (0, 0, 0), (), ())
    with pytest.raises(GraphError, match=r"heads is not a tuple"):
        Graph(0, (0, 1, 1), [1], (1.0,))


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


def _peak_and_held(build) -> tuple[int, int]:
    """The bytes ``build()`` allocates at its peak and the bytes its result
    holds, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build()  # alive while its bytes are read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del g
    return peak - base, held - base


def test_ingest_peaks_within_a_small_multiple_of_the_graph_it_returns():
    """The counting sort consumes its input columns and the parsers free
    their id table first, so a parse peaks at under twice the graph it
    returns (about 1.6 times); ``from_arcs`` reads a list of arcs twice and
    holds no column list of them, so it too peaks at under twice (about
    1.6 times). A comment line sends a text to the line parser, which
    holds the lines of one slice at a time and takes tails and heads from
    one id table, so it too peaks at about 1.65 times."""
    g = gen_random_digraph(1 << 14, 4 << 14, seed=18)
    edges, dimacs = serialize_edge_list(g), serialize_dimacs_sp(g)
    for parse, text in ((parse_edge_list, edges), (parse_edge_list, "# a comment\n" + edges),
                        (parse_dimacs_sp, dimacs), (parse_dimacs_sp, "c a comment\n" + dimacs)):
        peak, held = _peak_and_held(lambda: parse(text))
        assert peak <= 2.0 * held, (parse.__name__, text[:12], peak / held)
    arcs = list(g.arcs())
    peak, held = _peak_and_held(lambda: Graph.from_arcs(g.node_count, g.source, arcs))
    assert peak <= 2.0 * held, peak / held


def test_from_arcs_names_a_tail_out_of_range():
    # GraphError is a ValueError: the conversion handler must not swallow it
    for tail in (2, -1):
        with pytest.raises(GraphError) as info:
            Graph.from_arcs(2, 0, [(0, 1), (tail, 0, 1.0)])
        assert str(info.value) == f"arc ({tail}, 0, 1.0): tail is not a node id"


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


# ---------------------------------------------------------------------------
# from_arcs' two passes against the per-arc loop
# ---------------------------------------------------------------------------

class _Weight(float):
    """A float subclass: ``float`` turns it into a plain float."""


def _built(build, *args):
    """The fields of the graph ``build(*args)`` returns, with each weight's
    type, or the type and message of the error it raises."""
    try:
        g = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return g.source, g.offsets, g.heads, g.weights, list(map(type, g.weights))


@st.composite
def _arc_lists(draw):
    """A node count, a source and a list of 2- and 3-tuple arcs with weights
    of several types, with at most one bad arc at a random position."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n - 1))
    node = st.integers(0, n - 1)
    weight = st.one_of(
        st.floats(0, 100), st.integers(0, 100), st.booleans(),
        st.floats(0, 100).map(repr), st.floats(0, 100).map(_Weight),
    )
    pairs, triples = st.tuples(node, node), st.tuples(node, node, weight)
    arc = draw(st.sampled_from([pairs, triples, st.one_of(pairs, triples)]))
    arcs = draw(st.lists(arc, max_size=8))
    far = draw(st.integers(1, n + 1))  # -far and n - 1 + far are no node ids
    bad = draw(st.sampled_from([
        None, None, None, (-far, 0, 1.0), (n - 1 + far, 0, 1.0), (0.0, 0, 1.0),
        (0, 0, "x"), (0, 0, None), (0, 0, 10**400), (0, 0, math.nan), (0, 0, math.inf),
        (0, 0, -1.0), (0, n, 1.0), (0, -far), (0, 1.0, 1.0), (0, "0", 1.0), (0, True),
    ]))
    if bad is not None:
        arcs.insert(draw(st.integers(0, len(arcs))), bad)
    return n, s, arcs


@settings(max_examples=400, deadline=None)
@given(_arc_lists(), st.sampled_from([list, tuple, iter]))
@example((2, 1, [(0, 1, 2.5), (1, 0, "0.5")]), list)
@example((2, 0, [(0, 1, 2.5), (1, 0)]), tuple)
@example((2, 0, [(0, 1, 2.5), (0, 1, math.nan), (1, 0, -1.0)]), list)
def test_from_arcs_builds_what_the_per_arc_loop_builds(case, container):
    n, s, arcs = case
    # a fresh container for each side, since a generator is read once
    assert _built(Graph.from_arcs, n, s, container(arcs)) == _built(
        actree.graph._from_arcs_loop, n, s, container(arcs)
    )


class _LoopCalled(Exception):
    pass


def test_only_a_valid_list_or_tuple_of_three_tuples_skips_the_per_arc_loop():
    g = gen_random_digraph(300, 900, seed=20)
    arcs = list(g.arcs())
    bad = arcs[:5] + [(1, 2, math.nan)]  # the two passes read it, the C check fails it
    with mock.patch.object(actree.graph, "_from_arcs_loop", side_effect=_LoopCalled):
        assert Graph.from_arcs(g.node_count, g.source, arcs) == g
        assert Graph.from_arcs(g.node_count, g.source, tuple(arcs)) == g
        for fallback in (bad, iter(arcs), arcs + [(0, 1)]):
            with pytest.raises(_LoopCalled):
                Graph.from_arcs(g.node_count, g.source, fallback)
    with pytest.raises(GraphError, match="arc 1->2 has non-finite weight nan"):
        Graph.from_arcs(g.node_count, g.source, bad)


def test_non_text_and_non_family_arguments_raise_typed_errors():
    for parse in (parse_edge_list, parse_dimacs_sp):
        for text, named in ((None, "NoneType"), (b"2 1 0\n0 1 1\n", "bytes")):
            with pytest.raises(GraphError) as info:
                parse(text)
            assert type(info.value) is GraphError
            assert str(info.value) == f"text must be a str, not {named}"
    g = gen_complete(2)
    cases = [
        (None, "family must be an iterable of node sets, not NoneType"),
        ([1, 2], "family member 1 is not a set of node ids"),
        ([[[0]]], "family member [[0]] is not a set of node ids"),
        ([[0, "a"]], "family member [0, 'a'] is not a set of node ids"),
        ([[0, None]], "family member [0, None] is not a set of node ids"),
        ([[0, 1], [0], [1], [0, 5]], "set [0, 5] has out-of-range nodes"),
    ]
    for family, message in cases:
        with pytest.raises(InvalidFamilyError) as info:
            family_width(g, family)
        assert str(info.value) == message
    for nodes, named in ((None, "NoneType"), (3, "int")):
        with pytest.raises(InvalidFamilyError) as info:
            is_module(g, nodes)
        assert str(info.value) == f"is_module: nodes must be an iterable of node ids, not {named}"


def test_parsers_report_non_finite_weights_by_line():
    with pytest.raises(FormatError) as exc:
        parse_edge_list("2 1 0\n0 1 nan")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_dimacs_sp("p sp 2 1\na 1 2 inf")
    assert exc.value.line == 2


# ---------------------------------------------------------------------------
# Column-at-a-time parsing against the line parser
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
    return _column_path(parse_edge_list, "_parse_lines", text)


def _dimacs_columns(text: str, source: int):
    return _column_path(parse_dimacs_sp, "_parse_lines", text, source)


def _edge_list_lines(text: str):
    return _parse_lines(text, _EDGE_LIST, None)


def _dimacs_lines(text: str, source: int):
    return _parse_lines(text, _DIMACS, source)


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
@example(("2 1 0\n0 1 0.5\n", 1))  # a single arc: one-token columns
@example(("2 1 0\n0 1 0.5", 1))
@example(("2 1 0\n0  1 0.5\n", 1))  # an empty field
@example(("3 2 0\n0  1 0.5\n1 2 1\n", 1))
@example(("2 1 0\n 0 1\n", 1))
@example(("3 2 0\n0 1 0.5\n1 2 \n", 1))
@example(("2 1 0\n0 +1 0.5\n", 1))  # ids spelled another way
@example(("2 1 0\n01 1 0.5\n", 1))
@example(("3 2 0\n0 1 0.5\n+1 2 1\n", 1))
@example(("3 2 0\n0 01 0.5\n1 2 1\n", 1))
@example(("2 1 0\n0 2 0.5\n", 1))  # a head out of range
@example(("3 2 0\n0 1 0.5\n1 3 1\n", 1))
def test_column_and_line_parsers_agree_on_edge_lists(case):
    text, _ = case
    _assert_paths_agree(
        parse_edge_list, _edge_list_columns, _edge_list_lines, text
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
@example(("p sp 2 1\na 1 2 0.5\n", 1))  # a single arc: one-token columns
@example(("p sp 2 1\na 1 2 0.5", 2))
@example(("p sp 2 1\na 1  2 0.5\n", 1))  # an empty field
@example(("p sp 3 2\na  1 2 0.5\na 2 3 1\n", 1))
@example(("p sp 3 2\na 1 2 0.5\na 2 3 \n", 1))
@example(("p sp 2 1\na 1 +2 0.5\n", 1))  # ids spelled another way
@example(("p sp 2 1\na 01 2 0.5\n", 1))
@example(("p sp 3 2\na 1 2 0.5\na +2 3 1\n", 1))
@example(("p sp 3 2\na 1 02 0.5\na 2 3 1\n", 1))
@example(("p sp 2 1\na 1 3 0.5\n", 1))  # a head out of range
@example(("p sp 3 2\na 1 2 0.5\na 2 0 1\n", 1))
def test_column_and_line_parsers_agree_on_dimacs(case):
    text, source = case
    _assert_paths_agree(
        parse_dimacs_sp, _dimacs_columns, _dimacs_lines, text, source
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
        g = Graph(seed % g.node_count, g.offsets, g.heads, ws)
    assert _edge_list_columns(serialize_edge_list(g)) == g
    assert _dimacs_columns(serialize_dimacs_sp(g), g.source + 1) == g


def test_column_path_declines_fewer_arcs_than_nodes_or_than_the_text_holds():
    for text in ("3 1 0\n0 1 1.0\n", "2 50 0\n0 1 1.0\n"):
        assert _edge_list_columns(text) is None
    assert parse_edge_list("3 1 0\n0 1 1.0\n") == Graph.from_arcs(3, 0, [(0, 1)])
    assert _dimacs_columns("p sp 3 1\na 1 2 1.0\n", 1) is None


@st.composite
def _graphs_with_unreachable_nodes(draw):
    """A random digraph with one to four unreachable nodes, ids shuffled;
    the unreachable nodes have arcs to any node."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    g = gen_random_digraph(n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 99)))
    ids = draw(st.permutations(range(n + k)))
    arcs = [(ids[u], ids[v], w) for u, v, w in g.arcs()]
    arcs += draw(st.lists(
        st.tuples(st.sampled_from(ids[n:]), st.sampled_from(ids), st.floats(0, 100)),
        max_size=6,
    ))
    return Graph.from_arcs(n + k, ids[g.source], draw(st.permutations(arcs)))


@st.composite
def _nested_specs(draw, depth: int = 3):
    """A valid ``gen_nested`` spec of at most ``depth`` levels, and its node count."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            k = draw(st.integers(1, 4))
            return k, k
        g = draw(small_graphs())
        return g, g.node_count
    outer, n_outer = draw(_nested_specs(depth - 1))
    inner, n_inner = draw(_nested_specs(depth - 1))
    return (outer, draw(st.integers(0, n_outer - 1)), inner), n_outer - 1 + n_inner


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parsed_graphs_pass_the_full_constructor(data):
    """The paths that build a graph without ``Graph``'s checks, having made
    them themselves (the three parse paths, pruning a graph with
    unreachable nodes, both ``from_arcs`` paths and ``gen_nested``), return
    graphs that pass those checks all the same."""
    dimacs = data.draw(st.booleans())
    text, source = data.draw(_graph_texts(dimacs))
    if dimacs:
        parsers = (parse_dimacs_sp, _dimacs_columns, _dimacs_lines)
        args = (text, source)
    else:
        parsers = (parse_edge_list, _edge_list_columns, _edge_list_lines)
        args = (text,)
    builds = [(parse, *args) for parse in parsers]
    n, s, arcs = data.draw(_arc_lists())
    builds += [(Graph.from_arcs, n, s, make(arcs)) for make in (list, tuple, iter)]
    spec, _ = data.draw(_nested_specs())
    graphs = [
        prune_unreachable(data.draw(_graphs_with_unreachable_nodes()))[0],
        gen_nested(spec, data.draw(st.integers(0, 99))),
    ]
    for build, *build_args in builds:
        try:
            graphs.append(build(*build_args))
        except GraphError:
            continue
    for g in graphs:
        if g is not None:
            assert Graph(g.source, g.offsets, g.heads, g.weights) == g
            assert all(type(v) is int for v in g.heads)

def _one_line_last_slice(dimacs: bool, last: str) -> tuple[str, int]:
    """A 3-node text whose body fills whole slices of exactly ``_CHUNK``
    characters with 16-character arcs and then holds the line ``last``."""
    line = "a 1 2 0.5000000\n" if dimacs else "0 1 0.500000000\n"
    assert len(line) == 16 and actree.graph._CHUNK % 16 == 0
    full = actree.graph._CHUNK // 16
    head = f"p sp 3 {full + 1}\n" if dimacs else f"3 {full + 1} 0\n"
    text = head + line * full + last
    assert text.rfind("\n", len(head), len(head) + actree.graph._CHUNK) + 1 == len(
        text
    ) - len(last)  # the slice before the last ends where ``last`` starts
    return text, 1


@pytest.mark.parametrize("last, last_dimacs, taken", [
    ("1 2 0.5\n", "a 2 3 0.5\n", True),
    ("1 2 0.5", "a 2 3 0.5", True),
    ("1  2 0.5\n", "a 2  3 0.5\n", False),  # an empty field
    ("1 2 \n", "a 2 3 \n", False),
    ("+1 2 0.5\n", "a +2 3 0.5\n", False),  # ids spelled another way
    ("1 02 0.5\n", "a 2 03 0.5\n", False),
    ("1 3 0.5\n", "a 2 4 0.5\n", False),  # a head out of range
    ("1 2 -1\n", "a 2 3 -1\n", False),
])
@pytest.mark.parametrize("dimacs", [False, True])
def test_a_last_slice_of_one_line(dimacs, last, last_dimacs, taken):
    """One-token columns at the end of a text many slices long."""
    if dimacs:
        last = last_dimacs
        parse, columns, spec = parse_dimacs_sp, _dimacs_columns, _dimacs_lines
    else:
        parse, columns, spec = parse_edge_list, _edge_list_columns, _edge_list_lines
    text, source = _one_line_last_slice(dimacs, last)
    args = (text, source) if dimacs else (text,)
    assert (columns(*args) is not None) == taken
    _assert_paths_agree(parse, columns, spec, *args)


_SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SEPARATORS), st.text("ab \t", max_size=6))),
       st.integers(1, 8))
def test_line_slices_split_as_splitlines_does(parts, chunk):
    """The line parser's lines, read one slice at a time, are the text's
    ``splitlines()`` whatever separators it mixes and wherever the slices
    end, a slice of a few characters included."""
    text = "".join(parts)
    with mock.patch.object(actree.graph, "_CHUNK", chunk):
        assert list(actree.graph._lines(text)) == text.splitlines()


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


def test_gen_random_digraph_reachable_and_deterministic():
    assert gen_random_digraph(1, 0, 0).node_count == 1
    g = gen_random_digraph(50, 200, 7)
    pruned, _ = prune_unreachable(g)
    assert pruned == g
    assert serialize_edge_list(g) == serialize_edge_list(gen_random_digraph(50, 200, 7))


def test_gen_random_dag_is_acyclic():
    g = gen_random_dag(10, 20, 3)
    assert all(u != v for u, v, _ in g.arcs())
    assert all(u < v for u, v, _ in g.arcs())
    pruned, _ = prune_unreachable(g)
    assert pruned == g


@pytest.mark.parametrize("call, message", [
    (lambda: gen_nested(3, seed=[1]),
     "seed [1] is not None, an int, a float, a str, bytes or a bytearray"),
    (lambda: gen_nested(None, 0), "spec None is empty"),
    (lambda: gen_nested((), 0), "spec () is empty"),
    (lambda: gen_nested(0, 0), "spec part 0: a component needs at least one node"),
    (lambda: gen_nested((2, 2, 3), 0),
     "spec (2, 2, 3): node 2 is not one of the outer part's 2 nodes"),
    (lambda: gen_nested((2, 1), 0),
     "spec part (2, 1) is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested((2, 1, "x"), 0),
     "spec part 'x' is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested(True, 0),
     "spec part True is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested((2, 0, True), 0),
     "spec part True is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested(3, seed=(1, 2)),
     "seed (1, 2) is not None, an int, a float, a str, bytes or a bytearray"),
    (lambda: gen_nested(-1, 0), "spec part -1: a component needs at least one node"),
    (lambda: gen_nested(2.0, 0),
     "spec part 2.0 is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested((2, 0, 3, 1), 0),
     "spec part (2, 0, 3, 1) is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested([2, 0, 3], 0),
     "spec part [2, 0, 3] is not an int, a Graph or an (outer, at, inner) triple"),
    (lambda: gen_nested((2, -1, 3), 0),
     "spec (2, -1, 3): node -1 is not one of the outer part's 2 nodes"),
    (lambda: gen_nested((2, True, 3), 0),
     "spec (2, True, 3): node True is not one of the outer part's 2 nodes"),
    (lambda: gen_nested((2, 1.0, 3), 0),
     "spec (2, 1.0, 3): node 1.0 is not one of the outer part's 2 nodes"),
    # the outer part of a triple may itself be nested: (2, 0, 2) has 3 nodes
    (lambda: gen_nested(((2, 0, 2), 3, 1), 0),
     "spec ((2, 0, 2), 3, 1): node 3 is not one of the outer part's 3 nodes"),
    # an error deep inside names the innermost part at fault
    (lambda: gen_nested((2, 0, (2, 5, 1)), 0),
     "spec (2, 5, 1): node 5 is not one of the outer part's 2 nodes"),
    (lambda: gen_nested((2, 0, (2, 1, -3)), 0),
     "spec part -3: a component needs at least one node"),
])
def test_generators_raise_a_typed_error_naming_the_argument(call, message):
    with pytest.raises(GraphError) as info:
        call()
    assert type(info.value) is GraphError and isinstance(info.value, ValueError)
    assert str(info.value) == message


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
    assert Graph(s, g.offsets, g.heads, g.weights) == g
    assert (g.node_count, g.arc_count) == (n, len(arcs))
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

    def build(offsets=off, hs=heads, ws=weights):
        return Graph(s, offsets, hs, ws)

    # one offset fewer is one node fewer: no node at all, a last row that
    # ends short of the arcs, or a graph whose source and heads must fit
    if n == 1:
        with pytest.raises(GraphError, match=r"at least one node"):
            build(offsets=off[:-1])
    elif off[-2] < m:
        with pytest.raises(GraphError, match=rf"offsets\[{n - 1}\] is not"):
            build(offsets=off[:-1])
    elif s < n - 1 and max(heads, default=0) < n - 1:
        fewer = build(offsets=off[:-1])
        assert (fewer.node_count, fewer.arc_count) == (n - 1, m)
    else:
        with pytest.raises(GraphError, match=r"^source|: target is not"):
            build(offsets=off[:-1])
    if m:
        with pytest.raises(GraphError, match=r"^heads \(\d+ entries\) and weights"):
            build(hs=heads[:-1])
        with pytest.raises(GraphError, match=rf"rising from 0 to arc_count {m - 1}"):
            build(hs=heads[:-1], ws=weights[:-1])
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


# ---------------------------------------------------------------------------
# The counting sort's graphs: built without the constructor's offset and
# weight-type checks, the same graphs all the same
# ---------------------------------------------------------------------------

def _csr_corpus() -> list[Graph]:
    graphs = [Graph.from_arcs(1, 0, []), Graph.from_arcs(3, 2, [(2, 0), (0, 1, 3)])]
    graphs += [gen_random_digraph(n, 3 * n, seed=n) for n in (1, 2, 9, 40, 300)]
    graphs += [gen_random_dag(n, 2 * n, seed=n) for n in (2, 9, 40, 300)]
    graphs += [gen_nested(spec, seed=5) for spec in (3, (3, 1, (4, 2, 3)), ((2, 0, 2), 1, 2))]
    graphs += [gen_complete(6, seed=1), gen_complete(4), gen_layered(9, seed=3)]
    graphs += [parse_edge_list(serialize_edge_list(g)) for g in graphs[:9]]
    graphs += [parse_dimacs_sp(serialize_dimacs_sp(g), g.source + 1) for g in graphs[:9]]
    graphs += [_edge_list_lines("3 2 1\n# a comment\n1 0\n1 2 0.5\n")]
    return graphs


def test_counting_sort_graphs_pass_the_full_constructor():
    for g in _csr_corpus():
        again = Graph(g.source, g.offsets, g.heads, g.weights)
        assert again == g
        assert all(type(x) is int for x in g.offsets + g.heads)
        assert all(type(w) is float for w in g.weights)


BAD_ARCS = [
    ((1, 3, 1.0), GraphError, "arc 1->3: target is not a node id"),
    ((1, -1, 1.0), GraphError, "arc 1->-1: target is not a node id"),
    ((1, "2", 1.0), GraphError, "arc 1->'2': target is not a node id"),
    ((1, True, 1.0), GraphError, "arc 1->True: target is not a node id"),
    ((1, 2.0, 1.0), GraphError, "arc 1->2.0: target is not a node id"),
    ((1, 2, -1.0), NegativeWeightError, "arc 1->2 has weight -1.0"),
    ((1, 2, "nan"), GraphError, "arc 1->2 has non-finite weight nan"),
    ((1, 2, math.inf), GraphError, "arc 1->2 has non-finite weight inf"),
    ((1, 2, -math.inf), GraphError, "arc 1->2 has non-finite weight -inf"),
]


@pytest.mark.parametrize("arc, error, message", BAD_ARCS)
def test_from_arcs_names_a_bad_head_or_weight(arc, error, message):
    with pytest.raises(GraphError) as raised:
        Graph.from_arcs(3, 0, [(0, 1, 1.0), arc, (2, 0)])
    assert type(raised.value) is error and str(raised.value) == message


BAD_LINES = [
    ("1 3 1.0", FormatError, "line 3: arc 1->3: node id out of range"),
    ("1 2 -1.0", NegativeWeightError, "line 3: negative weight -1.0"),
    ("1 2 nan", FormatError, "line 3: weight nan is not finite"),
    ("1 2 inf", FormatError, "line 3: weight inf is not finite"),
    ("1 2 -inf", FormatError, "line 3: weight -inf is not finite"),
]


@pytest.mark.parametrize("line, error, message", BAD_LINES)
def test_parsers_hand_a_bad_head_or_weight_to_the_line_parser(line, error, message):
    """The canonical layout reaches the column parser, which returns None on
    the bad arc; the line parser then raises its error naming the line."""
    u, v, w = line.split()
    texts = [
        (f"3 2 0\n0 1 1.0\n{line}\n", parse_edge_list, _edge_list_lines, _EDGE_LIST),
        (f"p sp 3 2\na 1 2 1.0\na {int(u) + 1} {int(v) + 1} {w}\n", parse_dimacs_sp,
         lambda text: _dimacs_lines(text, 1), _DIMACS),
    ]
    for text, parse, by_lines, fmt in texts:
        assert _parse_columns(text, 3, 2, 0, fmt) is None
        for read in (parse, by_lines):
            with pytest.raises(GraphError) as raised:
                read(text)
            assert type(raised.value) is error
            if fmt.base:  # DIMACS ids are 1-based
                message = message.replace("arc 1->3", "arc 2->4")
            assert str(raised.value) == message


TWO_FAULT_LINES = [
    ("3 2 0\n0 1 1.0\n0 5 -1.0\n", parse_edge_list, _edge_list_lines, _EDGE_LIST,
     NegativeWeightError, "line 3: negative weight -1.0"),
    ("p sp 3 2\na 1 2 1.0\na 1 9 -1.0\n", parse_dimacs_sp,
     lambda text: _dimacs_lines(text, 1), _DIMACS,
     FormatError, "line 3: arc 1->9: node id out of range"),
]


@pytest.mark.parametrize("text, parse, by_lines, fmt, error, message", TWO_FAULT_LINES,
                         ids=["edge-list", "dimacs"])
def test_a_line_with_a_bad_id_and_a_bad_weight_names_the_formats_first(
    text, parse, by_lines, fmt, error, message
):
    """An edge list names the weight before the id out of range, and DIMACS
    names the id first: each format keeps its own order of checks."""
    assert _parse_columns(text, 3, 2, 0, fmt) is None
    for read in (parse, by_lines):
        with pytest.raises(GraphError) as raised:
            read(text)
        assert type(raised.value) is error and str(raised.value) == message
        assert raised.value.line == 3

"""Only typed errors escape the public entry points: random texts through
both parsers, random result columns through ``verify_spt``, and random
files through the CLI, which answers each with exit code 0, 2 or 3."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actree import (
    GraphError,
    ShortestPathResult,
    cli,
    dijkstra,
    parse_dimacs_sp,
    parse_edge_list,
    serialize_dimacs_sp,
    serialize_edge_list,
    verify_spt,
)
from random_graphs import small_graphs

# Every token a line of either format can start with or hold, and some that
# break one: signs, leading zeros, underscores, a non-ASCII digit, floats
# past every bound. An id token stays within three digits, so no header
# asks for more than 999 nodes.
TOKENS = st.sampled_from([
    "0", "1", "2", "3", "7", "-1", "+1", "01", "1_0", "٣", "a", "p", "sp", "c", "#",
    "x", "1.5", "-0.5", "-0.0", "1e-320", "nan", "inf", "-inf", "1e308", "1e400", "",
]) | st.text(max_size=3)
SEPARATORS = st.sampled_from([" ", "  ", "\t"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", ""])


@st.composite
def texts(draw) -> str:
    """Lines of random tokens, or a graph written by a serializer with up
    to two tokens replaced, so that both the line and the column parser run
    and some texts hold a graph."""
    if draw(st.booleans()):
        lines = draw(st.lists(st.lists(TOKENS, max_size=5), max_size=8))
        return "".join(draw(SEPARATORS).join(line) + draw(ENDINGS) for line in lines)
    g = draw(small_graphs())
    tokens = draw(st.sampled_from([serialize_edge_list, serialize_dimacs_sp]))(g).split(" ")
    for _ in range(draw(st.integers(0, 2))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
    return " ".join(tokens)


VALUES = (
    st.integers() | st.sampled_from([10**400, -(10**400), 10**5000, -(10**5000)])
    | st.floats() | st.none() | st.booleans() | st.text(max_size=2)
)


@st.composite
def columns(draw, right: tuple):
    """A ``dist`` or ``parent`` column: ``right`` with up to two values
    replaced, or about ``len(right)`` random values."""
    if draw(st.booleans()):
        values = list(right)
        for _ in range(draw(st.integers(0, 2))):
            values[draw(st.integers(0, len(values) - 1))] = draw(VALUES)
    else:
        n = len(right)
        values = draw(st.lists(VALUES, min_size=max(n - 1, 0), max_size=n + 1))
    return draw(st.sampled_from([list, tuple]))(values)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts(), small_graphs(), st.data())
def test_only_typed_errors_escape_and_the_cli_exits_0_2_or_3(graph_file, text, g, data):
    for parse in (parse_edge_list, parse_dimacs_sp):
        try:
            parse(text)
        except GraphError:
            pass

    right = dijkstra(g)
    result = ShortestPathResult(data.draw(columns(right.dist)), data.draw(columns(right.parent)), None)
    try:
        verify_spt(g, result)
    except GraphError:
        pass

    path = graph_file / data.draw(st.sampled_from(["g.edges", "g.gr"]))
    path.write_bytes(text.encode() + data.draw(st.sampled_from([b"", b"\xff"])))
    argv = data.draw(st.sampled_from([
        ["sssp"], ["sssp", "--verify"], ["sssp", "--algo", "dijkstra", "--verify"],
        ["decompose"], ["width"], ["width", "--exact"],
    ])) + [str(path)]
    if path.suffix == ".gr":
        argv += data.draw(st.sampled_from([[], ["--source", "2"], ["--source", "0"]]))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()

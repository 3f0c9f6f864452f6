"""Shortest-path engines, their statistics, and the result checker."""

from __future__ import annotations

import copy
import math
import pickle
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actree import (
    AcTree,
    DistanceOverflowError,
    Graph,
    GraphError,
    ShortestPathResult,
    SptCheck,
    TreeMismatchError,
    UnreachableNodeError,
    build_ac_tree,
    dijkstra,
    gen_nested,
    prune_unreachable,
    recursive_dijkstra,
    verify_spt,
)
from actree import sssp
from actree.sssp import _spt_holds, _spt_violations
from random_graphs import (
    block_chain,
    gen_complete,
    gen_layered,
    gen_random_dag,
    gen_random_digraph,
    nested_chain,
)

WEIGHTS = st.sampled_from((0.0, 1.0, 2.0))


@st.composite
def small_graphs(draw) -> Graph:
    """Up to 9 nodes: a random arborescence from node 0 plus random arcs.

    Weights come from {0, 1, 2}, so ties and zero-weight cycles are common.
    """
    n = draw(st.integers(1, 9))
    arcs = [(draw(st.integers(0, v - 1)), v, draw(WEIGHTS)) for v in range(1, n)]
    node = st.integers(0, n - 1)
    arcs += draw(st.lists(st.tuples(node, node, WEIGHTS), max_size=3 * n))
    order = draw(st.permutations(range(len(arcs))))
    return Graph.from_arcs(n, 0, [arcs[i] for i in order])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_engines_agree_and_recursive_keeps_its_op_counts(g):
    n = g.node_count
    ref = dijkstra(g)
    assert verify_spt(g, ref)
    tree = build_ac_tree(g)
    rec = recursive_dijkstra(g, tree)
    assert rec.dist == ref.dist
    assert verify_spt(g, rec)
    largest = max(
        (len(c) for comps in tree.components.values() for c in comps), default=0
    )
    assert rec.stats.pops == n
    assert rec.stats.key_decreases <= g.arc_count
    assert rec.stats.max_queue_len == largest <= tree.width - 1


def test_dijkstra_diamond(diamond):
    r = dijkstra(diamond)
    assert r.dist == (0.0, 1.0, 4.0, 3.0)
    assert r.stats.pops == 4
    assert r.stats.max_queue_len == 4
    assert verify_spt(diamond, r)


def test_dijkstra_single(single):
    r = dijkstra(single)
    assert r.dist == (0.0,)
    assert r.parent == (None,)


def test_dijkstra_zero_weight_cycle():
    g = Graph.from_arcs(3, 0, [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)])
    r = dijkstra(g)
    assert r.dist == (0.0, 0.0, 0.0)
    assert verify_spt(g, r)
    tree = build_ac_tree(g)
    assert recursive_dijkstra(g, tree).dist == r.dist


def test_dijkstra_rejects_unpruned_input():
    message = "^1 nodes unreachable from source 0; prune first$"
    with pytest.raises(UnreachableNodeError, match=message):
        dijkstra(Graph.from_arcs(3, 0, [(0, 1)]))
    with pytest.raises(UnreachableNodeError, match="2 nodes unreachable from source 2"):
        dijkstra(Graph.from_arcs(3, 2, [(0, 1), (1, 2)]))


OVERFLOWS = [
    (3, [(0, 1, 1e308), (1, 2, 1e308)]),
    (4, [(0, 1, 1e308), (1, 2, 1e308), (1, 3, 1e308), (2, 3, 1.0), (3, 2, 1.0)]),
    (4, [(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1.0)]),  # 3 is inf only through 2
]


@pytest.mark.parametrize("n, arcs", OVERFLOWS)
def test_both_engines_name_the_node_whose_distance_overflows(n, arcs):
    """Every path to node 2 sums past the largest float; neither engine
    returns ``inf`` for it or blames pruning or the tree."""
    g = Graph.from_arcs(n, 0, arcs)
    assert prune_unreachable(g)[0] is g
    tree = build_ac_tree(g)
    for search in (dijkstra, lambda g: recursive_dijkstra(g, tree)):
        with pytest.raises(DistanceOverflowError) as info:
            search(g)
        assert isinstance(info.value, GraphError) and info.value.node == 2
        assert str(info.value) == (
            "the distance of node 2 overflows: every path to it sums past the"
            " largest float (dist[1] = 1e+308 plus arc 1->2 of weight 1e+308 is inf)"
        )


def test_an_overflowing_path_beside_a_finite_one_is_no_error():
    g = Graph.from_arcs(3, 0, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1.0)])
    assert dijkstra(g).dist == recursive_dijkstra(g, build_ac_tree(g)).dist
    assert dijkstra(g).dist == (0.0, 1e308, 1.0)
    # finite distances whose sum is inf: the engine looks, finds no overflow
    chain = Graph.from_arcs(18, 0, [(u, u + 1, 1e307) for u in range(17)])
    r = recursive_dijkstra(chain, build_ac_tree(chain))
    assert sum(r.dist) == math.inf and r.dist == dijkstra(chain).dist
    assert max(r.dist) < math.inf


def test_recursive_complete3(complete3):
    tree = build_ac_tree(complete3)
    r = recursive_dijkstra(complete3, tree)
    assert r.dist == (0.0, 1.0, 1.0)
    assert r.stats.max_queue_len == 2  # width 3, one two-node component
    assert r.stats.component_sizes == {2: 1}


def test_recursive_layered_queue_bound():
    g = gen_layered(50, seed=5)
    tree = build_ac_tree(g)
    r = recursive_dijkstra(g, tree)
    assert r.dist == dijkstra(g).dist
    assert r.stats.max_queue_len <= 1 == tree.width - 1


def test_recursive_matches_dijkstra_on_random_graphs():
    for i in range(60):
        n = 2 + (i * 17) % 199
        g = gen_random_digraph(n, n + (i * 31) % (3 * n), seed=1400 + i)
        tree = build_ac_tree(g)
        a = dijkstra(g)
        b = recursive_dijkstra(g, tree)
        assert a.dist == b.dist, i
        assert verify_spt(g, a) and verify_spt(g, b)
        assert b.stats.pops == n
        assert b.stats.key_decreases <= g.arc_count
        assert b.stats.max_queue_len <= tree.width - 1


def test_recursive_on_families():
    cases = [
        gen_layered(10, 2),
        gen_nested((3, 2, 3), 4),
        gen_nested((4, 3, (3, 2, 3)), 6),
        gen_complete(8, seed=1),
        gen_random_dag(60, 180, 3),
    ]
    for g in cases:
        tree = build_ac_tree(g)
        assert recursive_dijkstra(g, tree).dist == dijkstra(g).dist


def test_recursive_dag_queues_stay_singleton():
    g = gen_random_dag(300, 1200, seed=12)
    tree = build_ac_tree(g)
    r = recursive_dijkstra(g, tree)
    assert tree.width == 2
    assert r.stats.max_queue_len <= 1
    assert set(r.stats.component_sizes) == {1}


# ---------------------------------------------------------------------------
# The acyclic loop: taken exactly when every component is one node, and
# bit-identical to the loop that drains component queues
# ---------------------------------------------------------------------------

def _segment_len(tree: AcTree, s: int) -> int:
    """The length of ``s``'s plan segment; ``None`` is an empty one."""
    segment = tree.plan[s]
    assert segment is None or type(segment) is tuple and segment
    return len(segment or ())


def _drained(g: Graph, tree: AcTree) -> tuple:
    """``dist``, ``parent`` and stats from the component-queue loop alone,
    on a stand-in for ``tree`` with its plan and every node's arc range
    (a tree of width 2 or less has no ``rows``)."""
    n = g.node_count
    dist = [math.inf] * n
    dist[g.source] = 0.0
    parent = [None] * n
    rows = tuple(map(range, g.offsets, g.offsets[1:]))
    assert tree.rows in (None, rows)
    laid_out = SimpleNamespace(plan=tree.plan, rows=rows)
    pops, decreases = sssp._drain_components(g, laid_out, dist, parent)
    stats = sssp.SearchStats(pops, decreases, tree.width - 1, dict(tree.comp_sizes))
    return tuple(dist), tuple(parent), stats


def _assert_the_acyclic_loop_matches(g: Graph) -> None:
    tree = build_ac_tree(g)
    assert _segment_len(tree, g.source) == g.node_count - 1
    with mock.patch.object(sssp, "_drain_components", side_effect=AssertionError):
        r = recursive_dijkstra(g, tree)
    assert (r.dist, r.parent, r.stats) == _drained(g, tree)
    assert r.dist == dijkstra(g).dist


def _back_to_dominators(g: Graph, k: int, seed: int) -> Graph:
    """``g`` plus ``k`` arcs, each from a random node to one of its
    dominators: cycles that leave every component a single node."""
    rng = random.Random(seed)
    idom = build_ac_tree(g).idom
    arcs = list(g.arcs())
    for _ in range(k):
        u = rng.randrange(g.node_count)
        d = u
        for _ in range(rng.randrange(4)):
            d = idom[d]
        arcs.append((u, d, rng.random()))
    rng.shuffle(arcs)
    return Graph.from_arcs(g.node_count, g.source, arcs)


@pytest.mark.parametrize("seed", range(8))
def test_the_acyclic_loop_matches_the_queue_loop_on_random_dags(seed):
    n = 1 + 37 * seed
    _assert_the_acyclic_loop_matches(gen_random_dag(n, 3 * n, seed=seed))


@pytest.mark.parametrize("seed", range(8))
def test_the_acyclic_loop_serves_cycles_through_dominators(seed):
    n = 2 + 29 * seed
    g = _back_to_dominators(gen_random_dag(n, 2 * n, seed=seed), n, seed)
    assert any(v <= u for u, v, _ in g.arcs())  # not acyclic
    _assert_the_acyclic_loop_matches(g)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_the_acyclic_loop_runs_exactly_when_every_component_is_one_node(g):
    tree = build_ac_tree(g)
    singletons = all(size == 1 for size, _ in tree.comp_sizes)
    assert (_segment_len(tree, g.source) == g.node_count - 1) == singletons
    if singletons:
        _assert_the_acyclic_loop_matches(g)
    else:
        with mock.patch.object(sssp, "_walk_singletons", side_effect=AssertionError):
            r = recursive_dijkstra(g, tree)
        assert (r.dist, r.parent, r.stats) == _drained(g, tree)


def _segment_depth(tree: AcTree, a: int) -> int:
    """How many segments the search has open at most below ``a``'s: the
    longest chain of owners, each a member of a component of two or more
    nodes in the segment of the one before."""
    plan = tree.plan
    deepest = 0
    stack = [(a, 0)]
    while stack:
        a, depth = stack.pop()
        deepest = max(deepest, depth)
        for x in plan[a]:
            if type(x) is tuple:
                stack += [(v, depth + 1) for v in x if plan[v] is not None]
    return deepest


def test_recursive_drains_a_plan_that_nests_2048_segments_deep():
    g = nested_chain(1 << 14)
    tree = build_ac_tree(g)
    assert tree.width == 3 and tree.comp_sizes == ((1, 12287), (2, 2048))
    # the search suspends one heap per block at once
    assert _segment_depth(tree, g.source) == 2048
    r = recursive_dijkstra(g, tree)
    assert r.dist == dijkstra(g).dist
    assert verify_spt(g, r)


def test_recursive_rejects_mismatched_tree(diamond, cycle3):
    tree = build_ac_tree(diamond)
    with pytest.raises(ValueError):
        recursive_dijkstra(cycle3, tree)


def test_recursive_rejects_a_source_that_is_a_singleton_component():
    g = Graph.from_arcs(3, 0, [(0, 2), (2, 1)])
    tree = build_ac_tree(Graph.from_arcs(3, 1, [(1, 0), (0, 2)]))
    assert [len(c) for c in tree.components[1]] == [1]  # 0 is a singleton
    with pytest.raises(TreeMismatchError, match="source 0 is not the root"):
        recursive_dijkstra(g, tree)


def test_recursive_rejects_the_source_inside_a_component():
    g = Graph.from_arcs(3, 0, [(0, 1), (1, 2), (2, 0)])
    tree = build_ac_tree(Graph.from_arcs(3, 2, [(2, 0), (2, 1), (0, 1), (1, 0)]))
    assert tree.components[2] == (frozenset({0, 1}),)
    with pytest.raises(TreeMismatchError, match="source 0 is not the root"):
        recursive_dijkstra(g, tree)


@pytest.mark.parametrize("log2n", [12, 15])
def test_recursive_matches_dijkstra_on_a_block_chain(log2n):
    g = block_chain(1 << log2n, seed=log2n)
    tree = build_ac_tree(g)
    assert 3 <= tree.width <= 9
    off = g.offsets
    assert tree.rows == tuple(range(off[u], off[u + 1]) for u in range(g.node_count))
    r = recursive_dijkstra(g, tree)
    assert list(map(float.hex, r.dist)) == list(map(float.hex, dijkstra(g).dist))
    assert verify_spt(g, r)
    for clone in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
        assert clone == tree and clone.rows == tree.rows and hash(clone) == hash(tree)
        assert recursive_dijkstra(g, clone) == r


PATH = Graph.from_arcs(3, 0, [(0, 1), (1, 2)])  # width 2: the plain walk
# width 3: {1, 2} is one component, drained from its queue
IRREDUCIBLE = Graph.from_arcs(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])


@pytest.mark.parametrize("g", [PATH, IRREDUCIBLE], ids=["walk", "drain"])
def test_a_negative_zero_source_arc_gives_distance_positive_zero(g):
    g = Graph.from_arcs(3, 0, [(u, v, -0.0) for u, v, _ in g.arcs()])
    assert all(float.hex(w) == "-0x0.0p+0" for w in g.weights)
    for r in (dijkstra(g), recursive_dijkstra(g, build_ac_tree(g))):
        # 0.0 + -0.0 is 0.0: every node is reached through dist[s] + w
        assert [float.hex(d) for d in r.dist] == ["0x0.0p+0"] * 3


def _count_heap_calls(monkeypatch) -> Counter:
    """Wrap the heap functions the engines look up in ``actree.sssp``; the
    counter gets each function's calls and, under ``"entries"``, the length
    of every list heapified."""
    calls: Counter = Counter()

    def counting(name, f):
        def counted(heap, *args):
            calls[name] += 1
            if name == "heapify":
                calls["entries"] += len(heap)
            return f(heap, *args)
        return counted

    for name in ("heappush", "heappop", "heapify"):
        monkeypatch.setattr(sssp, name, counting(name, getattr(sssp, name)))
    return calls


def test_recursive_opens_one_heap_per_component_and_pushes_only_on_decreases(monkeypatch):
    calls = _count_heap_calls(monkeypatch)
    g = block_chain(1 << 12, seed=3)
    tree = build_ac_tree(g)
    r = recursive_dijkstra(g, tree)
    assert r.dist == dijkstra(g).dist
    calls.clear()
    r = recursive_dijkstra(g, tree)
    grouped = sum(count for size, count in tree.comp_sizes if size > 1)
    assert grouped > 0
    assert calls["heapify"] == grouped
    assert 0 < calls["heappush"] <= r.stats.key_decreases
    # every heap is drained empty: each entry heapified or pushed is popped
    assert calls["heappop"] == calls["entries"] + calls["heappush"]
    calls.clear()
    dag = gen_random_dag(1 << 10, 3 << 10, seed=3)
    assert recursive_dijkstra(dag, build_ac_tree(dag)).stats.key_decreases > 0
    assert not calls


@pytest.mark.parametrize("k", [0, 7, 29])
def test_topology_mismatch_names_the_first_differing_node(k):
    g = gen_random_digraph(30, 90, seed=k)
    arcs = list(g.arcs())
    i = g.offsets[k]
    u, v, w = arcs[i]
    assert u == k
    arcs[i] = (u, (v + 1) % 30, w)  # one head changed in node k's row
    if k == 29:
        arcs.append((29, 0, 1.0))  # a longer last row: offsets differ too
    other = Graph.from_arcs(30, 0, arcs)
    with pytest.raises(TreeMismatchError, match=rf"the arcs out of node {k} differ"):
        recursive_dijkstra(other, build_ac_tree(g))


def test_mismatched_trees_give_right_answers_or_typed_errors():
    # a tree serves a graph iff their offsets, heads and source are equal
    accepted = 0
    for i in range(3000):
        n = 2 + i % 40
        g = gen_random_digraph(n, n + i % (3 * n), seed=i)
        other = gen_random_digraph(n, n + (i * 7) % (3 * n), seed=10**6 + i)
        tree = build_ac_tree(other)
        if (g.offsets, g.heads, g.source) != (other.offsets, other.heads, other.source):
            with pytest.raises(TreeMismatchError):
                recursive_dijkstra(g, tree)
            continue
        accepted += 1
        assert recursive_dijkstra(g, tree).dist == dijkstra(g).dist, i
    assert accepted == 5


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_a_tree_serves_its_arcs_under_any_weights_and_no_reordering(g, data):
    """The contract: equal offsets, heads and source, whatever the weights."""
    n, off, heads = g.node_count, g.offsets, g.heads
    tree = build_ac_tree(g)
    arcs = list(g.arcs())
    new = data.draw(st.lists(WEIGHTS | st.floats(0.0, 1e3), min_size=len(arcs),
                             max_size=len(arcs)))
    reweighted = Graph.from_arcs(n, 0, [(u, v, x) for (u, v, _), x in zip(arcs, new)])
    assert recursive_dijkstra(reweighted, tree).dist == dijkstra(reweighted).dist

    mixed = [u for u in range(n) if len(set(heads[off[u] : off[u + 1]])) > 1]
    if mixed:
        u = data.draw(st.sampled_from(mixed))
        row = arcs[off[u] : off[u + 1]]
        moved = sorted(row, key=lambda a: a[1])
        if moved == row:
            moved.reverse()
        reordered = Graph.from_arcs(n, 0, arcs[: off[u]] + moved + arcs[off[u + 1] :])
        with pytest.raises(TreeMismatchError, match=rf"another topology: .* node {u} "):
            recursive_dijkstra(reordered, tree)


def test_recursive_accepts_a_tree_built_under_other_weights():
    for seed in range(20):
        g = gen_random_digraph(60, 150, seed=seed)
        reweighted = Graph.from_arcs(60, 0, [(u, v, 50 * w) for u, v, w in g.arcs()])
        tree = build_ac_tree(g)
        assert recursive_dijkstra(reweighted, tree).dist == dijkstra(reweighted).dist


def test_verify_spt_flags_perturbed_distance(diamond):
    r = dijkstra(diamond)
    bumped = list(r.dist)
    bumped[3] += 1.0
    broken = ShortestPathResult(tuple(bumped), r.parent, r.stats)
    check = verify_spt(diamond, broken)
    assert not check
    assert any("improving arc" in v and "->3" in v for v in check.violations)


def test_verify_spt_flags_non_tight_parent(diamond):
    r = dijkstra(diamond)
    parents = list(r.parent)
    parents[3] = 2  # arc exists but 4 + 1 != 3
    broken = ShortestPathResult(r.dist, tuple(parents), r.stats)
    check = verify_spt(diamond, broken)
    assert not check
    assert any("not tight" in v for v in check.violations)


def test_verify_spt_flags_missing_parent(diamond):
    r = dijkstra(diamond)
    parents = list(r.parent)
    parents[2] = None
    broken = ShortestPathResult(r.dist, tuple(parents), r.stats)
    assert not verify_spt(diamond, broken)


@pytest.mark.parametrize(
    "dist, parent",
    [(None, (None, 0, 1)), ((0.0, 1.0, 2.0), 5), ((0.0, 1.0), (None, 0, 1))],
)
def test_verify_spt_rejects_columns_of_the_wrong_size(dist, parent):
    g = Graph.from_arcs(3, 0, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
    check = verify_spt(g, ShortestPathResult(dist, parent, None))
    assert not check
    assert check.violations == ("result arrays do not match the graph size",)


@pytest.mark.parametrize(
    "dist, parent, column",
    [
        ((0.0, 1.0, 2.0), {None, 0, 1}, "parent"),
        ((0.0, 1.0, 2.0), {1: 0, 2: 1, 3: None}, "parent"),
        ({1: 1.0, 2: 2.0, 3: 0.0}, (None, 0, 1), "dist"),
    ],
)
def test_verify_spt_names_a_column_it_cannot_index(dist, parent, column):
    g = Graph.from_arcs(3, 0, [(0, 1, 1.0), (1, 2, 1.0)])
    check = verify_spt(g, ShortestPathResult(dist, parent, None))
    assert not check
    assert check.violations == (f"the {column} column cannot be indexed by node id 0",)


@pytest.mark.parametrize("odd", [None, "2.0", 2j])
def test_verify_spt_names_a_distance_that_is_not_a_number(odd):
    g = Graph.from_arcs(3, 0, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
    broken = ShortestPathResult((0.0, odd, 2.0), (None, 0, 1), dijkstra(g).stats)
    check = verify_spt(g, broken)
    assert not check
    assert check.violations == (f"dist[1]={odd!r} is not an int or float",)


def test_verify_spt_lists_violations_in_check_order():
    # three parallel arcs 0 -> 1, the middle one tight
    arcs = [(0, 1, 2.0), (0, 1, 1.0), (0, 1, 3.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 1.0)]
    g = Graph.from_arcs(4, 0, arcs)
    assert verify_spt(g, ShortestPathResult((0.0, 1.0, 2.0, 3.0), (None, 0, 1, 2), None))
    broken = ShortestPathResult((1.0, 1.0, 3.0, -1.0), (0, 0, 0, None), None)
    assert verify_spt(g, broken).violations == (
        "dist[source]=1.0, expected 0",
        "source has parent 0",
        "node 3 has no parent",
        "dist[3]=-1.0 is not a finite non-negative value",
        "improving arc 1->2 (w=1.0): 1.0 + 1.0 < 3.0",
        "parent arc 0->1 is not tight for dist 1.0",
        "parent arc 0->2 is not tight for dist 3.0",
    )


@pytest.mark.parametrize(
    "parent, named",
    [
        ((None, False, True), ("parent[1]=False", "parent[2]=True")),
        ((None, 0.0, 1.0), ("parent[1]=0.0", "parent[2]=1.0")),
        ((None, 0, 1 + 0j), ("parent[2]=(1+0j)",)),
    ],
    ids=["bool", "float", "complex"],
)
def test_verify_spt_names_parents_that_are_not_node_ids(parent, named):
    # each entry equals the right node id, so every arc check alone holds
    g = Graph.from_arcs(3, 0, [(0, 1, 1.0), (1, 2, 1.0)])
    r = dijkstra(g)
    assert r.parent == (None, 0, 1) and _spt_holds(g, r.dist, r.parent)
    wrong = ShortestPathResult(r.dist, parent, r.stats)
    assert not _spt_holds(g, wrong.dist, wrong.parent)
    expected = SptCheck(tuple(f"{entry} is not a node id" for entry in named))
    assert verify_spt(g, wrong) == _spt_violations(g, wrong) == expected


MUTATIONS = (
    "none", "ulp up", "ulp down", "non-neighbour parent", "no parent",
    "out-of-range parent", "nan", "inf", "-inf", "-0.0", "not a number",
    "parent for the source", "parallel arcs", "parent cycle",
)


def _leads_up_to(parent: list, u: int, v: int) -> bool:
    """Whether the parents from ``u`` reach ``v`` (or ``u`` is ``v``)."""
    while u is not None and u != v:
        u = parent[u]
    return u == v


@settings(max_examples=600, deadline=None)
@given(small_graphs(), st.sampled_from(MUTATIONS), st.data())
def test_verify_spt_returns_exactly_what_its_specification_returns(g, mutation, data):
    """The fast pass may only confirm: every verdict and every violation,
    in order, is the specification loop's."""
    n, s = g.node_count, g.source
    v = data.draw(st.integers(0, n - 1), label="node")
    if mutation == "parallel arcs" and v != s:
        # a heavier copy of v's parent arc, before or after it in the row
        u = dijkstra(g).parent[v]
        arcs = list(g.arcs())
        i = next(i for i, (a, b, _) in enumerate(arcs) if a == u and b == v)
        copy = (u, v, arcs[i][2] + data.draw(st.sampled_from((0.5, 1.0, 1e-9))))
        arcs.insert(i + data.draw(st.integers(0, 1), label="after"), copy)
        g = Graph.from_arcs(n, s, arcs)
    r = dijkstra(g)
    dist, parent = list(r.dist), list(r.parent)
    odd = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0}
    if mutation in odd:
        dist[v] = odd[mutation]
    elif mutation == "ulp up":
        dist[v] = math.nextafter(dist[v], math.inf)
    elif mutation == "ulp down":
        dist[v] = math.nextafter(dist[v], -math.inf)
    elif mutation == "not a number":
        dist[v] = data.draw(st.sampled_from((None, "1.0", 1j)), label="value")
    elif mutation == "no parent":
        parent[v] = None
    elif mutation == "out-of-range parent":
        parent[v] = data.draw(st.sampled_from((n, -1, 10**9)), label="id")
    elif mutation == "parent for the source":
        parent[s] = data.draw(st.integers(0, n - 1), label="id")
    elif mutation == "non-neighbour parent":
        tails = {a for a, b, _ in g.arcs() if b == v}
        others = [x for x in range(n) if x not in tails]
        if others:
            parent[v] = data.draw(st.sampled_from(others), label="id")
    closes_cycle = False
    if mutation == "parent cycle":
        # a tight zero-weight arc as its head's parent arc; one whose tail is
        # the head or below it in the tree closes a cycle, and is preferred
        arcs = [(a, b) for a, b, w in g.arcs() if b != s and w == 0 and dist[a] == dist[b]]
        closing = [(a, b) for a, b in arcs if _leads_up_to(parent, a, b)]
        if arcs:
            u, b = data.draw(st.sampled_from(closing or arcs), label="arc")
            parent[b] = u
            closes_cycle = bool(closing)
    result = ShortestPathResult(tuple(dist), tuple(parent), r.stats)
    check = verify_spt(g, result)
    assert check == _spt_violations(g, result)
    if mutation in ("none", "parallel arcs"):
        assert check.ok
    if mutation == "parent cycle":
        assert check.ok != closes_cycle


def test_verify_spt_rejects_parent_arcs_that_close_a_cycle():
    # every check of a node and an arc holds, but 1 and 2 are each other's
    # tight parent, and neither leads back to the source
    g = Graph.from_arcs(3, 0, [(0, 1, 5.0), (1, 2, 0.0), (2, 1, 0.0)])
    assert dijkstra(g).dist == (0.0, 5.0, 5.0)
    stats = dijkstra(g).stats
    for dist in ((0.0, 0.0, 0.0), (0.0, 5.0, 5.0)):
        wrong = ShortestPathResult(dist, (None, 2, 1), stats)
        check = verify_spt(g, wrong)
        assert check == _spt_violations(g, wrong)
        assert check == SptCheck(("parent arcs close the cycle 1->2->1",))
    # a zero-weight self-loop as a node's parent arc is a cycle of one
    loop = Graph.from_arcs(2, 0, [(0, 1, 1.0), (1, 1, 0.0)])
    wrong = ShortestPathResult((0.0, 1.0), (None, 1), stats)
    assert verify_spt(loop, wrong).violations == ("parent arcs close the cycle 1->1",)
    for g in (g, loop):
        assert verify_spt(g, dijkstra(g))
        assert verify_spt(g, recursive_dijkstra(g, build_ac_tree(g)))


def test_verify_spt_confirms_right_results_without_its_specification(monkeypatch):
    def fail(g, r):
        raise AssertionError("the specification loop ran")

    monkeypatch.setattr(sssp, "_spt_violations", fail)
    cases = [gen_random_digraph(200, 800, seed=3), gen_random_dag(200, 800, seed=4),
             gen_nested((3, 1, (4, 2, 3)), seed=5), Graph.from_arcs(1, 0, [(0, 0, 1.0)])]
    for g in cases:
        assert verify_spt(g, recursive_dijkstra(g, build_ac_tree(g)))
        assert verify_spt(g, dijkstra(g))

"""Shortest-path engines, their statistics, and the result checker."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actree import (
    AcTree,
    Graph,
    ShortestPathResult,
    TreeMismatchError,
    UnreachableNodeError,
    build_ac_tree,
    dijkstra,
    gen_complete,
    gen_layered,
    gen_nested,
    gen_random_dag,
    gen_random_digraph,
    recursive_dijkstra,
    verify_spt,
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


def test_recursive_rejects_mismatched_tree(diamond, cycle3):
    tree = build_ac_tree(diamond)
    with pytest.raises(ValueError):
        recursive_dijkstra(cycle3, tree)


def test_recursive_rejects_the_source_inside_a_component():
    g = Graph.from_arcs(3, 0, [(0, 1), (1, 2), (2, 0)])
    tree = build_ac_tree(Graph.from_arcs(3, 1, [(1, 0), (0, 2)]))
    with pytest.raises(TreeMismatchError, match="source 0"):
        recursive_dijkstra(g, tree)


def test_recursive_rejects_a_tree_that_leaves_nodes_unfinalised():
    g = Graph.from_arcs(3, 0, [(0, 1), (1, 2)])
    tree = build_ac_tree(g)
    assert list(tree.comp_offsets) == [0, 1, 2, 2]
    cut = AcTree(
        tree.idom,
        tree.width,
        tree.comp_id,
        tree.comp_start,
        tree.comp_nodes,
        array("i", [0, 1, 1, 1]),  # comp_offsets without node 2's component
        tree.comp_sizes,
        tree.offsets,
        tree.heads,
    )
    with pytest.raises(TreeMismatchError, match="finalised 2 of 3"):
        recursive_dijkstra(g, cut)


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

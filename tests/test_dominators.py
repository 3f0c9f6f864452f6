"""Dominator tree construction against the removal-definition oracle."""

from __future__ import annotations

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings

from actree import (
    DominatorTree,
    Graph,
    GraphError,
    UnreachableNodeError,
    brute_force_dominated_set,
    build_ac_tree,
    compute_dominator_tree,
    naive_dominance_graph,
)
from actree.dominators import _immediate_dominators
from random_graphs import (
    gen_layered,
    gen_random_digraph,
    ladder,
    nested_loops,
    path_back_arcs,
    path_fan,
    path_star,
    random_arcs_with_loops,
    small_graphs,
    star_back_arcs,
)


def test_diamond_idoms(diamond):
    t = compute_dominator_tree(diamond)
    assert t.idom == (0, 0, 0, 0)
    assert t.children[0] == (1, 2, 3)


def test_cycle_idoms(cycle3):
    t = compute_dominator_tree(cycle3)
    assert t.idom == (0, 0, 1)
    assert 2 in brute_force_dominated_set(cycle3, 1)  # removing a disconnects b


def test_single_node(single):
    t = compute_dominator_tree(single)
    assert t.idom == (0,)
    assert t.children == ((),)
    assert t.dominates(0, 0)


def test_layered_tree_is_flat():
    for depth in (1, 3, 8):
        g = gen_layered(depth, seed=depth)
        t = compute_dominator_tree(g)
        assert all(p == 0 for p in t.idom)


def test_source_dominates_everything(diamond, cycle3):
    for g in (diamond, cycle3):
        for v in range(g.node_count):
            assert v in brute_force_dominated_set(g, g.source)


def test_diamond_brutes(diamond):
    assert 3 not in brute_force_dominated_set(diamond, 1)  # path via b
    assert 1 in brute_force_dominated_set(diamond, 1)


def test_unreachable_rejected():
    g = Graph.from_arcs(3, 0, [(0, 1)])
    with pytest.raises(UnreachableNodeError):
        compute_dominator_tree(g)


@pytest.mark.parametrize(
    "query, node",
    [
        (lambda g, t: t.descendants(-1), -1),
        (lambda g, t: t.descendants(3), 3),
        (lambda g, t: t.dominates(-1, 2), -1),
        (lambda g, t: t.dominates(0, 3), 3),
        (lambda g, t: naive_dominance_graph(g, t, -1), -1),
        (lambda g, t: brute_force_dominated_set(g, -1), -1),
        (lambda g, t: brute_force_dominated_set(g, 3), 3),
    ],
)
def test_dominance_queries_reject_ids_outside_the_graph(query, node):
    g = Graph.from_arcs(3, 0, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match=f"node {node} is not a node id"):
        query(g, compute_dominator_tree(g))


@pytest.mark.parametrize(
    "idom, match",
    [
        ([0, 0, 1], "idom must be a tuple, not list"),
        (None, "idom must be a tuple, not NoneType"),
        ((0, 0.0, 1), r"idom\[1\] = 0.0 is not a node id of a 3-node tree"),
        ((0, True, 1), r"idom\[1\] = True is not a node id"),
        ((0, 0, -1), r"idom\[2\] = -1 is not a node id"),
        ((0, 0, 3), r"idom\[2\] = 3 is not a node id of a 3-node tree"),
        ((), "idom has no root: none of its 0 nodes maps to itself"),
        ((1, 2, 0), "idom has no root: none of its 3 nodes maps to itself"),
        ((0, 1, 1), "node 1 is not under the root 0"),
        ((0, 0, 3, 2), "node 2 is not under the root 0: its chain of idom parents ends in a cycle"),
    ],
    ids=[
        "list", "none", "float", "bool", "negative", "out-of-range", "empty", "no-root",
        "two-roots", "cycle-off-the-root",
    ],
)
def test_dominator_tree_rejects_a_malformed_idom(idom, match):
    with pytest.raises(GraphError, match=match):
        DominatorTree(idom)


def test_dominator_tree_derives_its_slots_from_idom_alone():
    # five unchecked fields once let this tree deny that 0 dominates 2
    t = DominatorTree((0, 0, 1))
    assert t.children == ((1,), (2,), ()) and t.order == (0, 1, 2)
    assert t.dfs_in == (0, 1, 2) and t.dfs_out == (2, 2, 2)
    assert t.dominates(0, 2) and t.dominates(1, 2) and not t.dominates(2, 1)
    with pytest.raises(TypeError):
        DominatorTree((0, 0, 1), ((1,), (2,), ()), (0, 1, 2), (0, 1, 2), (0, 1, 2))
    # any node may be the root, and children come in ascending id
    t = DominatorTree((2, 2, 2, 1))
    assert t.children == ((), (3,), (0, 1), ()) and t.order == (2, 0, 1, 3)
    assert t.descendants(1) == (1, 3) and not t.dominates(0, 3)


@pytest.mark.parametrize("tree_n, graph_n, a", [(2, 4, 3), (2, 4, 1), (2, 4, 0), (4, 2, 1)])
def test_naive_dominance_graph_rejects_a_tree_of_another_node_count(tree_n, graph_n, a):
    def path(n):
        return Graph.from_arcs(n, 0, [(v, v + 1) for v in range(n - 1)])

    t = compute_dominator_tree(path(tree_n))
    match = f"dominator tree of {tree_n} nodes given for a {graph_n}-node graph"
    with pytest.raises(GraphError, match=match):
        naive_dominance_graph(path(graph_n), t, a)


def test_interval_test_matches_oracle_on_random_graphs():
    for i in range(30):
        n = 2 + (i * 7) % 49
        g = gen_random_digraph(n, n + (i * 13) % (2 * n), seed=100 + i)
        t = compute_dominator_tree(g)
        for a in range(n):
            dominated = brute_force_dominated_set(g, a)
            assert set(t.descendants(a)) == dominated, (i, a)
            assert t.order[t.dfs_in[a]] == a, (i, a)
            for b in range(n):
                assert t.dominates(a, b) == (b in dominated), (i, a, b)


def test_tree_order_axioms():
    # reflexivity, antisymmetry, transitivity, and the chain property
    for i in range(10):
        n = 3 + (i * 5) % 20
        g = gen_random_digraph(n, n + i % (2 * n), seed=200 + i)
        t = compute_dominator_tree(g)
        dom = [[t.dominates(a, b) for b in range(n)] for a in range(n)]
        for a in range(n):
            assert dom[a][a]
            for b in range(n):
                if dom[a][b] and dom[b][a]:
                    assert a == b
                for c in range(n):
                    if dom[a][b] and dom[b][c]:
                        assert dom[a][c]
                    if dom[a][c] and dom[b][c]:
                        assert dom[a][b] or dom[b][a]


def test_idom_is_the_minimal_strict_dominator():
    for i in range(15):
        n = 2 + (i * 3) % 30
        g = gen_random_digraph(n, n + i % (3 * n), seed=300 + i)
        t = compute_dominator_tree(g)
        strict = {v: set() for v in range(n)}
        for a in range(n):
            for b in brute_force_dominated_set(g, a):
                if a != b:
                    strict[b].add(a)
        for v in range(n):
            if v == g.source:
                continue
            p = t.idom[v]
            assert p in strict[v]
            for other in strict[v]:
                assert p in brute_force_dominated_set(g, other)


@pytest.mark.parametrize("log2n", [10, 12, 14])
def test_idom_matches_networkx(log2n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(log2n)
    n = 1 << log2n
    for m in (n // 2, 3 * n):  # sparse and dense extra arcs
        arcs = random_arcs_with_loops(n, m, rng)
        g = Graph.from_arcs(n, 0, arcs)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(arcs)
        expected = nx.immediate_dominators(ref, 0)
        expected[0] = 0  # networkx 3.6 leaves the source out; here it maps to itself
        t = compute_dominator_tree(g)
        assert list(t.idom) == [expected[v] for v in range(n)]
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[t.idom[v]].append(v)
        assert t.children == tuple(map(tuple, children))


# On the path-star DAG each extra node's DFS parent is the far end of the
# path, while only the source dominates it: semi-NCA climbs the whole path
# for each one, by jump pointers. These pin the answer for any climb.
def test_path_star_idom_matches_networkx():
    nx = pytest.importorskip("networkx")
    g = path_star(1 << 9)  # 2^10 + 1 nodes
    n = g.node_count
    ref = nx.DiGraph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from((u, v) for u, v, _ in g.arcs())
    expected = nx.immediate_dominators(ref, 0)
    expected[0] = 0
    assert list(build_ac_tree(g).idom) == [expected[v] for v in range(n)]


def test_path_star_idom_is_the_minimal_strict_dominator():
    for k in range(6):  # up to 11 nodes
        g = path_star(k)
        n = g.node_count
        idom = build_ac_tree(g).idom
        dominated = [brute_force_dominated_set(g, a) for a in range(n)]
        assert idom[0] == 0
        for v in range(1, n):
            strict = [d for d in range(n) if d != v and v in dominated[d]]
            assert idom[v] in strict, (k, v)
            assert all(idom[v] in dominated[d] for d in strict), (k, v)


def _climb_lines(g: Graph) -> int:
    """Line events of one ``_immediate_dominators(g)`` call, its own frame
    only: a clock-free count of the pass's steps."""
    code = _immediate_dominators.__code__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        _immediate_dominators(g)
    finally:
        sys.settrace(before)
    return lines


def test_path_star_climb_steps_grow_near_linearly():
    """What keeps the path-star build near-linear, counted rather than
    timed: each extra node's NCA climb starts at the far end of the path
    and ends at the source, about k^2 steps in all one parent at a time;
    the jump pointers take O(log k) each. Four times the nodes cost at most
    six times the lines here, where a one-parent climb costs about 15."""
    small = _climb_lines(path_star(1 << 9))
    large = _climb_lines(path_star(1 << 11))
    assert large <= 6 * small, (small, large)
    k = 1 << 14
    # the path nodes are dominated by their predecessors, each w by the source
    assert build_ac_tree(path_star(k)).idom == (0,) + tuple(range(k)) + (0,) * k


def _dfs_reference(g: Graph) -> tuple[list[int], bool]:
    """The non-source nodes in finish order of a DFS from the source that
    scans each row's arcs in stored order, and whether it met an arc into a
    proper DFS ancestor other than the source."""
    s = g.source
    off, heads = g.offsets, g.heads
    state = [0] * g.node_count  # 0 unseen, 1 on the stack, 2 finished
    state[s] = 1
    stack = [(s, iter(heads[off[s] : off[s + 1]]))]
    post = []
    back = False
    while stack:
        u, row = stack[-1]
        for v in row:
            if state[v] == 0:
                state[v] = 1
                stack.append((v, iter(heads[off[v] : off[v + 1]])))
                break
            if state[v] == 1 and v != u and v != s:
                back = True
        else:
            stack.pop()
            state[u] = 2
            if u != s:
                post.append(u)
    return post, back


def _random_corpus() -> list[Graph]:
    """Random cyclic and acyclic graphs with self-loops, parallel arcs and
    arcs into the source, relabelled so that the source and the DFS order
    are not the node order."""
    rng = random.Random(27)
    graphs = []
    for i in range(400):
        n = rng.randint(1, 40)
        arcs = random_arcs_with_loops(n, rng.randint(0, 3 * n), rng, acyclic=i % 2 == 0)
        arcs += [(rng.randrange(n), 0) for _ in range(i % 3)]
        label = rng.sample(range(n), n)
        graphs.append(Graph.from_arcs(n, label[0], [(label[u], label[v]) for u, v in arcs]))
    return graphs


def _adversarial_corpus() -> list[Graph]:
    """Path-star DAGs, whose climbs reach the source, path-fans, whose
    climbs stop part-way up, and the cyclic families at 2^10."""
    graphs = [path_star(k) for k in (1, 2, 5, 9, 1 << 7)]
    graphs += [path_fan(k, k) for k in (1 << 6, 1 << 10)]
    return graphs + [f(1 << 10) for f in (ladder, nested_loops, star_back_arcs, path_back_arcs)]


@pytest.mark.parametrize("corpus", [_random_corpus, _adversarial_corpus],
                         ids=["random", "adversarial"])
def test_immediate_dominators_match_independent_references(corpus):
    """``idom`` against networkx; the preorder and the back-arc flag against
    a plain DFS, whose finish order, reversed, orders each owner's children
    in a preorder walk of networkx's tree."""
    nx = pytest.importorskip("networkx")
    for i, g in enumerate(corpus()):
        n, s = g.node_count, g.source
        idom, order, back = _immediate_dominators(g)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from((u, v) for u, v, _ in g.arcs())
        expected = nx.immediate_dominators(ref, s)
        expected[s] = s  # networkx 3.6 leaves the source out; here it maps to itself
        assert list(idom) == [expected[v] for v in range(n)], i
        post, ref_back = _dfs_reference(g)
        children = [[] for _ in range(n)]
        for v in reversed(post):
            children[expected[v]].append(v)
        preorder = []
        stack = [s]
        while stack:
            v = stack.pop()
            preorder.append(v)
            stack += reversed(children[v])
        assert (order, back) == (preorder, ref_back), i


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_dominator_tree_matches_removal_oracle(g):
    t = compute_dominator_tree(g)
    n = g.node_count
    dominated = [brute_force_dominated_set(g, a) for a in range(n)]
    assert sorted(t.order) == list(range(n)) and t.order[0] == g.source
    for a in range(n):
        assert set(t.descendants(a)) == dominated[a]
        assert t.order[t.dfs_in[a]] == a
        assert list(t.children[a]) == sorted(t.children[a])
        if a != g.source:
            # idom[a] is the strict dominator of a that every other one dominates
            strict = [d for d in range(n) if d != a and a in dominated[d]]
            p = t.idom[a]
            assert p in strict
            assert all(p in dominated[d] for d in strict)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_a_built_trees_idom_gives_the_same_dominator_tree(g):
    """``DominatorTree`` reads ``idom`` alone; each owner's children are
    those of the dominator pass's preorder, sorted."""
    idom, order, _ = _immediate_dominators(g)
    t = DominatorTree(build_ac_tree(g).idom)
    assert t == compute_dominator_tree(g)
    children = [[] for _ in idom]
    for v in order[1:]:
        children[idom[v]].append(v)
    assert t.children == tuple(tuple(sorted(c)) for c in children)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_a_dominator_tree_is_its_idom(g):
    """A tree rebuilt from its ``idom``, or through ``pickle`` or ``copy``,
    equals it, hashes alike and answers every dominance query alike."""
    t = compute_dominator_tree(g)
    nodes = range(g.node_count)
    for clone in (
        DominatorTree(t.idom),
        pickle.loads(pickle.dumps(t)),
        copy.copy(t),
        copy.deepcopy(t),
    ):
        assert type(clone) is DominatorTree and clone == t and hash(clone) == hash(t)
        assert [clone.dominates(a, b) for a in nodes for b in nodes] == [
            t.dominates(a, b) for a in nodes for b in nodes
        ]
        assert (clone.children, clone.order, clone.dfs_in, clone.dfs_out) == (
            t.children, t.order, t.dfs_in, t.dfs_out
        )

"""Dominance graphs, A-C tree assembly, and the derived nesting family."""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actree import (
    AcTree,
    DominatorTree,
    Graph,
    GraphError,
    UnreachableNodeError,
    ac_to_nesting_family,
    brute_force_nesting_width,
    build_ac_tree,
    compute_dominator_tree,
    dijkstra,
    family_width,
    gen_nested,
    is_module,
    naive_dominance_graph,
    recursive_dijkstra,
)
from actree import ac_tree
from actree.ac_tree import _sibling_arcs
from actree.dominators import _immediate_dominators
from random_graphs import (
    block_chain,
    chain_of_blocks,
    gen_layered,
    gen_random_dag,
    gen_random_digraph,
    nested_chain,
    path_star,
    random_arcs_with_loops,
    rows_read,
    small_graphs,
)


def component_ids(tree: AcTree) -> list[int]:
    """Each node's component number, -1 for the source: components
    numbered owner by owner in ascending id, each owner's in order."""
    ids = [-1] * len(tree.idom)
    components = tree.components
    c = 0
    for a in sorted(components):
        for comp in components[a]:
            for v in comp:
                ids[v] = c
            c += 1
    return ids


def sibling_arcs(g, t) -> list[list[int]]:
    """``_sibling_arcs`` over the preorder of the dominator tree ``t``."""
    return _sibling_arcs(g, t.idom, list(t.order))


def arcs_by_owner(g, t) -> dict[int, set[tuple[int, int]]]:
    """The sibling arcs of ``_sibling_arcs``, turned back round and grouped
    into dominance graphs."""
    pred = sibling_arcs(g, t)
    graphs = {a: set() for a in range(g.node_count)}
    for w, tails in enumerate(pred):
        for c in tails:
            graphs[t.idom[w]].add((c, w))
    return graphs


def test_dominance_graph_diamond(diamond):
    t = compute_dominator_tree(diamond)
    gs = arcs_by_owner(diamond, t)
    assert set(t.children[0]) == {1, 2, 3}
    assert gs[0] == {(1, 3), (2, 3)}
    assert all(not gs[a] for a in (1, 2, 3))


def test_dominance_graph_cycle(cycle3):
    t = compute_dominator_tree(cycle3)
    gs = arcs_by_owner(cycle3, t)
    assert t.children[:2] == ((1,), (2,))
    assert gs == {0: set(), 1: set(), 2: set()}


def test_dominance_graph_complete(complete3):
    t = compute_dominator_tree(complete3)
    assert arcs_by_owner(complete3, t)[0] == {(1, 2), (2, 1)}


def test_dominance_graphs_match_naive_oracle():
    for i in range(40):
        n = 2 + (i * 5) % 29
        g = gen_random_digraph(n, n + (i * 11) % (3 * n), seed=400 + i)
        t = compute_dominator_tree(g)
        fast = arcs_by_owner(g, t)
        for a in range(n):
            assert fast[a] == naive_dominance_graph(g, t, a), (i, a)


def test_every_arc_examined_exactly_once():
    for i in range(10):
        g = gen_random_digraph(5 + 9 * i, 10 + 20 * i, seed=500 + i)
        t = compute_dominator_tree(g)
        reads = rows_read(g, lambda stand_in: sibling_arcs(stand_in, t))
        off = g.offsets
        assert sorted(reads) == [(off[v], off[v + 1]) for v in range(g.node_count)]


def test_scc_topological_cases(complete3, diamond, single):
    assert build_ac_tree(complete3).components[0] == (frozenset({1, 2}),)

    comps = build_ac_tree(diamond).components[0]
    assert comps[-1] == frozenset({3})
    assert {comps[0], comps[1]} == {frozenset({1}), frozenset({2})}

    assert build_ac_tree(single).components == {}


def test_scc_order_is_topological():
    for i in range(25):
        n = 2 + (i * 7) % 40
        g = gen_random_digraph(n, n + (i * 3) % (3 * n), seed=600 + i)
        tree = build_ac_tree(g)
        t = DominatorTree(tree.idom)
        components = tree.components
        for a, arcs in arcs_by_owner(g, t).items():
            comps = components.get(a, ())
            rank = {v: k for k, comp in enumerate(comps) for v in comp}
            assert set(rank) == set(t.children[a])
            for u, v in arcs:
                assert rank[u] <= rank[v], (i, a, u, v)


def test_layered_actree():
    g = gen_layered(2, seed=9)
    tree = build_ac_tree(g)
    assert tree.width == 2
    assert set(tree.components) == {0}
    comps = tree.components[0]
    assert all(len(c) == 1 for c in comps)
    # rank order must be respected; a_i/b_i of equal rank may interleave
    rank = {1: 1, 2: 1, 3: 2, 4: 2}
    seen = [rank[next(iter(c))] for c in comps]
    assert seen == sorted(seen)


def test_complete_actree(complete3):
    tree = build_ac_tree(complete3)
    assert tree.components[0] == (frozenset({1, 2}),)
    assert tree.width == 3


def test_single_node_actree(single):
    tree = build_ac_tree(single)
    assert tree.components == {}
    assert component_ids(tree) == [-1]
    assert tree.width == 1


def test_dag_width_is_two():
    for i in range(12):
        n = 2 + (i * 13) % 60
        g = gen_random_dag(n, n + i % (3 * n), seed=700 + i)
        assert build_ac_tree(g).width == 2


def test_actree_is_deterministic():
    g = gen_random_digraph(40, 120, seed=8)
    assert build_ac_tree(g) == build_ac_tree(g)


# width 3: {1, 2} is one component
IRREDUCIBLE = Graph.from_arcs(3, 0, [(0, 1, 1.0), (0, 2, 5.0), (1, 2, 1.0), (2, 1, 1.0)])
OFF, HEADS = IRREDUCIBLE.offsets, IRREDUCIBLE.heads  # (0, 2, 3, 4), (1, 2, 2, 1)
# each a malformed topology ``AcTree`` rejects, and the start of the error
MALFORMED = {
    "offsets-None": ((0, None, HEADS), GraphError, "^offsets is not a tuple"),
    "offsets-list": ((0, list(OFF), HEADS), GraphError, "^offsets is not a tuple"),
    "offsets-empty": ((0, (), ()), GraphError, "^a graph needs at least one node"),
    "offsets-short": ((0, (0,), ()), GraphError, "^a graph needs at least one node"),
    "offsets-from-1": ((0, (1, 2, 3, 4), HEADS), GraphError, "^offsets must be integers"),
    "offsets-descending": ((0, (0, 2, 1, 4), HEADS), GraphError, "^offsets must be integers"),
    "offsets-short-of-heads": ((0, (0, 2, 3, 3), HEADS), GraphError, "^offsets must be"),
    "offsets-float": ((0, (0, 2, 3, 4.0), HEADS), GraphError, "^offsets must be integers"),
    "offsets-bool": ((0, (False, 2, 3, 4), HEADS), GraphError, "^offsets must be integers"),
    "heads-None": ((0, OFF, None), GraphError, "^heads is not a tuple"),
    "heads-list": ((0, OFF, list(HEADS)), GraphError, "^heads is not a tuple"),
    "heads-out-of-range": ((0, OFF, (1, 2, 2, 3)), GraphError, "^arc 2->3: target is not"),
    "heads-negative": ((0, OFF, (1, -1, 2, 1)), GraphError, "^arc 0->-1: target is not"),
    "heads-bool": ((0, OFF, (1, 2, True, 1)), GraphError, "^arc 1->True: target is not"),
    "heads-float": ((0, OFF, (1, 2.0, 2, 1)), GraphError, "^arc 0->2.0: target is not"),
    "source-out-of-range": ((3, OFF, HEADS), GraphError, "^source 3 out of range"),
    "source-negative": ((-1, OFF, HEADS), GraphError, "^source -1 out of range"),
    "source-bool": ((False, OFF, HEADS), GraphError, "^source False out of range"),
    "source-float": ((0.0, OFF, HEADS), GraphError, "^source 0.0 out of range"),
    "source-None": ((None, OFF, HEADS), GraphError, "^source None out of range"),
    "unreachable-node": ((1, OFF, HEADS), UnreachableNodeError, "^1 nodes unreachable"),
}


@pytest.mark.parametrize("topology, error, message", MALFORMED.values(), ids=MALFORMED)
def test_actree_rejects_a_malformed_topology(topology, error, message):
    with pytest.raises(error, match=message):
        AcTree(*topology)
    assert AcTree(0, OFF, HEADS) == build_ac_tree(IRREDUCIBLE)


def test_actree_builds_the_tree_of_its_topology_alone():
    """This graph's plan reordered to ``((1, 2, 3), None, None, None)``
    makes the search return ``dist[3] = 6.0``: a tree takes its topology
    only, so it cannot hold that plan."""
    g = Graph.from_arcs(4, 0, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)])
    built = build_ac_tree(g)
    tree = AcTree(0, g.offsets, g.heads)
    assert tree == built and hash(tree) == hash(built)
    assert tree.plan == ((2, 1, 3), None, None, None)
    assert recursive_dijkstra(g, tree).dist == (0.0, 2.0, 1.0, 3.0)
    fields = (tree.idom, tree.comp_sizes, ((1, 2, 3), None, None, None), tree.rows,
              tree.offsets, tree.heads)
    with pytest.raises(TypeError):
        AcTree(*fields)


def test_a_built_trees_size_histogram_cannot_change_in_place():
    tree = build_ac_tree(IRREDUCIBLE)
    assert tree.comp_sizes == ((2, 1),) and tree.width == 3
    with pytest.raises(TypeError):
        tree.comp_sizes[50] = 1
    with pytest.raises(TypeError):
        tree.comp_sizes[0][1] = 2
    assert tree.width == 3
    assert recursive_dijkstra(IRREDUCIBLE, tree).stats.max_queue_len == 2


LARGE = {
    "random-digraph": lambda: gen_random_digraph(1 << 12, 3 << 12, seed=32),
    "random-dag": lambda: gen_random_dag(1 << 12, 3 << 12, seed=32),
    "layered": lambda: gen_layered(1 << 11, seed=32),
    "block-chain": lambda: block_chain(1 << 12, seed=32),
    "nested-chain": lambda: nested_chain(1 << 12),
    "path-star": lambda: path_star(1 << 11),
}


@pytest.mark.parametrize("make", LARGE.values(), ids=LARGE)
def test_actree_of_a_large_topology_is_its_built_tree(make):
    g = make()
    built = build_ac_tree(g)
    tree = AcTree(g.source, g.offsets, g.heads)
    for name in (*AcTree.__slots__, "width", "components"):
        a, b = getattr(tree, name), getattr(built, name)
        assert type(a) is type(b) and a == b, name
    assert hash(tree) == hash(built)
    assert recursive_dijkstra(g, tree) == recursive_dijkstra(g, built)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.booleans(), st.data())
def test_actree_of_a_topology_is_its_built_tree(g, acyclic, data):
    """``AcTree(...)`` runs the build that ``build_ac_tree`` runs, and a
    pickled tree, rebuilt from its topology, and a copied one search any
    weights exactly as the original does."""
    if acyclic:
        g = _made_acyclic(g)
    built = build_ac_tree(g)
    tree = AcTree(g.source, g.offsets, g.heads)
    assert tree == built and hash(tree) == hash(built)
    for name in ("idom", "comp_sizes", "plan", "rows"):
        assert getattr(tree, name) == getattr(built, name), name
    weights = data.draw(st.lists(st.floats(0.0, 100.0), min_size=g.arc_count,
                                 max_size=g.arc_count), label="weights")
    reweighted = Graph(g.source, g.offsets, g.heads, tuple(weights))
    r = recursive_dijkstra(reweighted, built)
    for clone in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
        assert clone == built and hash(clone) == hash(built)
        assert clone.plan == built.plan and clone.rows == built.rows
        other = recursive_dijkstra(reweighted, clone)
        assert list(map(float.hex, other.dist)) == list(map(float.hex, r.dist))
        assert other == r


def test_repr_leaves_out_the_columns():
    for log2n in (4, 15):
        n = 1 << log2n
        tree = build_ac_tree(gen_random_digraph(n, 3 * n, seed=log2n))
        text = repr(tree)
        assert text.startswith(f"AcTree(width={tree.width}, comp_sizes=((")
        assert len(text) <= 60 + 12 * len(tree.comp_sizes), text
        assert len(text) < 2000


def test_components_partition_children_and_are_strongly_connected():
    for i in range(20):
        n = 2 + (i * 9) % 35
        g = gen_random_digraph(n, n + (i * 7) % (3 * n), seed=800 + i)
        tree = build_ac_tree(g)
        t = DominatorTree(tree.idom)
        graphs = arcs_by_owner(g, t)
        components = tree.components
        for a in range(n):  # an owner with no components has no children
            comps = components.get(a, ())
            flat = [v for comp in comps for v in comp]
            assert tuple(sorted(flat)) == t.children[a], (i, a)
            succ = {v: set() for v in t.children[a]}
            for u, v in graphs[a]:
                succ[u].add(v)
            for comp in comps:
                if len(comp) < 2:
                    continue
                # every member reaches every other inside the component
                for start in comp:
                    seen = {start}
                    stack = [start]
                    while stack:
                        u = stack.pop()
                        for v in succ[u]:
                            if v in comp and v not in seen:
                                seen.add(v)
                                stack.append(v)
                    assert seen == set(comp), (i, a, start)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_each_owners_components_hold_exactly_its_dominator_children(g):
    tree = build_ac_tree(g)
    components = tree.components
    t = DominatorTree(tree.idom)
    for a in range(g.node_count):
        members = sorted(v for comp in components.get(a, ()) for v in comp)
        assert tuple(members) == t.children[a], a


def test_family_cycle(cycle3):
    fam = ac_to_nesting_family(build_ac_tree(cycle3))
    assert set(fam) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }
    assert family_width(cycle3, fam) == 2


def test_family_single(single):
    fam = ac_to_nesting_family(build_ac_tree(single))
    assert fam == (frozenset({0}),)
    assert family_width(single, fam) == 1


def test_family_complete(complete3):
    fam = ac_to_nesting_family(build_ac_tree(complete3))
    assert set(fam) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1, 2}),
    }
    assert family_width(complete3, fam) == 3


def test_family_members_are_modules_and_laminar():
    for i in range(25):
        n = 2 + (i * 11) % 45
        g = gen_random_digraph(n, n + (i * 5) % (2 * n), seed=900 + i)
        tree = build_ac_tree(g)
        fam = ac_to_nesting_family(tree)
        for s in fam:
            assert is_module(g, s) is not None
        # family_width re-validates laminarity and trivial modules
        assert family_width(g, fam) == tree.width


@pytest.mark.parametrize("build", [
    lambda: gen_random_dag(1 << 9, 4 << 9, seed=35),
    lambda: gen_random_digraph(1 << 9, 4 << 9, seed=35),
    lambda: block_chain(1 << 9, 35),
], ids=["dag", "digraph", "block_chain"])
def test_nesting_family_certifies_the_width_above_desk_scale(build):
    """The certificate at n = 2^9, far above the brute force's 12 nodes: a
    family of about a thousand sets, validated in well under a second."""
    g = build()
    tree = build_ac_tree(g)
    assert family_width(g, ac_to_nesting_family(tree)) == tree.width


def test_nested_clique_width_matches_oracle():
    g = gen_nested((3, 2, 3), seed=11)
    assert brute_force_nesting_width(g) == 3
    assert build_ac_tree(g).width == 3


def test_components_partition_the_nodes_by_owner(single, diamond, complete3):
    graphs = [single, diamond, complete3, gen_nested((3, 2, 3), seed=11)]
    graphs += [gen_random_digraph(2 + 9 * i, 6 * i, seed=1000 + i) for i in range(12)]
    graphs += [gen_random_dag(2 + 9 * i, 6 * i, seed=1100 + i) for i in range(6)]
    for g in graphs:
        tree = build_ac_tree(g)
        n = g.node_count
        components = tree.components
        assert list(components) == sorted(components)
        members = [v for comps in components.values() for comp in comps for v in comp]
        assert sorted(members) == sorted(set(range(n)) - {g.source})
        sizes = Counter(len(comp) for comps in components.values() for comp in comps)
        assert tree.comp_sizes == tuple(sorted(sizes.items()))
        assert tree.width == max(sizes, default=0) + 1
        # each component's owner is its members' immediate dominator
        for a, comps in components.items():
            assert comps and all(type(comp) is frozenset for comp in comps)
            assert all({tree.idom[v] for v in comp} == {a} for comp in comps)
        assert tree.offsets is g.offsets and tree.heads is g.heads  # no copies


def test_search_plan_lists_each_owners_components_with_singletons_inline():
    rng = random.Random(17)
    graphs = [Graph.from_arcs(1, 0, []), gen_nested((3, 1, (4, 2, 3)), seed=5),
              gen_nested(((2, 0, 2), 1, 2), seed=3), gen_layered(12, seed=2)]
    graphs += [gen_random_digraph(2 + 7 * i, 3 * (2 + 7 * i), seed=i) for i in range(16)]
    graphs += [gen_random_dag(2 + 7 * i, 3 * (2 + 7 * i), seed=i) for i in range(16)]
    graphs += [Graph.from_arcs(1 << 10, 0, chain_of_blocks(1 << 10, rng)),
               Graph.from_arcs(1 << 10, 0, random_arcs_with_loops(1 << 10, 3 << 10, rng)),
               Graph.from_arcs(1 << 10, 0, random_arcs_with_loops(1 << 10, 3 << 10, rng,
                                                                  acyclic=True))]
    for g in graphs:
        tree = build_ac_tree(g)
        n, s = g.node_count, g.source
        components = tree.components
        plan = tree.plan
        assert type(plan) is tuple and len(plan) == n
        owners = {s} | {v for comps in components.values() for comp in comps
                        if len(comp) > 1 for v in comp}

        def expand(a: int) -> tuple:
            # a's components in order, a singleton as its node followed by
            # that node's components, a larger component as its members
            out = []
            for comp in components.get(a, ()):
                if len(comp) == 1:
                    (v,) = comp
                    out.append(v)
                    out += expand(v)
                else:
                    out.append(tuple(sorted(comp)))
            return tuple(out)

        # an owner with components has a segment of its own; every other
        # node has None, never an empty tuple
        for a in range(n):
            if a in owners and a in components:
                assert type(plan[a]) is tuple and plan[a] == expand(a), a
            else:
                assert plan[a] is None, a
        entries = [x for segment in plan if segment is not None for x in segment]
        inline = [x for x in entries if type(x) is int]
        grouped = [v for x in entries if type(x) is tuple for v in x]
        assert {type(x) for x in entries} <= {int, tuple}
        assert sorted(inline + grouped) == sorted(set(range(n)) - {s})
        assert all(list(x) == sorted(x) for x in entries if type(x) is tuple)
    nested = build_ac_tree(gen_nested((3, 1, (4, 2, 3)), seed=5))
    assert nested.plan == (((1, 2),), None, ((3, 4, 5),), None, None, ((6, 7),), None, None)
    # 0 -> 1, 2 -> 3, 4: the source dominates all four, and the DFS finishes
    # 3, 4, 1, 2, so its children come in the reverse of that order
    layered = build_ac_tree(gen_layered(2, seed=0))
    assert layered.plan == ((2, 1, 4, 3), None, None, None, None)


def test_plan_and_its_segments_cannot_be_changed_in_place():
    # finalising node 1 before node 2 would give dist[3] = 6.0, not 3.0
    g = Graph.from_arcs(4, 0, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)])
    tree = build_ac_tree(g)
    assert tree.plan == ((2, 1, 3), None, None, None)
    segment = tree.plan[0]
    with pytest.raises(TypeError):
        tree.plan[0] = (1, 2, 3)
    with pytest.raises(TypeError):
        segment[0], segment[1] = segment[1], segment[0]
    assert tree.plan == ((2, 1, 3), None, None, None)
    assert recursive_dijkstra(g, tree).dist == (0.0, 2.0, 1.0, 3.0)


# One rule orders every graph: each owner's components follow their first
# members in the reverse postorder of the dominators' DFS (arcs in stored
# order), so components that no sibling arc orders still get one fixed
# place each. Owner 0 of the first graph has {1, 2} and {3, 4} unordered,
# {3, 4} before {5}; the DFS finishes 6, 5, 4 and 3 before it enters 1, so
# the reverse postorder is 1, 2, 3, 4, 5. Owner 3 of the second has {0, 5},
# {1, 4} and 2 unordered, 6 before 2; the reverse postorder is 4, 1, 5, 0,
# 6, 2. Each graph's plan follows, the source's segment naming its
# components in that order, each singleton followed by its own. In the last
# graph the reverse postorder is 1, 2, 3, 4: node 2 falls between the
# members 1 and 3 of {1, 3}, so the layout meets {1, 3} at 1, then {2}, then
# 3's own component {4}, which goes to 3's segment, not to the source's.
PINNED_NUMBERING = [
    (
        Graph.from_arcs(7, 0, [(0, 3), (0, 4), (3, 4), (4, 3), (0, 1), (0, 2),
                               (1, 2), (2, 1), (0, 5), (4, 5), (5, 6)]),
        {0: ({1, 2}, {3, 4}, {5}), 5: ({6},)},
        (((1, 2), (3, 4), 5, 6), None, None, None, None, None, None),
    ),
    (
        Graph.from_arcs(7, 3, [(3, 6), (3, 5), (3, 0), (0, 5), (5, 0), (3, 4),
                               (3, 1), (1, 4), (4, 1), (3, 2), (6, 2)]),
        {3: ({1, 4}, {0, 5}, {6}, {2})},
        (None, None, None, ((1, 4), (0, 5), 6, 2), None, None, None),
    ),
    (
        gen_nested((3, 1, (4, 2, 3)), seed=5),
        {0: ({1, 2},), 2: ({3, 4, 5},), 5: ({6, 7},)},
        (((1, 2),), None, ((3, 4, 5),), None, None, ((6, 7),), None, None),
    ),
    (
        Graph.from_arcs(5, 0, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (3, 1), (3, 4)]),
        {0: ({1, 3}, {2}), 3: ({4},)},
        (((1, 3), 2), None, None, (4,), None),
    ),
]


@pytest.mark.parametrize("g, components, plan", PINNED_NUMBERING)
def test_component_numbering_is_pinned(g, components, plan):
    tree = build_ac_tree(g)
    assert tree.components == components
    assert tree.plan == plan


def _lifted_sibling_arcs(g, idom) -> list[tuple[int, int]]:
    """The sibling arcs of ``g``, derived by binary lifting over ``idom``.

    For an arc ``(u, v)`` into a non-source node, ``idom(v)`` dominates
    ``u``; the arc becomes ``(c, v)`` for the child ``c`` of ``idom(v)``
    above ``u``, unless ``u`` is ``idom(v)`` itself or ``c`` is ``v``.
    """
    n, s = g.node_count, g.source
    depth = [-1] * n
    depth[s] = 0
    for v in range(n):
        path = []
        while depth[v] < 0:
            path.append(v)
            v = idom[v]
        for x in reversed(path):
            depth[x] = depth[idom[x]] + 1
    up = [list(idom)]
    while (1 << len(up)) < n:
        prev = up[-1]
        up.append([prev[prev[x]] for x in range(n)])

    def ancestor(x: int, d: int) -> int:
        k = depth[x] - d
        for j, row in enumerate(up):
            if k >> j & 1:
                x = row[x]
        return x

    arcs = []
    for u, v, _ in g.arcs():
        a = idom[v]
        if v == s or u == a:
            continue
        assert depth[u] > depth[a] and ancestor(u, depth[a]) == a, (u, v)
        c = ancestor(u, depth[a] + 1)
        if c != v:
            arcs.append((c, v))
    return arcs


@pytest.mark.parametrize("acyclic", [False, True], ids=["digraph", "dag"])
@pytest.mark.parametrize("log2n", [10, 12, 14])
def test_components_match_networkx_sccs_in_topological_order(log2n, acyclic):
    nx = pytest.importorskip("networkx")
    rng = random.Random(log2n + 100 * acyclic)
    n = 1 << log2n
    g = Graph.from_arcs(n, 0, random_arcs_with_loops(n, 3 * n, rng, acyclic))
    tree = build_ac_tree(g)
    idom = tree.idom
    siblings = nx.DiGraph()
    siblings.add_nodes_from(range(1, n))
    siblings.add_edges_from(_lifted_sibling_arcs(g, idom))
    sccs = list(nx.strongly_connected_components(siblings))
    expected = {}
    for scc in sccs:
        owners = {idom[v] for v in scc}
        assert len(owners) == 1, scc  # no sibling arc links two owners
        expected.setdefault(owners.pop(), set()).add(frozenset(scc))
    components = tree.components
    assert {a: set(comps) for a, comps in components.items()} == expected
    # each owner's sequence is a topological order of its condensation
    dag = nx.condensation(siblings, sccs)
    position = {
        v: k for comps in components.values() for k, comp in enumerate(comps) for v in comp
    }
    for x, y in dag.edges:
        u, v = next(iter(sccs[x])), next(iter(sccs[y]))
        assert position[u] < position[v], (u, v)


def _reverse_postorder_rank(g: Graph) -> list[int]:
    """Each node's place in the reverse postorder of a DFS from the source
    that scans each row's arcs in stored order."""
    n, off, heads = g.node_count, g.offsets, g.heads
    seen = [False] * n
    seen[g.source] = True
    post = []
    stack = [(g.source, off[g.source])]
    while stack:
        v, i = stack.pop()
        if i == off[v + 1]:
            post.append(v)
            continue
        stack.append((v, i + 1))
        w = heads[i]
        if not seen[w]:
            seen[w] = True
            stack.append((w, off[w]))
    rank = [0] * n
    for k, v in enumerate(reversed(post)):
        rank[v] = k
    return rank


def _small_wide_graphs(rng: random.Random, count: int) -> list[Graph]:
    """``count`` random graphs of width 3 or more on at most 40 nodes, from
    a random source, with self-loops, repeated arcs and arcs into the
    source."""
    graphs = []
    while len(graphs) < count:
        n = rng.randrange(3, 41)
        seq = rng.sample(range(n), n)  # seq[0] is the source
        arcs = [(seq[rng.randrange(i)], seq[i]) for i in range(1, n)]
        arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n, 3 * n))]
        arcs += [(v, v) for v in rng.sample(range(n), n // 4)]
        arcs += [(rng.randrange(n), seq[0]) for _ in range(3)]
        arcs += rng.sample(arcs, len(arcs) // 8)
        rng.shuffle(arcs)
        g = Graph.from_arcs(n, seq[0], arcs)
        if build_ac_tree(g).width >= 3:
            graphs.append(g)
    return graphs


@pytest.mark.parametrize(
    "log2n, family",
    [(k, f) for k in (10, 12, 14) for f in ("digraph", "chain")]
    + [pytest.param(None, "small", id="small")],
)
def test_components_follow_their_first_members_in_reverse_postorder(log2n, family):
    if family == "small":
        graphs = _small_wide_graphs(random.Random(38), 300)
    else:
        rng = random.Random(log2n + 100 * (family == "chain"))
        n = 1 << log2n
        if family == "chain":
            arcs = chain_of_blocks(n, rng)
        else:
            arcs = random_arcs_with_loops(n, 3 * n, rng)
        graphs = [Graph.from_arcs(n, 0, arcs)]
    for g in graphs:
        tree = build_ac_tree(g)
        assert tree.width > 2
        rank = _reverse_postorder_rank(g)
        for a, comps in tree.components.items():
            first = [min(rank[v] for v in comp) for comp in comps]
            assert first == sorted(first), (g, a)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_reordering_a_rows_arcs_keeps_each_owners_components(g, data):
    """The sequence may change with the arc order; the decomposition may not."""
    n, off = g.node_count, g.offsets
    arcs = list(g.arcs())
    moved = []
    for u in range(n):
        moved += data.draw(st.permutations(arcs[off[u] : off[u + 1]]))
    h = Graph.from_arcs(n, g.source, moved)
    trees = build_ac_tree(g), build_ac_tree(h)
    t = DominatorTree(trees[0].idom)
    for tree in trees:
        assert tree.idom == t.idom  # the dominator tree ignores the arc order
        components = tree.components
        for a in range(n):
            comps = components.get(a, ())
            rank = {v: k for k, comp in enumerate(comps) for v in comp}
            assert set(rank) == set(t.children[a])
            for u, v in naive_dominance_graph(g, t, a):
                assert rank[u] <= rank[v], (a, u, v)
    a, b = trees
    assert (a.width, a.comp_sizes) == (b.width, b.comp_sizes)
    assert {k: set(c) for k, c in a.components.items()} == {
        k: set(c) for k, c in b.components.items()
    }


def _made_acyclic(g: Graph) -> Graph:
    """``g`` with every arc that points back in BFS order from the source
    turned around; self-loops and arcs into the source stay as they are."""
    s, off, heads = g.source, g.offsets, g.heads
    rank = {s: 0}
    queue = [s]
    for u in queue:
        for v in heads[off[u] : off[u + 1]]:
            if v not in rank:
                rank[v] = len(rank)
                queue.append(v)
    return Graph.from_arcs(g.node_count, s, [
        (v, u, x) if u != v and v != s and rank[u] > rank[v] else (u, v, x)
        for u, v, x in g.arcs()
    ])


def _naive_sibling_arcs(g: Graph) -> list[tuple[int, int]]:
    t = compute_dominator_tree(g)
    return [arc for a in range(g.node_count) for arc in naive_dominance_graph(g, t, a)]


def _assert_both_paths_agree(g: Graph, sibling_arcs: list[tuple[int, int]]) -> None:
    """The dominator pass's preorder as the plan and Kosaraju's second
    pass give one tree."""
    dominators = _immediate_dominators(g)
    assert not dominators[2]
    fast = build_ac_tree(g)
    # the build as it runs on a graph whose DFS meets a back arc
    with mock.patch.object(ac_tree, "_immediate_dominators", lambda g: (*dominators[:2], True)):
        slow = build_ac_tree(g)
    for name in (*AcTree.__slots__, "width", "components"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert type(a) is type(b), name
        assert a == b, name
    ids = component_ids(fast)
    assert all(ids[u] < ids[v] for u, v in sibling_arcs)
    assert recursive_dijkstra(g, slow).dist == dijkstra(g).dist


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_both_paths_agree_on_small_acyclic_graphs(g):
    g = _made_acyclic(g)
    _assert_both_paths_agree(g, _naive_sibling_arcs(g))


@pytest.mark.parametrize("log2n", [10, 12, 14])
def test_both_paths_agree_on_large_acyclic_graphs(log2n):
    rng = random.Random(log2n)
    n = 1 << log2n
    arcs = random_arcs_with_loops(n, 3 * n, rng, acyclic=True)
    arcs += [(rng.randrange(1, n), 0) for _ in range(8)]  # arcs into the source
    g = Graph.from_arcs(n, 0, [(u, v, rng.random()) for u, v in arcs])
    _assert_both_paths_agree(g, _lifted_sibling_arcs(g, build_ac_tree(g).idom))


def test_both_paths_agree_on_generated_dags():
    graphs = [gen_layered(depth, seed=depth) for depth in (1, 2, 7, 40)]
    graphs += [gen_random_dag(n, e, seed=n + e) for n in (1, 2, 9, 33, 60)
               for e in (n, 2 * n, 4 * n)]
    for g in graphs:
        _assert_both_paths_agree(g, _naive_sibling_arcs(g))


def test_acyclic_graphs_skip_the_sibling_arc_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sibling-arc pass ran")

    monkeypatch.setattr(ac_tree, "_sibling_arcs", refuse)
    rng = random.Random(3)
    loops = random_arcs_with_loops(500, 1500, rng, acyclic=True)
    loops += [(rng.randrange(1, 500), 0) for _ in range(5)]
    dags = [
        Graph.from_arcs(1, 0, [(0, 0)]),
        Graph.from_arcs(4, 2, [(2, 0), (0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (3, 1),
                               (3, 3), (1, 2)]),
        Graph.from_arcs(500, 0, loops),
        gen_layered(6, seed=1),
        gen_random_dag(80, 240, seed=2),
    ]
    for g in dags:
        tree = build_ac_tree(g)
        assert tree.width == min(g.node_count, 2)
        assert tree.comp_sizes == (((1, g.node_count - 1),) if g.node_count > 1 else ())
    # the head of 2 -> 1 dominates its tail: a back arc between non-source nodes
    with pytest.raises(AssertionError, match="sibling-arc pass"):
        build_ac_tree(Graph.from_arcs(3, 0, [(0, 1), (1, 2), (2, 1)]))


# On an acyclic graph each owner's components follow the reverse postorder of
# the dominators' DFS. In the first graph the cross arc 2 -> 1 puts 2 before
# 1; in the second (source 5, with self-loops, a repeated arc and an arc into
# the source) no arc orders 2, 1 and 3, and the DFS met them as 3, 1, 2.
# The source's plan segment is the dominator tree's preorder, children in
# that order.
PINNED_ACYCLIC_NUMBERING = [
    (
        Graph.from_arcs(5, 0, [(0, 1), (0, 2), (2, 1), (1, 3), (2, 4), (4, 3)]),
        {0: ({2}, {1}, {3}), 2: ({4},)},
        ((2, 4, 1, 3), None, None, None, None),
    ),
    (
        Graph.from_arcs(6, 5, [(5, 3), (5, 1), (1, 1), (5, 2), (3, 0), (1, 0), (0, 5),
                               (2, 4), (3, 3), (5, 1)]),
        {2: ({4},), 5: ({2}, {1}, {3}, {0})},
        (None, None, None, None, None, (2, 4, 1, 3, 0)),
    ),
]


@pytest.mark.parametrize("g, components, plan", PINNED_ACYCLIC_NUMBERING)
def test_acyclic_numbering_is_pinned(g, components, plan):
    tree = build_ac_tree(g)
    assert tree.components == components
    assert tree.plan == plan
    assert tree.comp_sizes == ((1, g.node_count - 1),) and tree.rows is None

"""Dominance graphs, A-C tree assembly, and the derived nesting family."""

from __future__ import annotations

from actree import (
    ac_to_nesting_family,
    brute_force_nesting_width,
    build_ac_tree,
    compute_dominator_tree,
    family_width,
    gen_layered,
    gen_nested,
    gen_random_dag,
    gen_random_digraph,
    is_module,
    naive_dominance_graph,
)
from actree.ac_tree import _sibling_arcs


def arcs_by_owner(g, t) -> dict[int, set[tuple[int, int]]]:
    """The sibling arcs of ``_sibling_arcs``, grouped into dominance graphs."""
    succ, _ = _sibling_arcs(g, t.idom, t.order)
    graphs = {a: set() for a in range(g.node_count)}
    for c, heads in enumerate(succ):
        for w in heads:
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
        _, examined = _sibling_arcs(g, t.idom, t.order)
        assert examined == g.arc_count


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
        t = compute_dominator_tree(g)
        components = build_ac_tree(g).components
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
    assert list(tree.comp_id) == [-1]
    assert tree.width == 1


def test_dag_width_is_two():
    for i in range(12):
        n = 2 + (i * 13) % 60
        g = gen_random_dag(n, n + i % (3 * n), seed=700 + i)
        assert build_ac_tree(g).width == 2


def test_actree_is_deterministic():
    g = gen_random_digraph(40, 120, seed=8)
    assert build_ac_tree(g) == build_ac_tree(g)


def test_repr_leaves_out_the_columns():
    for log2n in (4, 15):
        n = 1 << log2n
        tree = build_ac_tree(gen_random_digraph(n, 3 * n, seed=log2n))
        text = repr(tree)
        assert text.startswith(f"AcTree(width={tree.width}, comp_sizes={{")
        assert len(text) <= 60 + 12 * len(tree.comp_sizes), text
        assert len(text) < 2000


def test_components_partition_children_and_are_strongly_connected():
    for i in range(20):
        n = 2 + (i * 9) % 35
        g = gen_random_digraph(n, n + (i * 7) % (3 * n), seed=800 + i)
        t = compute_dominator_tree(g)
        graphs = arcs_by_owner(g, t)
        tree = build_ac_tree(g)
        assert tree.idom == t.idom
        for a, comps in tree.components.items():
            flat = [v for comp in comps for v in comp]
            assert sorted(flat) == sorted(t.children[a])
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


def test_family_cycle(cycle3):
    fam = ac_to_nesting_family(build_ac_tree(cycle3))
    assert set(fam.sets) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }
    assert fam.width == 2


def test_family_single(single):
    fam = ac_to_nesting_family(build_ac_tree(single))
    assert fam.sets == (frozenset({0}),)
    assert fam.width == 1
    assert family_width(single, fam) == 1


def test_family_complete(complete3):
    fam = ac_to_nesting_family(build_ac_tree(complete3))
    assert set(fam.sets) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1, 2}),
    }
    assert fam.width == 3


def test_family_members_are_modules_and_laminar():
    for i in range(25):
        n = 2 + (i * 11) % 45
        g = gen_random_digraph(n, n + (i * 5) % (2 * n), seed=900 + i)
        tree = build_ac_tree(g)
        fam = ac_to_nesting_family(tree)
        for s in fam.sets:
            assert is_module(g, s) is not None
        # family_width re-validates laminarity and trivial modules
        assert family_width(g, fam) == tree.width


def test_nested_clique_width_matches_oracle():
    g = gen_nested((3, 2, 3), seed=11)
    assert brute_force_nesting_width(g) == 3
    assert build_ac_tree(g).width == 3


def test_components_are_stored_as_compressed_rows(single, diamond, complete3):
    graphs = [single, diamond, complete3, gen_nested((3, 2, 3), seed=11)]
    graphs += [gen_random_digraph(2 + 9 * i, 6 * i, seed=1000 + i) for i in range(12)]
    graphs += [gen_random_dag(2 + 9 * i, 6 * i, seed=1100 + i) for i in range(6)]
    for g in graphs:
        tree = build_ac_tree(g)
        n = g.node_count
        nodes, start = tree.comp_nodes, tree.comp_start
        k = tree.comp_offsets[n]
        assert type(nodes) is tuple and all(type(v) is int for v in nodes)
        assert len(nodes) == n - 1
        assert sorted(nodes) == sorted(set(range(n)) - {g.source})
        assert len(start) == k + 1 and start[0] == 0 and start[k] == n - 1
        assert all(start[c] < start[c + 1] for c in range(k))
        for c in range(k):
            members = nodes[start[c] : start[c + 1]]
            assert list(members) == sorted(members)
            assert all(tree.comp_id[v] == c for v in members)
        assert not hasattr(tree, "comp_members")
        assert tree.offsets is g.offsets and tree.heads is g.heads  # no copies

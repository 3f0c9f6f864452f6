"""Dominance graphs and the acyclic-connected (A-C) tree.

For each node ``a`` of the dominator tree, the dominance graph links two
children ``u, v`` of ``a`` whenever some arc leaves the subtree of ``u``
and enters ``v``. The A-C tree maps every node to the strongly connected
components of its dominance graph in topological order; its width equals
the nesting width of the graph, which makes it the decomposition that
drives the recursive shortest-path search.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from .dominators import DominatorTree, compute_dominator_tree
from .graph import Graph
from .nesting import NestingFamily

_NO_ARCS: frozenset[tuple[int, int]] = frozenset()
_NO_NODES: frozenset[int] = frozenset()


@dataclass(frozen=True)
class DominanceGraph:
    """Arcs among the dominator children of ``owner`` induced by subtree reach."""

    owner: int
    nodes: frozenset[int]
    arcs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class AcTree:
    """Per-node ordered component sequences plus the decomposition width.

    ``components`` lists, for every node with dominator children, the SCCs
    of its dominance graph in topological order. ``component_of`` locates
    each non-source node as ``(owner, index)``. ``width`` is one more than
    the largest component (1 for a single-node graph).

    The remaining fields are the same decomposition flattened for the
    search, built once with the tree: components are numbered densely,
    owner by owner in ascending node id and each owner's sequence in
    topological order. ``comp_id[v]`` is the number of ``v``'s component
    (-1 for the source); ``comp_members[c]`` is the member set of
    component ``c`` (the same frozenset as in ``components``); the
    components of owner ``a`` are numbered ``comp_offsets[a]`` up to
    ``comp_offsets[a + 1] - 1``, in topological order; ``comp_sizes`` maps
    each component size to the number of components of that size, in
    ascending size. The two arrays are read-only by contract.
    """

    components: dict[int, tuple[frozenset[int], ...]]
    component_of: dict[int, tuple[int, int]]
    width: int
    comp_id: array
    comp_members: tuple[frozenset[int], ...]
    comp_offsets: array
    comp_sizes: dict[int, int]


def dominance_graphs(g: Graph, t: DominatorTree) -> dict[int, DominanceGraph]:
    """Build the dominance graph of every node in one pass over ``g``.

    A DFS that walks the dominator tree keeps, for each node on the current
    path, which child subtree the walk is inside (``current``). Scanning the
    stored arcs of each visited node then attributes every arc to the right
    owner in O(1): an arc ``(v, w)`` lands in the graph of ``idom(w)`` as
    ``(current[idom(w)], w)``. Arcs onto the global source and arcs that
    coincide with dominator-tree arcs contribute nothing and are skipped,
    as are arcs from ``w``'s own subtree back to ``w``.
    """
    graphs, _ = _dominance_graphs_counted(g, t)
    return graphs


def _dominance_graphs_counted(
    g: Graph, t: DominatorTree
) -> tuple[dict[int, DominanceGraph], int]:
    n = g.node_count
    s = g.source
    if len(t.idom) != n or t.idom[s] != s:
        raise ValueError("dominator tree does not match graph")
    adj = g.out_arcs
    idom = t.idom
    children = t.children
    current = [-1] * n
    arcs_of: dict[int, set[tuple[int, int]]] = {}
    examined = 0

    stack = [(s, iter(children[s]))]
    while stack:
        v, it = stack[-1]
        child = next(it, None)
        if child is not None:
            current[v] = child
            stack.append((child, iter(children[child])))
            continue
        for w, _ in adj[v]:
            examined += 1
            if w == s or idom[w] == v:
                continue
            p = idom[w]
            c = current[p]
            if c != w:
                try:
                    arcs_of[p].add((c, w))
                except KeyError:
                    arcs_of[p] = {(c, w)}
        stack.pop()

    graphs = {}
    for a in range(n):
        kids = children[a]
        arcs = arcs_of.get(a)
        graphs[a] = DominanceGraph(
            a,
            frozenset(kids) if kids else _NO_NODES,
            frozenset(arcs) if arcs else _NO_ARCS,
        )
    return graphs, examined


def naive_dominance_graph(g: Graph, t: DominatorTree, a: int) -> DominanceGraph:
    """Definition-level dominance graph of ``a`` (test oracle, O(n + e))."""
    subtree_of: dict[int, int] = {}
    for c in t.children[a]:
        for v in t.descendants(c):
            subtree_of[v] = c
    arcs = set()
    for u, v, _ in g.arcs():
        cu = subtree_of.get(u)
        cv = subtree_of.get(v)
        if cu is not None and cv is not None and cu != cv:
            arcs.add((cu, cv))
    return DominanceGraph(a, frozenset(t.children[a]), frozenset(arcs))


def scc_topological(dg: DominanceGraph) -> tuple[frozenset[int], ...]:
    """Strongly connected components of ``dg`` in topological order.

    Tarjan's algorithm emits components in reverse topological order; the
    emission sequence is reversed before returning. Roots are tried in
    ascending node id and adjacency is scanned in ascending id, which pins
    down one deterministic order among the valid ones.
    """
    if not dg.nodes:
        return ()
    succ: dict[int, list[int]] = {v: [] for v in dg.nodes}
    for u, v in sorted(dg.arcs):
        succ[u].append(v)

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    comp_stack: list[int] = []
    emitted: list[frozenset[int]] = []
    counter = 0

    for root in sorted(dg.nodes):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        comp_stack.append(root)
        on_stack.add(root)
        while work:
            v, i = work[-1]
            heads = succ[v]
            if i < len(heads):
                work[-1] = (v, i + 1)
                w = heads[i]
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    comp_stack.append(w)
                    on_stack.add(w)
                    work.append((w, 0))
                elif w in on_stack:
                    if index[w] < low[v]:
                        low[v] = index[w]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = comp_stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                emitted.append(frozenset(comp))
    emitted.reverse()
    return tuple(emitted)


def build_ac_tree(g: Graph) -> AcTree:
    """Construct the A-C tree of a pruned graph.

    Dominator tree, then one dominance-graph pass, then an SCC pass per
    node with children, which also numbers the components for the search.
    Near-linear overall; the decomposition does not depend on arc weights.
    """
    n = g.node_count
    t = compute_dominator_tree(g)
    graphs = dominance_graphs(g, t)
    components: dict[int, tuple[frozenset[int], ...]] = {}
    component_of: dict[int, tuple[int, int]] = {}
    comp_id = array("i", [-1]) * n
    comp_offsets = array("i", [0]) * (n + 1)
    comp_members: list[frozenset[int]] = []
    for a in range(n):
        first = len(comp_members)
        comp_offsets[a] = first
        dg = graphs[a]
        if not dg.nodes:
            continue
        comps = scc_topological(dg)
        components[a] = comps
        comp_members.extend(comps)
        for i, comp in enumerate(comps):
            cid = first + i
            for v in comp:
                component_of[v] = (a, i)
                comp_id[v] = cid
    comp_offsets[n] = len(comp_members)
    sizes = dict(sorted(Counter(map(len, comp_members)).items()))
    return AcTree(
        components,
        component_of,
        max(sizes, default=0) + 1,
        comp_id,
        tuple(comp_members),
        comp_offsets,
        sizes,
    )


def ac_to_nesting_family(tree: AcTree, t: DominatorTree) -> NestingFamily:
    """Expand an A-C tree into the nesting family it certifies.

    For every node ``a`` the family holds each prefix of its component
    sequence, closed under dominator descendants and rooted at ``a``, plus
    the trivial modules. The result is laminar and its width equals the
    tree's width.
    """
    n = len(t.idom)
    sets = {frozenset(range(n))}
    for v in range(n):
        sets.add(frozenset((v,)))
    for a in sorted(tree.components):
        prefix = {a}
        for comp in tree.components[a]:
            for v in comp:
                prefix.update(t.descendants(v))
            sets.add(frozenset(prefix))
    ordered = tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))
    return NestingFamily(ordered, tree.width)

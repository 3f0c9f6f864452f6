"""Dominance graphs and the acyclic-connected (A-C) tree.

For each node ``a`` of the dominator tree, the dominance graph links two
children ``u, v`` of ``a`` whenever some arc leaves the subtree of ``u``
and enters ``v``. The A-C tree maps every node to the strongly connected
components of its dominance graph in topological order; its width equals
the nesting width of the graph, which makes it the decomposition that
drives the recursive shortest-path search.

The tree is built in two flat passes after the dominator tree. One loop over
the dominator tree's preorder collects the arcs of every dominance graph at
once as sibling arcs, with no per-node graph objects. One iterative Tarjan
pass then finds the strongly connected components of all dominance graphs
together: no arc links two owners, so no component crosses owners. The
resulting :class:`AcTree` is the whole decomposition: the nesting family is
expanded from it alone.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from .dominators import DominatorTree, compute_dominator_tree
from .graph import Graph
from .nesting import NestingFamily


@dataclass(frozen=True)
class AcTree:
    """The A-C tree in flat form, with the immediate dominators it refines.

    Components are numbered densely, owner by owner in ascending node id,
    and each owner's sequence in topological order. ``idom[v]`` is the
    immediate dominator of ``v`` (the source maps to itself);
    ``comp_id[v]`` is the number of ``v``'s component (-1 for the source);
    ``comp_members[c]`` is the member set of component ``c``; the
    components of owner ``a`` are numbered ``comp_offsets[a]`` up to
    ``comp_offsets[a + 1] - 1``; ``comp_sizes`` maps each component size
    to the number of components of that size, in ascending size.
    ``width`` is one more than the largest component (1 for a single-node
    graph). The two arrays are read-only by contract.
    """

    idom: tuple[int, ...]
    width: int
    comp_id: array
    comp_members: tuple[frozenset[int], ...]
    comp_offsets: array
    comp_sizes: dict[int, int]

    @property
    def components(self) -> dict[int, tuple[frozenset[int], ...]]:
        """Each node with dominator children mapped to its component sequence."""
        off = self.comp_offsets
        members = self.comp_members
        return {
            a: members[off[a] : off[a + 1]]
            for a in range(len(off) - 1)
            if off[a] < off[a + 1]
        }


def _sibling_arcs(g: Graph, t: DominatorTree) -> tuple[list[list[int]], int]:
    """Arcs of every dominance graph, as sorted duplicate-free head lists.

    One loop over the dominator tree in preorder keeps, for each node, its
    child whose subtree the loop is inside (``current``), then scans the
    stored arcs of the visited node ``v``. For an arc ``(v, w)``, ``idom(w)``
    is ``v`` itself or a proper ancestor of ``v``, whose ``current`` entry
    is already the child on the path to ``v``. So the arc becomes the
    sibling arc ``(current[idom(w)], w)`` in O(1), stored as ``w`` in
    ``succ[current[idom(w)]]``; both ends are children of ``idom(w)``. Arcs
    onto the global source and arcs that coincide with dominator-tree arcs
    contribute nothing and are skipped, as are arcs from ``w``'s own subtree
    back to ``w``. Also returns the number of arcs examined, which is the
    arc count of ``g``.
    """
    n = g.node_count
    s = g.source
    off, heads = g.offsets, g.heads
    idom = t.idom
    current = [-1] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    examined = 0
    for v in t.order:
        current[idom[v]] = v
        row = heads[off[v] : off[v + 1]]
        examined += len(row)
        for w in row:
            if w == s or idom[w] == v:
                continue
            c = current[idom[w]]
            if c != w:
                succ[c].append(w)

    for c, targets in enumerate(succ):
        if len(targets) > 1:
            succ[c] = sorted(set(targets))
    return succ, examined


def naive_dominance_graph(
    g: Graph, t: DominatorTree, a: int
) -> frozenset[tuple[int, int]]:
    """Definition-level dominance graph of ``a`` (test oracle, O(n + e)).

    Returns the arcs ``(u, v)`` between distinct dominator children of ``a``
    such that some arc leaves the subtree of ``u`` and enters the subtree of
    ``v``. The nodes of the graph are ``t.children[a]``.
    """
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
    return frozenset(arcs)


def build_ac_tree(g: Graph) -> AcTree:
    """Construct the A-C tree of a pruned graph.

    Dominator tree, then the sibling-arc pass, then one iterative Tarjan
    pass over all non-source nodes. Roots are tried and heads scanned in
    ascending id, which pins down one deterministic topological order per
    owner. Tarjan emits each owner's components in reverse topological
    order, so after one counting pass each owner's number range is filled
    from its end. Near-linear overall; the decomposition does not depend on
    arc weights.
    """
    n = g.node_count
    s = g.source
    t = compute_dominator_tree(g)
    idom = t.idom
    succ, _ = _sibling_arcs(g, t)

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp_stack: list[int] = []
    emitted: list[list[int]] = []
    counter = 0
    for root in range(n):
        if root == s or index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        comp_stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            w = next(it, -1)
            if w >= 0:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    comp_stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                p = work[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = comp_stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                emitted.append(comp)

    comp_offsets = array("i", [0]) * (n + 1)
    for comp in emitted:
        comp_offsets[idom[comp[0]] + 1] += 1
    for a in range(n):
        comp_offsets[a + 1] += comp_offsets[a]
    end = comp_offsets[1:]
    comp_id = array("i", [-1]) * n
    members: list[frozenset[int]] = [frozenset()] * len(emitted)
    for comp in emitted:
        a = idom[comp[0]]
        cid = end[a] - 1
        end[a] = cid
        members[cid] = frozenset(comp)
        for v in comp:
            comp_id[v] = cid
    sizes = dict(sorted(Counter(map(len, emitted)).items()))
    return AcTree(
        idom,
        max(sizes, default=0) + 1,
        comp_id,
        tuple(members),
        comp_offsets,
        sizes,
    )


def ac_to_nesting_family(tree: AcTree) -> NestingFamily:
    """Expand an A-C tree into the nesting family it certifies.

    For every node ``a`` the family holds each prefix of its component
    sequence, closed under dominator descendants and rooted at ``a``, plus
    the trivial modules. Owner ``a``'s components partition its dominator
    children, so a subtree is walked through the components alone. The
    result is laminar and its width equals the tree's width.
    """
    off = tree.comp_offsets
    members = tree.comp_members
    n = len(tree.idom)
    sets = {frozenset(range(n))}
    sets.update(frozenset((v,)) for v in range(n))
    for a in range(n):
        prefix = [a]
        for comp in members[off[a] : off[a + 1]]:
            i = len(prefix)
            prefix.extend(comp)
            while i < len(prefix):  # append the subtrees of comp's members
                v = prefix[i]
                i += 1
                for sub in members[off[v] : off[v + 1]]:
                    prefix.extend(sub)
            sets.add(frozenset(prefix))
    ordered = tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))
    return NestingFamily(ordered, tree.width)

"""Dominance graphs and the acyclic-connected (A-C) tree.

For each node ``a`` of the dominator tree, the dominance graph links two
children ``u, v`` of ``a`` whenever some arc leaves the subtree of ``u``
and enters ``v``. The A-C tree maps every node to the strongly connected
components of its dominance graph in topological order; its width equals
the nesting width of the graph, which makes it the decomposition that
drives the recursive shortest-path search.

When the dominators' DFS meets no back arc (self-loops and arcs into the
source aside), every sibling arc points forward in that DFS's reverse
postorder, so every component is a single node and one counting sort of the
reverse postorder by immediate dominator lays the tree out. Any other graph
takes two flat passes after the dominator tree. One loop over the dominator
tree's preorder collects the arcs of every dominance graph at once as
sibling arcs, with no per-node graph objects. One iterative Tarjan pass then
finds the strongly connected components of all dominance graphs together,
its roots taken owner by owner: no arc links two owners, so no component
crosses owners and each owner's components are emitted together, and one
reversal numbers them all in topological order. The resulting
:class:`AcTree` is the whole decomposition: the nesting family is expanded
from it alone.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain

from .dominators import (
    DominatorTree, _check_node, _group_by_idom, _immediate_dominators, _preorder,
)
from .graph import Graph, _Record


class AcTree(_Record):
    """The A-C tree in flat form, with the immediate dominators it refines.

    Components are numbered densely, owner by owner in ascending node id,
    and each owner's sequence in a topological order fixed by the graph,
    arc order included: when the dominators' DFS meets no back arc, every
    component is one node and each owner's children follow that DFS's
    reverse postorder. ``idom[v]`` is the immediate dominator of ``v``
    (the source maps to itself); ``comp_id[v]`` is the number of ``v``'s
    component (-1 for the source). The components are stored as compressed
    rows: the members of component ``c`` are
    ``comp_nodes[comp_start[c] : comp_start[c + 1]]``, in ascending id, so
    ``comp_nodes`` lists every node but the source once, component by
    component. The components of owner ``a`` are numbered
    ``comp_offsets[a]`` up to ``comp_offsets[a + 1] - 1``; ``comp_sizes``
    maps each component size to the number of components of that size, in
    ascending size. ``width`` is one more than the largest component (1 for
    a single-node graph). ``offsets`` and ``heads`` are the topology the
    tree was built from: the graph's own tuples, held by reference, not
    copied. The tree does not depend on weights, so it serves any graph
    with equal ``offsets``, ``heads`` and source, and
    :func:`~actree.recursive_dijkstra` rejects any other. The arrays are
    read-only by contract. The repr shows ``width`` and ``comp_sizes`` only,
    so printing a tree costs the same at any size.
    """

    __slots__ = (
        "idom", "width", "comp_id", "comp_start", "comp_nodes",
        "comp_offsets", "comp_sizes", "offsets", "heads",
    )
    _shown = ("width", "comp_sizes")

    @property
    def components(self) -> dict[int, tuple[frozenset[int], ...]]:
        """Each node with dominator children mapped to its component sequence."""
        off = self.comp_offsets
        start = self.comp_start
        nodes = self.comp_nodes
        return {
            a: tuple(
                frozenset(nodes[start[c] : start[c + 1]])
                for c in range(off[a], off[a + 1])
            )
            for a in range(len(off) - 1)
            if off[a] < off[a + 1]
        }


def _sibling_arcs(
    g: Graph, idom: tuple[int, ...], order: tuple[int, ...]
) -> tuple[list[list[int]], int]:
    """Arcs of every dominance graph, as head lists in scan order.

    One loop over the dominator tree's preorder ``order`` keeps, for each
    node, its child whose subtree the loop is inside (``current``), then
    scans the stored arcs of the visited node ``v``. For an arc ``(v, w)``,
    ``idom(w)`` is ``v`` itself or a proper ancestor of ``v``, whose
    ``current`` entry is already the child on the path to ``v``. So the arc
    becomes the sibling arc ``(current[idom(w)], w)`` in O(1), stored as
    ``w`` in ``succ[current[idom(w)]]``; both ends are children of
    ``idom(w)``. Arcs onto the global source and arcs that coincide with
    dominator-tree arcs contribute nothing and are skipped, as are arcs from
    ``w``'s own subtree back to ``w``. A head may repeat. Also returns the
    number of arcs examined, which is the arc count of ``g``.
    """
    n = g.node_count
    s = g.source
    off, heads = g.offsets, g.heads
    current = [-1] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    examined = 0
    for v in order:
        current[idom[v]] = v
        row = heads[off[v] : off[v + 1]]
        examined += len(row)
        for w in row:
            if w == s or idom[w] == v:
                continue
            c = current[idom[w]]
            if c != w:
                succ[c].append(w)
    return succ, examined


def naive_dominance_graph(
    g: Graph, t: DominatorTree, a: int
) -> frozenset[tuple[int, int]]:
    """Definition-level dominance graph of ``a`` (test oracle, O(n + e)).

    Returns the arcs ``(u, v)`` between distinct dominator children of ``a``
    such that some arc leaves the subtree of ``u`` and enters the subtree of
    ``v``. The nodes of the graph are ``t.children[a]``.
    """
    _check_node(a, g.node_count)
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

    Dominators first. When their DFS meets no back arc but self-loops and
    arcs into the source, every sibling arc points forward in the DFS's
    reverse postorder, so every component is one node: one counting sort of
    that order by immediate dominator lays the tree out. Any other graph
    goes through the sibling-arc pass and one Tarjan pass. Linear on an
    acyclic graph, near-linear overall; the decomposition does not depend
    on arc weights.
    """
    n = g.node_count
    idom, post = _immediate_dominators(g)
    if post is None:
        return _tarjan_tree(g, idom)
    # one component per non-source node: each owner's children, in reverse
    # postorder
    start, nodes = _group_by_idom(idom, g.source, post)
    comp_id = [-1] * n
    for c, v in enumerate(nodes):
        comp_id[v] = c
    return AcTree(
        idom,
        min(n, 2),
        array("i", comp_id),
        array("i", range(n)),
        tuple(nodes),
        array("i", start),
        {1: n - 1} if n > 1 else {},
        g.offsets,
        g.heads,
    )


def _tarjan_tree(g: Graph, idom: tuple[int, ...]) -> AcTree:
    """The A-C tree of any pruned graph with immediate dominators ``idom``.

    The sibling-arc pass over the dominator tree's preorder, then one
    iterative Tarjan pass over all non-source nodes. Roots are tried owner
    by owner, owners in descending id and each owner's children in
    ascending id, heads in stored arc order. No sibling arc crosses owners,
    so each owner's components are emitted together, in reverse topological
    order whatever the head order, repeats included; one reversal then
    numbers every component, owner by owner in ascending id.
    """
    n = g.node_count
    order, kids = _preorder(idom, g.source)
    succ, _ = _sibling_arcs(g, idom, order)
    del order

    # Tarjan with low-link propagation. index[v] is v's position on
    # comp_stack, so a component is the stack's tail from its root; a
    # finished node gets low = n, which no comparison can take. A node with
    # no sibling arcs out is a component on its own and is emitted at once.
    index = [-1] * n
    low = [n] * n
    comp_stack: list[int] = []
    emitted: list[list[int]] = []
    for root in reversed(kids):
        if index[root] >= 0:
            continue
        if not succ[root]:
            index[root] = 0
            emitted.append([root])
            continue
        index[root] = low[root] = 0  # the stack is empty between roots
        comp_stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    if not succ[w]:
                        index[w] = 0
                        emitted.append([w])
                        continue
                    index[w] = low[w] = len(comp_stack)
                    comp_stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    comp = comp_stack[lv:]
                    del comp_stack[lv:]
                    for w in comp:
                        low[w] = n
                    emitted.append(comp)
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
    del index, low, succ, kids  # freed before the numbering allocates: a lower peak

    # Number the components in topological order, owner by owner.
    emitted.reverse()
    comp_id = [-1] * n
    count = [0] * (n + 1)
    for cid, comp in enumerate(emitted):
        if len(comp) > 1:
            comp.sort()
        count[idom[comp[0]] + 1] += 1
        for v in comp:
            comp_id[v] = cid
    comp_start = array("i", accumulate(map(len, emitted), initial=0))
    sizes = dict(sorted(Counter(map(len, emitted)).items()))
    return AcTree(
        idom,
        max(sizes, default=0) + 1,
        array("i", comp_id),
        comp_start,
        tuple(chain.from_iterable(emitted)),
        array("i", accumulate(count)),
        sizes,
        g.offsets,
        g.heads,
    )


def ac_to_nesting_family(tree: AcTree) -> tuple[frozenset[int], ...]:
    """Expand an A-C tree into the nesting family it certifies.

    For every node ``a`` the family holds each prefix of its component
    sequence, closed under dominator descendants and rooted at ``a``, plus
    the trivial modules. Owner ``a``'s components partition its dominator
    children, so a subtree is walked through the components alone. The
    result, sorted by size and then by members, is laminar, and its width
    (:func:`~actree.family_width`) equals ``tree.width``.

    This is a test-scale certificate: every prefix is its own frozenset, so
    on a wide dominator tree the family holds a number of elements
    quadratic in n (about 8M at n = 4096 on a random DAG).
    """
    off = tree.comp_offsets
    start = tree.comp_start
    nodes = tree.comp_nodes
    n = len(tree.idom)
    sets = {frozenset(range(n))}
    sets.update(frozenset((v,)) for v in range(n))
    for a in range(n):
        prefix = [a]
        for c in range(off[a], off[a + 1]):
            i = len(prefix)
            prefix.extend(nodes[start[c] : start[c + 1]])
            while i < len(prefix):  # append the subtrees of the new members
                v = prefix[i]
                i += 1
                # v's components are numbered contiguously: one slice
                prefix.extend(nodes[start[off[v]] : start[off[v + 1]]])
            sets.add(frozenset(prefix))
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))

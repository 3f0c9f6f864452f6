"""Dominator trees for single-source digraphs.

A node ``a`` dominates ``b`` when every path from the source to ``b``
passes through ``a``. The dominance order is tree-structured, and the tree
is computed here with the semi-NCA algorithm of Georgiadis, Tarjan and
Werneck ("Finding Dominators in Practice", JGAA 2006), the fastest they
measured in practice: Lengauer-Tarjan's semidominator pass with path
compression (O(e log n)), no buckets, and each immediate dominator found by
a short walk up the dominator tree built so far. Everything runs over flat
arrays indexed by DFS number. The tree is then walked once in preorder.
The stored preorder makes dominance an O(1) interval test and every subtree
a slice of it. A path-removal oracle is provided for testing.
"""

from __future__ import annotations

from array import array
from itertools import groupby

from .graph import Graph, GraphError, UnreachableNodeError, _Record


class DominatorTree(_Record):
    """Immediate-dominator tree with its preorder.

    ``idom[v]`` is the parent of ``v`` (the source maps to itself).
    ``order`` lists the nodes in preorder, children in ascending id;
    ``dfs_in`` is its inverse and ``dfs_out[v]`` the largest preorder number
    in ``v``'s subtree, so dominance is an O(1) interval test.
    """

    __slots__ = ("idom", "children", "order", "dfs_in", "dfs_out")

    def dominates(self, a: int, b: int) -> bool:
        """True when every source-to-``b`` path contains ``a`` (a >= b)."""
        n = len(self.idom)
        _check_node(a, n)
        _check_node(b, n)
        return self.dfs_in[a] <= self.dfs_in[b] and self.dfs_out[b] <= self.dfs_out[a]

    def descendants(self, a: int) -> tuple[int, ...]:
        """All nodes dominated by ``a``, including ``a`` itself, in preorder."""
        _check_node(a, len(self.idom))
        return self.order[self.dfs_in[a] : self.dfs_out[a] + 1]


def _check_node(v: int, n: int) -> None:
    """Raise :class:`GraphError` unless ``v`` is a node id below ``n``."""
    if type(v) is not int or not 0 <= v < n:
        raise GraphError(f"node {v!r} is not a node id of a {n}-node graph")


def compute_dominator_tree(g: Graph) -> DominatorTree:
    """Build the dominator tree of ``g`` rooted at its source.

    Requires every node to be reachable from the source (prune first).
    The tree and its preorder do not depend on the arc order.
    """
    idom, order, kids = _idom_preorder(g)
    n = g.node_count
    # read backwards, kids holds each owner's children as one ascending run
    children: list[tuple[int, ...]] = [()] * n
    for a, run in groupby(reversed(kids), idom.__getitem__):
        children[a] = tuple(run)
    dfs_in = [0] * n
    for i, v in enumerate(order):
        dfs_in[v] = i
    # a subtree ends where its last child's does; children before parents
    dfs_out = dfs_in[:]
    for v in reversed(order):
        if c := children[v]:
            dfs_out[v] = dfs_out[c[-1]]
    return DominatorTree(idom, tuple(children), order, tuple(dfs_in), tuple(dfs_out))


def _idom_preorder(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], array]:
    """Immediate dominators of ``g``, the dominator tree's preorder, and the
    non-source nodes grouped by immediate dominator, as an int array.

    Semi-NCA over DFS numbers. A DFS in stored arc order numbers the nodes
    and records each node's predecessors by number. Then, in decreasing
    number ``w``: a predecessor numbered ``<= w`` (a self-loop included)
    is its own semidominator candidate; a larger one is already linked, and
    its candidate is the least semidominator number on its forest path,
    found by path compression with ``label`` holding that minimum. Finally,
    in increasing number, ``idom[w]`` is the nearest ancestor of ``parent[w]``
    in the dominator tree numbered ``<= semi[w]``. One counting sort over
    ``idom`` groups the children: owners in ascending id, each owner's
    children in descending id, so the preorder lists children in ascending
    id.
    """
    n = g.node_count
    s = g.source
    off, heads = g.offsets, g.heads

    # Iterative DFS; nxt[v] is v's next arc, and every arc is scanned once.
    num = [-1] * n  # node -> dfs number
    vertex = [0] * n  # dfs number -> node
    parent = [0] * n  # dfs number -> dfs number of its DFS-tree parent
    pred: list[list[int]] = [[] for _ in range(n)]  # dfs number -> preds' numbers
    num[s] = 0
    vertex[0] = s
    count = 1
    nxt = list(off)
    stack = [s]
    while stack:
        v = stack[-1]
        nv = num[v]
        i = nxt[v]
        end = off[v + 1]
        while i < end:
            w = heads[i]
            i += 1
            x = num[w]
            if x < 0:
                num[w] = count
                vertex[count] = w
                parent[count] = nv
                pred[count].append(nv)
                count += 1
                stack.append(w)
                break
            pred[x].append(nv)
        else:
            stack.pop()
            i = end  # the int offsets holds, so a finished node keeps none
        nxt[v] = i
    if count < n:
        raise UnreachableNodeError(
            f"{n - count} nodes unreachable from source {s}; prune first"
        )
    del num, nxt  # each pass frees what it no longer reads: a lower peak

    # Semidominators. Numbers above w are linked into the forest, with
    # anc[] as their (compressed) forest parent.
    semi = list(range(n))
    label = list(range(n))
    anc = parent[:]
    for w in range(n - 1, 0, -1):
        sw = w
        for v in pred[w]:
            if v <= w:
                if v < sw:
                    sw = v
                continue
            a = anc[v]
            if a > w:
                path = []
                x = v
                while a > w:
                    path.append(x)
                    x = a
                    a = anc[x]
                lx = label[x]
                for u in reversed(path):
                    lu = label[u]
                    if lx < lu:
                        label[u] = lx
                    else:
                        lx = lu
                    anc[u] = a
            else:
                lx = label[v]
            if lx < sw:
                sw = lx
        semi[w] = label[w] = sw
    del pred, label, anc

    # idom[w] = NCA(parent[w], semi[w]): climb from the parent.
    inum = semi  # reused: semi[w] is read before inum[w] is written
    for w in range(1, n):
        x = parent[w]
        sw = semi[w]
        while x > sw:
            x = inum[x]
        inum[w] = x
    idom = [s] * n
    for w in range(1, n):
        idom[vertex[w]] = vertex[inum[w]]

    # Children grouped by idom in descending id (counting sort), then a
    # preorder that pops them in ascending id.
    start = [0] * (n + 1)
    for p in idom:
        start[p] += 1
    start[s] -= 1  # the source is no child of itself
    for a in range(n):
        start[a + 1] += start[a]
    kids = array("i", [0]) * (n - 1)
    for v in range(n):
        if v != s:
            p = idom[v]
            k = start[p] - 1
            start[p] = k
            kids[k] = v
    # now a's children are kids[start[a]:start[a + 1]]
    order = []
    stack = [s]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[start[v] : start[v + 1]])
    return tuple(idom), tuple(order), kids


def brute_force_dominated_set(g: Graph, a: int) -> frozenset[int]:
    """Nodes dominated by ``a``, by the removal definition.

    ``a`` dominates ``b`` iff ``a == b`` or ``b`` becomes unreachable from
    the source once the arcs touching ``a`` are removed. One search covers
    all ``b`` at once.
    """
    n = g.node_count
    _check_node(a, n)
    reached = [False] * n
    if a != g.source:
        reached[g.source] = True
        stack = [g.source]
        while stack:
            u = stack.pop()
            if u == a:
                continue  # do not traverse out of the removed node
            for v in g.heads[g.offsets[u] : g.offsets[u + 1]]:
                if not reached[v]:
                    reached[v] = True
                    stack.append(v)
    return frozenset(b for b in range(n) if b == a or not reached[b])

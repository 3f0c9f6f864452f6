"""Dominator trees for single-source digraphs.

A node ``a`` dominates ``b`` when every path from the source to ``b``
passes through ``a``. The dominance order is tree-structured, and the tree
is computed here with the Lengauer-Tarjan algorithm (simple eval/link
variant, O(e log n)) and then walked once in preorder. The stored preorder
makes dominance an O(1) interval test and every subtree a slice of it. A
path-removal oracle is provided for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, UnreachableNodeError


@dataclass(frozen=True)
class DominatorTree:
    """Immediate-dominator tree with its preorder.

    ``idom[v]`` is the parent of ``v`` (the source maps to itself).
    ``order`` lists the nodes in preorder, children in ascending id;
    ``dfs_in`` is its inverse and ``dfs_out[v]`` the largest preorder number
    in ``v``'s subtree, so dominance is an O(1) interval test.
    """

    idom: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    dfs_in: tuple[int, ...]
    dfs_out: tuple[int, ...]

    def dominates(self, a: int, b: int) -> bool:
        """True when every source-to-``b`` path contains ``a`` (a >= b)."""
        return self.dfs_in[a] <= self.dfs_in[b] and self.dfs_out[b] <= self.dfs_out[a]

    def descendants(self, a: int) -> tuple[int, ...]:
        """All nodes dominated by ``a``, including ``a`` itself, in preorder."""
        return self.order[self.dfs_in[a] : self.dfs_out[a] + 1]


def compute_dominator_tree(g: Graph) -> DominatorTree:
    """Build the dominator tree of ``g`` rooted at its source.

    Requires every node to be reachable from the source (prune first).
    DFS numbering follows the stored arc order, so the result is
    deterministic for a given graph.
    """
    n = g.node_count
    s = g.source
    off, heads = g.offsets, g.heads

    # Iterative DFS: numbers nodes in arc order and records predecessors
    # while each arc is scanned exactly once; nxt[v] is v's next arc.
    semi = [-1] * n  # dfs number, reused below as semidominator number
    vertex = [0] * n  # dfs number -> node
    parent = [0] * n  # node -> dfs tree parent
    pred: list[list[int]] = [[] for _ in range(n)]
    semi[s] = 0
    vertex[0] = s
    count = 1
    nxt = list(off)
    stack = [s]
    while stack:
        v = stack[-1]
        i = nxt[v]
        end = off[v + 1]
        while i < end:
            w = heads[i]
            i += 1
            pred[w].append(v)
            if semi[w] < 0:
                semi[w] = count
                vertex[count] = w
                count += 1
                parent[w] = v
                stack.append(w)
                break
        else:
            stack.pop()
            i = end  # the int offsets holds, so a finished node keeps none
        nxt[v] = i
    if count < n:
        raise UnreachableNodeError(
            f"{n - count} nodes unreachable from source {s}; prune first"
        )

    # Forest for eval/link with path compression. label[v] tracks the node
    # of minimum semidominator number on the path to the forest root.
    ancestor = [-1] * n
    label = list(range(n))
    idom = [0] * n
    bucket: list[list[int]] = [[] for _ in range(n)]

    def compress(v: int) -> None:
        # iterative equivalent of the classic recursive compression
        path = []
        while ancestor[ancestor[v]] != -1:
            path.append(v)
            v = ancestor[v]
        for u in reversed(path):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]

    def eval_(v: int) -> int:
        if ancestor[v] == -1:
            return v
        compress(v)
        return label[v]

    for i in range(count - 1, 0, -1):
        w = vertex[i]
        sw = semi[w]
        for v in pred[w]:
            u = eval_(v)
            if semi[u] < sw:
                sw = semi[u]
        semi[w] = sw
        bucket[vertex[sw]].append(w)
        p = parent[w]
        ancestor[w] = p  # link
        for v in bucket[p]:
            u = eval_(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p].clear()
    for i in range(1, count):
        w = vertex[i]
        if idom[w] != vertex[semi[w]]:
            idom[w] = idom[idom[w]]
    idom[s] = s

    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != s:
            children[idom[v]].append(v)

    # Preorder over the dominator tree; dfs_out is the largest entry number
    # in the subtree, so containment is interval containment.
    order: list[int] = []
    dfs_in = [0] * n
    dfs_out = [0] * n
    walk: list[tuple[int, bool]] = [(s, False)]
    while walk:
        v, done = walk.pop()
        if done:
            dfs_out[v] = len(order) - 1
            continue
        dfs_in[v] = len(order)
        order.append(v)
        walk.append((v, True))
        for c in reversed(children[v]):
            walk.append((c, False))

    return DominatorTree(
        tuple(idom),
        tuple(tuple(c) for c in children),
        tuple(order),
        tuple(dfs_in),
        tuple(dfs_out),
    )


def brute_force_dominated_set(g: Graph, a: int) -> frozenset[int]:
    """Nodes dominated by ``a``, by the removal definition.

    ``a`` dominates ``b`` iff ``a == b`` or ``b`` becomes unreachable from
    the source once the arcs touching ``a`` are removed. One search covers
    all ``b`` at once.
    """
    n = g.node_count
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


def brute_force_dominates(g: Graph, a: int, b: int) -> bool:
    """Definition-level dominance oracle (test-only, one search per call)."""
    return b in brute_force_dominated_set(g, a)

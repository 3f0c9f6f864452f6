"""Dominator trees for single-source digraphs.

A node ``a`` dominates ``b`` when every path from the source to ``b``
passes through ``a``. The dominance order is tree-structured, and the tree
is computed here with the semi-NCA algorithm of Georgiadis, Tarjan and
Werneck ("Finding Dominators in Practice", JGAA 2006), the fastest they
measured in practice: Lengauer-Tarjan's semidominator pass, its EVAL by
path halving, no buckets, and each immediate dominator found by a walk up
the dominator tree built so far. The DFS files no DFS-tree arc as a
predecessor: each node's semidominator search starts at its DFS parent.
One parent at a time, the walk is short on most inputs but bounded only by
the tree's depth, which the path-star DAG reaches: a path
``0 -> 1 -> ... -> k`` plus arcs ``k -> w`` and ``0 -> w`` for ``k`` extra
nodes ``w``, where each ``w`` walks from ``k`` back to the source, O(n^2)
steps in all. So each node also keeps a skew-binary jump pointer to an
ancestor (Myers, "An applicative random-access stack", IPL 1983), set in
O(1) as it joins the tree, and a walk takes a jump whenever it lands still
above its target: O(log n) steps per walk, and O(e log n) for the whole
pass on every input.
Everything runs over flat arrays indexed by DFS number. The pass returns
the tree grouped by owner, each owner's children in the reverse postorder
of its DFS, which the A-C tree build reads. A :class:`DominatorTree` is
its immediate dominators and nothing else: ``DominatorTree(idom)`` checks
them, files each node under its immediate dominator in ascending id, and
lays out the preorder in one walk, and :func:`compute_dominator_tree` is
that constructor on the pass's answer. The stored preorder makes dominance
an O(1) interval test and every subtree a slice of it. A path-removal
oracle is provided for testing.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

from .graph import Graph, GraphError, UnreachableNodeError, _check_arg, _gc_paused, _Record

class DominatorTree(_Record):
    """Immediate-dominator tree with its preorder, built from ``idom`` alone.

    ``DominatorTree(idom)`` takes the tuple of immediate dominators, its only
    field: ``idom[v]`` is the parent of ``v``, and the root is the one node
    that maps to itself. Every other slot is derived from it and is
    read-only. ``children[a]`` lists ``a``'s children in ascending id;
    ``order`` lists the nodes in preorder, smallest child first;
    ``dfs_in`` is its inverse and ``dfs_out[v]`` the largest preorder
    number in ``v``'s subtree, so dominance is an O(1) interval test.
    :class:`GraphError` is raised for an ``idom`` that is not a tuple, and,
    naming the node, for an entry that is not an ``int`` node id (a
    ``bool`` is none), for no root, and for a node whose chain of parents
    never reaches the root (a cycle, or a second node that maps to
    itself). Trees are equal, hash alike and pickle as their ``idom``. The
    repr shows the node count and the root only, so printing a tree costs
    the same at any size.
    """

    __slots__ = ("idom", "children", "order", "dfs_in", "dfs_out")
    _fields = ("idom",)

    @_gc_paused
    def __init__(self, idom: tuple[int, ...]) -> None:
        """One pass over the nodes in ascending id files each under its
        immediate dominator, so every owner's children come out in ascending
        id; then one walk from the root lays out the preorder, and a node it
        misses is not under the root. The cyclic garbage collector is paused
        meanwhile."""
        _check_arg(idom, tuple, "idom")
        n = len(idom)
        if not (set(map(type, idom)) <= {int} and min(idom, default=0) >= 0
                and max(idom, default=-1) < n):
            v = next(v for v, p in enumerate(idom) if type(p) is not int or not 0 <= p < n)
            raise GraphError(f"idom[{v}] = {idom[v]!r} is not a node id of a {n}-node tree")
        s = next((v for v, p in enumerate(idom) if v == p), None)
        if s is None:
            raise GraphError(f"idom has no root: none of its {n} nodes maps to itself")
        grouped: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(idom):
            grouped[p].append(v)
        grouped[s].remove(s)  # the root maps to itself and is no child
        children = tuple(map(tuple, grouped))
        del grouped
        order = []
        stack = [s]
        while stack:
            v = stack.pop()
            order.append(v)
            stack += reversed(children[v])  # the smallest child comes off first
        order = tuple(order)
        dfs_in = [-1] * n
        for i, v in enumerate(order):
            dfs_in[v] = i
        if len(order) < n:  # the walk missed a node: the least one is named
            raise GraphError(f"node {dfs_in.index(-1)} is not under the root {s}: its"
                             " chain of idom parents ends in a cycle or at a second root")
        # a subtree ends where its last child's does; children before parents
        dfs_out = dfs_in[:]
        for v in reversed(order):
            if c := children[v]:
                dfs_out[v] = dfs_out[c[-1]]
        values = (idom, children, order, tuple(dfs_in), tuple(dfs_out))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"DominatorTree(node_count={len(self.idom)}, root={self.order[0]})"

    def dominates(self, a: int, b: int) -> bool:
        """True when every source-to-``b`` path contains ``a``: ``a`` is
        ``b`` or an ancestor of ``b`` in the dominator tree."""
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


@_gc_paused
def compute_dominator_tree(g: Graph) -> DominatorTree:
    """Build the dominator tree of ``g`` rooted at its source:
    ``DominatorTree`` of the immediate dominators that the semi-NCA pass
    finds.

    Requires every node to be reachable from the source (prune first).
    The tree and its preorder do not depend on the arc order. The pass
    and the tree run with the cyclic garbage collector paused, and the
    caller's setting is restored on return or error.
    """
    _check_arg(g, Graph, "g")
    return DominatorTree(_immediate_dominators(g)[0])


def _immediate_dominators(g: Graph) -> tuple[tuple[int, ...], array, list[int], bool]:
    """Immediate dominators of ``g``, its dominator tree grouped by owner,
    and whether the DFS met a back arc other than a self-loop or an arc
    into the source.

    Returns ``(idom, start, kids, back)``: owner ``a``'s children are
    ``kids[start[a] : start[a + 1]]``, owners in ascending id, each owner's
    children in the reverse postorder of the DFS; ``start`` is an int array
    and ``kids`` a list of the graph's own int objects.

    Semi-NCA over DFS numbers. A DFS in stored arc order numbers the nodes
    and records, by number, each node's predecessors over the arcs that are
    not DFS-tree arcs. Then, in decreasing number ``w``: the candidate
    semidominators start at ``w``'s DFS parent; a predecessor numbered
    ``<= w`` (a self-loop included) is its own candidate; a larger one is
    already linked, and its candidate is the least semidominator number on
    its forest path, found by path halving (EVAL): each linked node on the
    walk takes the smaller label of its own and its parent's segment, with
    ``label`` holding a segment's minimum, and jumps to its grandparent.
    A back arc costs one comparison to spot: for a predecessor ``v > w``
    the walk ends at ``v``'s nearest DFS ancestor numbered ``<= w``, which
    is ``w`` exactly when ``w`` is an ancestor of ``v``. Finally, in
    increasing number, ``idom[w]`` is the nearest ancestor of ``parent[w]``
    in the dominator tree numbered ``<= semi[w]``. Numbers fall going up
    the tree, so the climb takes ``x``'s jump pointer ``jump[x]`` whenever
    it is still numbered above ``semi[w]`` and steps to ``x``'s parent
    otherwise. Each node ``w`` joins the tree under ``x`` with Myers'
    skew-binary rule: ``jump[w]`` is ``jump[jump[x]]`` when ``x`` and
    ``jump[x]`` jump equally many levels (``span``), and ``x`` otherwise,
    so every climb takes O(log n) steps and the pass is O(e log n)
    whatever the input. The climb loop also maps each answer back to node
    ids and counts each owner's children, so the grouping is a counting
    sort: one walk of the reverse postorder, linked from the source
    through each finished node's dead ``nxt`` entry, places them. No finish
    order list is built; the A-C tree build walks the grouping into one
    preorder, which keeps each owner's children in this order and so
    serves as the first pass of Kosaraju-Sharir.
    """
    n = g.node_count
    s = g.source
    off, heads = g.offsets, g.heads

    # Iterative DFS; nxt[v] is v's next arc while v is on the stack, and
    # every arc is scanned once.
    num = [-1] * n  # node -> dfs number
    vertex = [0] * n  # dfs number -> node
    parent = [0] * n  # dfs number -> dfs number of its DFS-tree parent
    pred: list[list[int]] = [[] for _ in range(n)]  # dfs number -> preds' numbers
    num[s] = 0
    vertex[0] = s
    count = 1
    nxt = list(off)
    stack = [s]
    last = s
    while stack:
        v = stack[-1]
        nv = num[v]
        i = nxt[v]
        end = off[v + 1]
        while i < end:
            w = heads[i]
            i += 1
            x = num[w]
            if x < 0:  # a tree arc: parent[w] stands for it
                num[w] = count
                vertex[count] = w
                parent[count] = nv
                count += 1
                stack.append(w)
                nxt[v] = i
                break
            pred[x].append(nv)
        else:
            stack.pop()
            # v's entry is dead, so it links the finish order instead: from
            # the source, which finishes last, nxt walks the reverse postorder
            nxt[v] = last
            last = v
    if count < n:
        raise UnreachableNodeError(
            f"{n - count} nodes unreachable from source {s}; prune first"
        )
    del num  # each pass frees what it no longer reads: a lower peak

    # Semidominators. Numbers above w are linked into the forest, with
    # anc[] as their forest parent, halved by each walk; label[x] is the
    # least semidominator from x up to, not including, anc[x]. The copies
    # share parent's int objects: a lower peak.
    semi = parent[:]
    label = parent[:]
    anc = parent[:]
    back = False
    for w in range(n - 1, 0, -1):
        sw = parent[w]
        for v in pred[w]:
            if v <= w:
                if v < sw:
                    sw = v
                continue
            lx = label[v]
            a = anc[v]
            x = v
            while a > w:  # x and its forest parent a are linked
                la = label[a]
                if la < label[x]:
                    label[x] = la
                    if la < lx:  # lx <= label[x] already
                        lx = la
                a = anc[a]
                anc[x] = a
                if a > w:  # the walk goes on from the grandparent
                    x = a
                    if label[x] < lx:
                        lx = label[x]
                    a = anc[x]
            # a is v's nearest DFS ancestor numbered <= w: w itself exactly
            # when (v, w) is a back arc
            if a == w:
                back = True
            if lx < sw:
                sw = lx
        semi[w] = label[w] = sw
    del pred

    # idom[w] = NCA(parent[w], semi[w]): climb the dominator tree from the
    # parent to its first ancestor numbered <= semi[w]. Numbers fall going
    # up, so a jump to an ancestor still above semi[w] skips nothing; the
    # skew-binary jumps bound each climb by O(log n) steps.
    inum = label  # reused: the climb reads inum[x] only for x < w
    jump = anc  # jump[0] = parent[0] = 0, the root's own
    span = [0] * n  # levels from w up to jump[w]
    idom = [s] * n
    count = [0] * n  # each owner's number of children
    for w in range(1, n):
        x = parent[w]
        sw = semi[w]
        while x > sw:
            j = jump[x]
            x = j if j > sw else inum[x]
        inum[w] = x
        j = jump[x]
        k = span[x]
        if k == span[j]:
            jump[w] = jump[j]
            span[w] = 2 * k + 1
        else:
            jump[w] = x
            span[w] = 1
        p = vertex[x]
        idom[vertex[w]] = p
        count[p] += 1

    # Group the children by owner, each owner's in reverse postorder: nxt
    # walks it from the source.
    fill = list(accumulate(count, initial=0))
    start = array("i", fill)  # no int object per entry: a lower peak
    kids = [s] * (n - 1)
    v = s
    for _ in range(n - 1):
        v = nxt[v]
        p = idom[v]
        k = fill[p]
        fill[p] = k + 1
        kids[k] = v
    return tuple(idom), start, kids, back


def brute_force_dominated_set(g: Graph, a: int) -> frozenset[int]:
    """Nodes dominated by ``a``, by the removal definition.

    ``a`` dominates ``b`` iff ``a == b`` or ``b`` becomes unreachable from
    the source once the arcs touching ``a`` are removed. One search covers
    all ``b`` at once.
    """
    _check_arg(g, Graph, "g")
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

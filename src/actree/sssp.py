"""Shortest-path engines and the shortest-path-tree checker.

Two engines produce the same distances on the same graph: textbook Dijkstra
over one all-nodes queue (the oracle), and the recursive engine that drains
one small queue per A-C tree component in topological order; on a DAG every
component is a single node, so it runs without a queue. Both use a
``heapq`` binary heap of ``(dist, node)`` entries with lazy deletion: an
improvement pushes a new entry, and an entry whose distance is no longer
current is skipped when it surfaces. Ties on distance therefore break by
node id. A component queue is filled with the members' finite distances
when its turn to drain comes, so it holds at most |C| + (arcs into C)
entries for a component C. The recursive engine checks once, before it
starts, that the tree was built from the graph's topology, so its loop
carries no per-node guard. Both engines finalise every node exactly once
and relax each arc exactly once from a finalised tail, so equal inputs give
bit-equal distances. Both engines scan node ``u``'s arcs as the index
range ``offsets[u]:offsets[u + 1]`` of the graph's ``heads`` and
``weights`` tuples, and the recursive engine reads component ``c``'s
members as the range ``comp_start[c]:comp_start[c + 1]`` of the tree's
``comp_nodes`` tuple. ``Graph`` guarantees in-range heads and finite
non-negative weights, so no engine checks them again.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .ac_tree import AcTree
from .graph import Graph, TreeMismatchError, UnreachableNodeError, _Record

INF = float("inf")


class SearchStats(_Record):
    """Operation counts for one search.

    ``pops`` counts node finalisations (equals the node count on pruned
    input). ``key_decreases`` counts tentative-distance improvements.
    ``max_queue_len`` is the size of the largest component a queue served:
    the largest component of the A-C tree for the recursive engine (every
    component is opened once all nodes are finalised), the node count for
    the single-queue engine. It does not count the stale entries lazy
    deletion leaves behind.
    ``component_sizes`` is a size histogram of the component queues used
    (empty for the single-queue engine).
    """

    __slots__ = ("pops", "key_decreases", "max_queue_len", "component_sizes")

    def as_dict(self) -> dict:
        return {
            "pops": self.pops,
            "key_decreases": self.key_decreases,
            "max_queue_len": self.max_queue_len,
            "component_sizes": dict(self.component_sizes),
        }


class ShortestPathResult(_Record):
    """Distances, parent tree, and search statistics."""

    __slots__ = ("dist", "parent", "stats")

    def as_dict(self) -> dict:
        return {
            "dist": list(self.dist),
            "parent": list(self.parent),
            "stats": self.stats.as_dict(),
        }


def dijkstra(g: Graph) -> ShortestPathResult:
    """Textbook Dijkstra over a single all-nodes queue; the baseline oracle.

    Requires a pruned graph: raises :class:`UnreachableNodeError` when the
    source does not reach every node. Ties on distance break by node id.
    """
    n = g.node_count
    s = g.source
    off, heads, weights = g.offsets, g.heads, g.weights
    dist = [INF] * n
    dist[s] = 0.0
    parent = [None] * n
    heap = [(0.0, s)]
    pops = 0
    decreases = 0
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        pops += 1
        for i in range(off[v], off[v + 1]):
            w = heads[i]
            nd = d + weights[i]
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = v
                heappush(heap, (nd, w))
                decreases += 1
    if pops < n:
        raise UnreachableNodeError(
            f"{n - pops} nodes unreachable from source {s}; prune first"
        )
    stats = SearchStats(pops, decreases, n, {})
    dist = tuple(dist)  # each list is freed as soon as its tuple exists
    parent = tuple(parent)
    return ShortestPathResult(dist, parent, stats)


def recursive_dijkstra(g: Graph, tree: AcTree) -> ShortestPathResult:
    """Dijkstra driven by the A-C tree: one queue per component.

    Finalising a node relaxes its out-arcs, then descends into the node's
    own component sequence; each owner's components are drained in
    topological order. A component's queue is heapified from its members'
    finite tentative distances when its turn comes; before that an
    improvement is a plain distance write, and a singleton component is one
    read of ``comp_nodes`` and needs no queue at all. Every queue serves one
    component C, so it serves at most ``width - 1`` nodes and holds at most
    |C| + (arcs into C) entries, and a heap operation costs the logarithm
    of that rather than of n.

    ``tree`` serves ``g`` exactly when they share the topology and the
    source: ``g.offsets`` and ``g.heads`` equal the tuples the tree was
    built from (an identity check first, then one O(e) compare), and the
    source is the tree's root. Weights may differ, so one tree serves any
    reweighting of the same arcs in the same order. Anything else raises
    :class:`TreeMismatchError` before the search starts: a different node
    count, the source inside a component, or another topology, the same
    arcs reordered within a row included; for another topology the error
    names the first node whose out-arcs differ. A tree altered after its
    build that leaves a node unfinalised raises it at the end.
    """
    n = g.node_count
    s = g.source
    off, heads, weights = g.offsets, g.heads, g.weights
    comp_id = tree.comp_id
    start = tree.comp_start
    nodes = tree.comp_nodes
    comp_off = tree.comp_offsets
    if len(comp_id) != n:
        raise TreeMismatchError(
            f"A-C tree covers {len(comp_id)} nodes, the graph has {n}"
        )
    if comp_id[s] != -1:
        raise TreeMismatchError(
            f"source {s} sits in component {comp_id[s]} of the A-C tree"
        )
    if not (
        (off is tree.offsets or off == tree.offsets)
        and (heads is tree.heads or heads == tree.heads)
    ):
        u = _first_differing_row(off, heads, tree.offsets, tree.heads)
        raise TreeMismatchError(
            "the A-C tree was built for another topology:"
            f" the arcs out of node {u} differ from the graph's"
        )

    dist = [INF] * n
    dist[s] = 0.0
    parent = [None] * n
    queues: list[list[tuple[float, int]] | None] = [None] * (len(start) - 1)
    pops = 0
    decreases = 0
    # the owner being drained: its next component, its end, the open queue;
    # owners interrupted by a descent wait in ``suspended``
    cid = end = 0
    heap: list[tuple[float, int]] | None = None
    suspended: list[tuple[int, int, list[tuple[float, int]] | None]] = []
    u = s
    while u >= 0:
        pops += 1
        du = dist[u]
        for i in range(off[u], off[u + 1]):
            w = heads[i]
            nd = du + weights[i]
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = u
                decreases += 1
                q = queues[comp_id[w]]
                if q is not None:
                    heappush(q, (nd, w))
        first = comp_off[u]
        if first < comp_off[u + 1]:
            suspended.append((cid, end, heap))
            cid = first
            end = comp_off[u + 1]
            heap = None
        # choose the next node to finalise; u < 0 when every queue is drained
        while True:
            if heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue  # stale entry left by an improvement
                break
            if cid == end:
                if not suspended:
                    u = -1
                    break
                cid, end, heap = suspended.pop()
                continue
            lo = start[cid]
            hi = start[cid + 1]
            if hi - lo == 1:
                u = nodes[lo]
                cid += 1
                break
            heap = [(d, v) for v in nodes[lo:hi] if (d := dist[v]) < INF]
            heapify(heap)
            queues[cid] = heap
            cid += 1

    if pops != n:
        raise TreeMismatchError(
            f"the search finalised {pops} of {n} nodes:"
            " the A-C tree was altered after its build"
        )
    sizes = tree.comp_sizes
    state = SearchStats(pops, decreases, max(sizes, default=0), dict(sizes))
    dist = tuple(dist)  # each list is freed as soon as its tuple exists
    parent = tuple(parent)
    return ShortestPathResult(dist, parent, state)


def _first_differing_row(off: tuple, heads: tuple, t_off: tuple, t_heads: tuple) -> int:
    """The first node whose heads differ between two CSR topologies.

    Runs on the failure path only. If every common row is equal, the
    topologies differ in length and the first node past the shorter one is
    returned.
    """
    rows = min(len(off), len(t_off)) - 1
    for u in range(rows):
        if heads[off[u] : off[u + 1]] != t_heads[t_off[u] : t_off[u + 1]]:
            return u
    return max(rows, 0)


def _unreadable(dist, parent, n: int) -> tuple[str, ...]:
    """Why a result could not be read: the first column that some node id
    ``0..n-1`` does not index, or else every distance that is not a number.

    Runs on the failure path only.
    """
    for name, column in (("dist", dist), ("parent", parent)):
        for v in range(n):
            try:
                column[v]
            except (TypeError, LookupError):
                return (f"the {name} column cannot be indexed by node id {v}",)
    return tuple(f"dist[{v}]={d!r} is not an int or float" for v, d in enumerate(dist)
                 if not isinstance(d, (int, float)))


class SptCheck(_Record):
    """Outcome of a shortest-path-tree verification; falsy when violated."""

    __slots__ = ("ok", "violations")

    def __bool__(self) -> bool:
        return self.ok


def verify_spt(g: Graph, r: ShortestPathResult) -> SptCheck:
    """Certify a result against the Bellman criteria in O(n + e).

    Checks that the source sits at distance 0 with no parent, every other
    node has a parent whose arc exists and is tight, and no arc of the
    graph improves any distance. Comparisons are exact. When a distance
    breaks them (``None``), each one that is not an ``int`` or ``float`` is
    named and no arc is checked. A column with no length, or the wrong one,
    is reported as a size mismatch; a column that some node id does not
    index (a ``set``, or a ``dict`` with a missing key) is named on its own.
    """
    n = g.node_count
    s = g.source
    dist, parent = r.dist, r.parent
    bad: list[str] = []
    try:
        sized = len(dist) == n and len(parent) == n
    except TypeError:  # a column with no length
        sized = False
    if not sized:
        return SptCheck(False, ("result arrays do not match the graph size",))
    off, heads, weights = g.offsets, g.heads, g.weights
    tight: list[bool | None] = [None] * n  # None until a parent arc is seen
    try:
        if dist[s] != 0:
            bad.append(f"dist[source]={dist[s]!r}, expected 0")
        if parent[s] is not None:
            bad.append(f"source has parent {parent[s]}")
        for v in range(n):
            if v != s and parent[v] is None:
                bad.append(f"node {v} has no parent")
            if not dist[v] >= 0 or dist[v] == INF:
                bad.append(f"dist[{v}]={dist[v]!r} is not a finite non-negative value")
        for u in range(n):
            du = dist[u]
            for i in range(off[u], off[u + 1]):
                v = heads[i]
                w = weights[i]
                if du + w < dist[v]:
                    bad.append(
                        f"improving arc {u}->{v} (w={w!r}): "
                        f"{du!r} + {w!r} < {dist[v]!r}"
                    )
                if parent[v] == u and not tight[v]:
                    tight[v] = du + w == dist[v]
    except (TypeError, LookupError):  # a column or a distance it cannot read
        return SptCheck(False, _unreadable(dist, parent, n))
    for v in range(n):
        if v == s or parent[v] is None:
            continue
        if tight[v] is None:
            bad.append(f"parent arc {parent[v]}->{v} does not exist")
        elif not tight[v]:
            bad.append(f"parent arc {parent[v]}->{v} is not tight for dist {dist[v]!r}")
    return SptCheck(not bad, tuple(bad))

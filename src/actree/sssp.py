"""Shortest-path engines and the shortest-path-tree checker.

Two engines produce the same distances on the same graph: textbook Dijkstra
over one all-nodes queue (the oracle), and the recursive engine that drains
one small queue per A-C tree component in topological order. When every
component is a single node, as on every DAG, the source's plan segment
holds every other node, and the recursive engine walks it in one plain
loop with no queue; any other tree takes the loop that drains component
queues, and the two give bit-identical results on such a plan. Both use a
``heapq`` binary heap of ``(dist, node)`` entries with lazy deletion: an
improvement pushes a new entry, and an entry whose distance is no longer
current is skipped when it surfaces. Ties on distance therefore break by
node id. The recursive engine follows the tree's weight-free search plan,
built with the tree: one tuple in which every singleton component is its
node, inline, and a larger component is the tuple of its members, at which
its queue opens, filled with the members' finite distances. Each member
then points at that queue, so an improvement finds its queue in one read.
A push that leaves a queue longer than twice the width drops its stale
entries, so no queue holds more than 2·width + 1 entries, and with
``heapq`` a search takes O((n + e) log w) time on a graph of width w. The
paper's O(e + n log w) needs a heap with O(1) amortised decrease-key,
such as Fredman and Tarjan's Fibonacci heap. The recursive engine checks
once, before it starts, that the tree was built from the graph's
topology, so its loop carries no per-node guard. Both
engines finalise every node exactly once and relax each arc exactly once
from a finalised tail, so equal inputs give bit-equal distances. Both
engines scan node ``u``'s arcs as the index range
``offsets[u]:offsets[u + 1]`` of the graph's ``heads`` and ``weights``
tuples; the loop that drains component queues reads that range as the
tree's ``rows[u]``, laid out once with the tree. ``Graph`` guarantees
in-range heads and finite non-negative weights, so no engine checks them
again.

:func:`verify_spt` certifies a result on its own, in O(n + e) with exact
comparisons: a right result passes one fast pass over the arcs, and any
other is named, violation by violation, by the specification loop. Its
answer, an :class:`SptCheck`, is that tuple of violations and nothing
else, so it is truthy exactly when the tuple is empty.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain, islice
from sys import float_info
from types import NoneType

from .ac_tree import AcTree
from .graph import (
    DistanceOverflowError,
    Graph,
    TreeMismatchError,
    UnreachableNodeError,
    _check_arg,
    _gc_paused,
    _Record,
)

INF = float("inf")


class SearchStats(_Record):
    """Operation counts for one search.

    ``pops`` counts node finalisations (equals the node count on pruned
    input). ``key_decreases`` counts tentative-distance improvements.
    For the recursive engine, ``component_sizes`` is
    ``dict(tree.comp_sizes)``, the tree's size histogram as a dict from
    component size to count, singletons included, and ``max_queue_len``
    is ``width - 1``. Neither counts the queues the search opened: a DAG
    reports ``{1: n - 1}`` and 1 with no queue opened. For the
    single-queue engine, ``max_queue_len`` is the node count, not the
    heap's peak size with the stale entries lazy deletion leaves, and
    ``component_sizes`` is empty.
    """

    __slots__ = ("pops", "key_decreases", "max_queue_len", "component_sizes")


class ShortestPathResult(_Record):
    """Distances, parent tree, and search statistics."""

    __slots__ = ("dist", "parent", "stats")


@_gc_paused
def dijkstra(g: Graph) -> ShortestPathResult:
    """Textbook Dijkstra over a single all-nodes queue; the baseline oracle.

    Requires a pruned graph: raises :class:`UnreachableNodeError` when the
    source does not reach every node, and :class:`DistanceOverflowError`
    naming a node whose every path sums past the largest float. Ties on
    distance break by node id. The cyclic garbage collector is paused while
    it runs, and the caller's setting is restored on return or error.
    """
    _check_arg(g, Graph, "g")
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
        raise _overflow(g, dist) or UnreachableNodeError(
            f"{n - pops} nodes unreachable from source {s}; prune first"
        )
    stats = SearchStats(pops, decreases, n, {})
    dist = tuple(dist)  # each list is freed as soon as its tuple exists
    parent = tuple(parent)
    return ShortestPathResult(dist, parent, stats)


@_gc_paused
def recursive_dijkstra(g: Graph, tree: AcTree) -> ShortestPathResult:
    """Dijkstra driven by the A-C tree: one queue per component.

    The search walks the tree's plan (``tree.plan``), segment by segment:
    it starts in the source's segment, ``tree.plan[s]``, and a node ``u``
    taken from a queue is finalised and, when ``tree.plan[u]`` is a
    segment (one read per pop), has that segment walked before the queue
    goes on; a stack of ``(walk, queue)`` pairs holds the walks a descent
    interrupted. So each owner's components are drained in topological
    order, and the finalisation order is the tree's. A plan entry that is
    a node is a singleton component: the node is finalised at once, with
    no queue, and its own components follow inline. A tuple of members
    opens the queue of that component, heapified from the members' finite
    tentative distances, and points each member at it; before that an
    improvement is a plain distance write. Every queue serves one
    component C, so it serves at most ``width - 1`` nodes, and a push
    that leaves it longer than ``2 * width`` drops its stale entries, so it
    never holds more than ``2 * width + 1``. A heap operation costs the
    logarithm of that rather than of n, and the search takes
    O((n + e) log w) time with ``heapq``; the paper's O(e + n log w) needs
    a heap with O(1) amortised decrease-key. A tree with no ``rows`` (width 2
    or less, so every component is one node: every DAG and some cyclic
    graphs) has every other node in the source's segment (a ``None``
    segment is empty, as on a one-node graph), and the search is
    :func:`_walk_singletons`: the source, then that segment in order, with
    no queue list and no stack. Any other tree goes through
    :func:`_drain_components`, which walks each segment in one loop and
    drains each queue in another, and reads each node's arcs as the
    tree's ``rows[u]``. Both give the same distances, parents and counts.

    ``tree`` serves ``g`` exactly when they share the topology and the
    source: ``g.offsets`` and ``g.heads`` equal the tuples the tree was
    built from (an identity check first, then one O(e) compare), and
    ``tree.source`` is ``g``'s. Weights may differ, so one tree serves any
    reweighting of the same arcs in the same order. Anything else raises
    :class:`TreeMismatchError` before the search starts: a source that is
    not the tree's root, or another topology, another node count or the
    same arcs reordered within a row included; for another topology the
    error names the first node whose out-arcs differ. A tree holds only
    what its topology implies, so once both checks pass the search
    finalises every node exactly once and needs no check of its own. A
    node whose every path sums past the largest float raises
    :class:`DistanceOverflowError`: one ``sum(dist)`` in C spots it, and
    only a sum of ``inf`` sends the search to look for the node.

    The search runs with the cyclic garbage collector paused: every heap,
    heap entry and suspended walk is a small container, none of them in a
    reference cycle, so the collector would only rescan them. The caller's
    setting is restored on return or error.
    """
    _check_arg(g, Graph, "g")
    _check_arg(tree, AcTree, "tree", TreeMismatchError)
    n = g.node_count
    s = g.source
    off, heads = g.offsets, g.heads
    if tree.source != s:
        raise TreeMismatchError(
            f"source {s} is not the root of the A-C tree, whose root is {tree.source}"
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
    if tree.rows is None:
        pops, decreases = _walk_singletons(g, tree, dist, parent)
    else:
        pops, decreases = _drain_components(g, tree, dist, parent)
    if sum(dist) == INF:  # an inf distance makes the sum inf
        error = _overflow(g, dist)
        if error is not None:
            raise error
    state = SearchStats(pops, decreases, tree.width - 1, dict(tree.comp_sizes))
    dist = tuple(dist)  # each list is freed as soon as its tuple exists
    parent = tuple(parent)
    return ShortestPathResult(dist, parent, state)


def _walk_singletons(
    g: Graph, tree: AcTree, dist: list[float], parent: list[int | None]
) -> tuple[int, int]:
    """The search of :func:`recursive_dijkstra` on a tree of width 2 or
    less, whose source's plan segment holds all ``n - 1`` other nodes, since
    every component is one node: finalise the source, then every node of
    that segment in order.

    ``dist`` and ``parent`` are filled in place; returns the pops and key
    decreases. No queue opens and no node owns a segment of its own, so
    this is exactly what :func:`_drain_components` does on such a plan.
    """
    off, heads, weights = g.offsets, g.heads, g.weights
    s = g.source
    segment = tree.plan[s] or ()
    decreases = 0
    for u in chain((s,), segment):
        du = dist[u]
        for i in range(off[u], off[u + 1]):
            w = heads[i]
            nd = du + weights[i]
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = u
                decreases += 1
    return len(segment) + 1, decreases


def _drain_components(
    g: Graph, tree: AcTree, dist: list[float], parent: list[int | None]
) -> tuple[int, int]:
    """The search of :func:`recursive_dijkstra` on any plan: drain one
    queue per component of two or more nodes, in the plan's order.

    ``dist`` and ``parent`` are filled in place; returns the pops and key
    decreases. A segment is walked by one iterator: a node is finalised at
    once, and a tuple of members opens that component's heap, which its own
    loop then drains. A popped node with a segment suspends the walk and
    the heap, and its segment is walked first. Node ``u``'s arcs are the
    tree's ``rows[u]``, laid out with the tree.

    A push that leaves a heap longer than ``2 * tree.width`` compacts it to
    its live entries, those whose key is their node's current distance, and
    heapifies it. A push follows only a strict decrease and a popped entry
    leaves the heap, so one live entry remains per unfinalised member with
    a finite distance, at most ``width - 1``, and no heap ever holds more
    than ``2 * width + 1`` entries. A compaction drops more entries than it
    keeps, so it costs O(1) per push, amortised. It filters the list in
    place, since the members' ``queue`` slots and a suspended walk share
    it. The live entries, and so the pops, decreases, distances and
    parents, are those of a heap with no cap.
    """
    s = g.source
    heads, weights = g.heads, g.weights
    rows = tree.rows
    plan = tree.plan
    limit = 2 * tree.width
    queue: list[list[tuple[float, int]] | None] = [None] * len(dist)  # its component's heap
    pops = 0
    decreases = 0
    # the walk of the current segment and its open heap; the walks and
    # heaps a descent interrupted wait in ``suspended``
    walk = chain((s,), plan[s] or ())
    heap: list[tuple[float, int]] | tuple[()] = ()
    suspended = []
    while True:
        while heap:
            du, u = heappop(heap)
            if du > dist[u]:
                continue  # stale entry left by an improvement
            pops += 1
            for i in rows[u]:
                w = heads[i]
                nd = du + weights[i]
                if nd < dist[w]:
                    dist[w] = nd
                    parent[w] = u
                    decreases += 1
                    q = queue[w]
                    if q is not None:
                        heappush(q, (nd, w))
                        if len(q) > limit:
                            q[:] = [e for e in q if e[0] == dist[e[1]]]
                            heapify(q)
            if plan[u] is not None:  # u's segment comes before the rest of the heap
                suspended.append((walk, heap))
                walk = iter(plan[u])
                heap = ()
                break
        for u in walk:
            if type(u) is tuple:  # a component of two or more nodes opens its heap
                heap = []
                for v in u:
                    queue[v] = heap
                    if (d := dist[v]) < INF:
                        heap.append((d, v))
                heapify(heap)
                break
            pops += 1  # a singleton component: its segment follows inline
            du = dist[u]
            for i in rows[u]:
                w = heads[i]
                nd = du + weights[i]
                if nd < dist[w]:
                    dist[w] = nd
                    parent[w] = u
                    decreases += 1
                    q = queue[w]
                    if q is not None:
                        heappush(q, (nd, w))
                        if len(q) > limit:
                            q[:] = [e for e in q if e[0] == dist[e[1]]]
                            heapify(q)
        else:
            if not suspended:
                return pops, decreases
            walk, heap = suspended.pop()


def _overflow(g: Graph, dist: list[float]) -> DistanceOverflowError | None:
    """The error naming the head of the first arc, in storage order, whose
    finite tail distance plus its weight overflows to ``inf`` at a node
    still at ``inf``; ``None`` if no arc does.

    After a search, such a node has no path whose sum is finite. Runs on
    the failure path only, and when finite distances sum past the largest
    float.
    """
    off, heads, weights = g.offsets, g.heads, g.weights
    for u in range(g.node_count):
        du = dist[u]
        if du == INF:
            continue
        for i in range(off[u], off[u + 1]):
            v = heads[i]
            if dist[v] == INF and du + weights[i] == INF:
                return DistanceOverflowError(
                    f"the distance of node {v} overflows: every path to it sums"
                    f" past the largest float (dist[{u}] = {du!r} plus arc"
                    f" {u}->{v} of weight {weights[i]!r} is inf)",
                    v,
                )
    return None


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
    """Outcome of a shortest-path-tree verification: the tuple of its
    violations, its only field. ``ok`` is true when there are none, and the
    check is truthy exactly then."""

    __slots__ = ("violations",)
    _shown = ("ok", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def verify_spt(g: Graph, r: ShortestPathResult) -> SptCheck:
    """Certify a result against the Bellman criteria in O(n + e).

    Checks that the source sits at distance 0 with no parent, every other
    node has a parent, an ``int`` node id (``True`` or ``0.0`` is none,
    and is named), whose arc exists and is tight, no arc of the graph
    improves any distance, and no parent arcs close a cycle, so every
    node's parents lead back to the source. Comparisons are exact. When a
    distance breaks them (``None``), each one that is not an ``int`` or
    ``float`` is named and no arc is checked. A distance past every float,
    either way (a huge ``int``), is named, and no arc through it is checked;
    an ``int`` with more digits than ``str`` converts is named by its size
    in bits. A column with no length, or the wrong one, is reported as a
    size mismatch; a column that some node id does not index (a ``set``,
    or a ``dict`` with a missing key) is named on its own. Two results that
    pass have bit-identical distances: a float sum never rounds below its
    operand when the weight is not negative, so a node whose distances
    differ, at the least such distance, has a tight parent that differs at
    it too, and so on back to the source, whose distance is 0 in both.

    A result that passes, and whose parent arcs all join nodes at different
    distances, comes through one fast pass: the node columns are checked
    whole, in C, and one loop over the arcs reads a parent only on a tight
    arc. Any other result, and any exception in that pass, goes through
    :func:`_spt_violations`, the specification, which names every violation
    in its order.
    """
    _check_arg(g, Graph, "g")
    _check_arg(r, ShortestPathResult, "r")
    try:
        if _spt_holds(g, r.dist, r.parent):
            return SptCheck(())
    except Exception:  # the specification reads what this pass could not
        pass
    return _spt_violations(g, r)


def _spt_holds(g: Graph, dist, parent) -> bool:
    """True when ``dist`` and ``parent`` pass every check of
    :func:`_spt_violations`; False means only "not shown here".

    Every node column check runs in C: the sizes, the source's entries,
    every parent an ``int`` or ``None``, ``min(dist) >= 0``, and
    ``sum(dist) < inf``, which is false on a NaN or infinite distance. Then
    one loop reads the arcs in storage order, through one iterator over
    ``heads`` and ``weights`` sliced by each node's out-degree, compares
    ``dist[u] + w`` with ``dist[v]`` on every arc ``(u, v, w)`` and, only
    where the two are equal, marks ``v`` tight if ``parent[v]`` is ``u``;
    every node but the source must end up tight, so no other parent is
    ``None``.

    A tight arc never lowers a distance, so every arc of a cycle of tight
    parent arcs joins two nodes at one distance. A tight parent arc with
    ``dist[u] == dist[v]`` therefore returns False, and the specification
    walks the parents.
    """
    n = g.node_count
    s = g.source
    if not (
        type(dist) in (tuple, list)
        and type(parent) in (tuple, list)
        and len(dist) == n
        and len(parent) == n
        and dist[s] == 0
        and parent[s] is None
        and set(map(type, parent)) <= {int, NoneType}
        and min(dist) >= 0
        and sum(dist) < INF
    ):
        return False
    off = g.offsets
    arcs = zip(g.heads, g.weights)  # every arc once, in storage order
    tight = [False] * n
    for u in range(n):
        du = dist[u]
        for v, w in islice(arcs, off[u + 1] - off[u]):
            d = du + w
            dv = dist[v]
            if d <= dv:
                if d < dv:
                    return False  # an improving arc
                if parent[v] == u:
                    if du == dv:
                        return False  # it may close a parent cycle
                    tight[v] = True
    return tight.count(True) == n - 1


def _spt_violations(g: Graph, r: ShortestPathResult) -> SptCheck:
    """:func:`verify_spt` one node and one arc at a time: the specification
    of its checks, naming every violation in order."""
    n = g.node_count
    s = g.source
    dist, parent = r.dist, r.parent
    bad: list[str] = []
    try:
        sized = len(dist) == n and len(parent) == n
    except TypeError:  # a column with no length
        sized = False
    if not sized:
        return SptCheck(("result arrays do not match the graph size",))
    off, heads, weights = g.offsets, g.heads, g.weights
    # the tail of v's tight parent arc: None until a parent arc is seen, -1
    # while none of them is tight, -2 if it has an end in far and is not summed
    up: list[int | None] = [None] * n
    far = set()  # the nodes whose distance is past every float
    try:
        if dist[s] != 0:
            bad.append(f"dist[source]={_shown(dist[s])}, expected 0")
        if parent[s] is not None:
            bad.append(f"source has parent {_shown(parent[s], str)}")
        for v in range(n):
            p = parent[v]
            if v != s and p is None:
                bad.append(f"node {v} has no parent")
            elif p is not None and type(p) is not int:
                bad.append(f"parent[{v}]={_shown(p)} is not a node id")
            if not dist[v] >= 0 or dist[v] == INF:
                bad.append(f"dist[{v}]={_shown(dist[v])} is not a finite non-negative value")
            elif dist[v] > float_info.max:  # such as an int too large for a float
                bad.append(f"dist[{v}] is larger than any float")
            if float_info.max < abs(dist[v]) < INF:  # an int past every float
                far.add(v)
        for u in range(n):
            du = dist[u]
            for i in range(off[u], off[u + 1]):
                v = heads[i]
                if u in far or v in far:  # no sum through it, so it is seen only
                    if parent[v] == u and up[v] is None:
                        up[v] = -2
                    continue
                w = weights[i]
                if du + w < dist[v]:
                    bad.append(
                        f"improving arc {u}->{v} (w={w!r}): "
                        f"{du!r} + {w!r} < {dist[v]!r}"
                    )
                if parent[v] == u and (up[v] is None or up[v] < 0):
                    up[v] = u if du + w == dist[v] else -1
    except (TypeError, LookupError):  # a column or a distance it cannot read
        return SptCheck(_unreadable(dist, parent, n))
    for v in range(n):
        if v == s or parent[v] is None:
            continue
        if up[v] is None:
            bad.append(f"parent arc {_shown(parent[v], str)}->{v} does not exist")
        elif up[v] == -1:
            bad.append(f"parent arc {parent[v]}->{v} is not tight for dist {dist[v]!r}")
    bad += _parent_cycles(up, s)
    return SptCheck(tuple(bad))


def _shown(x, show=repr) -> str:
    """``show(x)``, or, for an int with more digits than ``str`` converts,
    its sign and size in bits, so a violation can name any value."""
    try:
        return show(x)
    except ValueError:
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"


def _parent_cycles(up: list[int | None], s: int) -> list[str]:
    """A violation naming each cycle that the tight parent arcs
    ``up[v] -> v`` close, in arc order from its least node.

    The walk up from each node stops at the source, at a node with no tight
    parent arc, or at a node already walked from.
    """
    state = [0] * len(up)  # 0 not reached, 1 on the current walk, 2 done
    bad = []
    for v in range(len(up)):
        walk = []
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            if v == s or up[v] is None or up[v] < 0:
                break
            v = up[v]
        else:
            if state[v] == 1:  # the walk came back to v
                cycle = walk[walk.index(v) :][::-1]
                k = cycle.index(min(cycle))
                cycle = cycle[k:] + cycle[:k]
                cycle.append(cycle[0])
                bad.append(f"parent arcs close the cycle {'->'.join(map(str, cycle))}")
        for x in walk:
            state[x] = 2
    return bad

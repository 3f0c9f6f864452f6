"""Independent oracle and per-op invariant checks.

The oracle is a lazy-deletion ``heapq`` Dijkstra over the benchmark's own
adjacency lists; it shares no code with the program. Distances must match
it bit for bit: both compute the unique fixpoint of
``dist[v] = min(dist[u] + w)`` under the same float rounding.
"""

from __future__ import annotations

import heapq
from array import array

INF = float("inf")


def adjacency(n: int, arcs: list[tuple[int, int]], weights: list[float]) -> list[list]:
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in zip(arcs, weights):
        adj[u].append((v, w))
    return adj


def heapq_dijkstra(n: int, source: int, adj: list[list]) -> list[float]:
    dist = [INF] * n
    dist[source] = 0.0
    done = [False] * n
    queue = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while queue:
        d, u = pop(queue)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                push(queue, (nd, v))
    return dist


def failures(result, spt_ok, remap, oracle: list[float], arc_count: int,
             width: int, width_range: tuple[int, float]) -> list[str]:
    """Every broken invariant of one op's output; empty when the op is right.

    ``remap`` is what ``prune_unreachable`` returned, or ``None`` when the
    op does not prune. The benchmark's graphs reach every node, so pruning
    must keep every id.
    """
    n = len(oracle)
    bad = []
    if not spt_ok:
        bad.append("verify_spt rejected the result")
    if remap is not None and list(remap) != list(range(n)):
        bad.append("prune_unreachable renumbered a fully reachable graph")
    try:
        exact = array("d", result.dist).tobytes() == array("d", oracle).tobytes()
    except TypeError:
        exact = False
    if not exact:
        bad.append("dist differs from the heapq oracle")
    stats = result.stats
    if stats.pops != n:
        bad.append(f"pops {stats.pops} != n {n}")
    if stats.key_decreases > arc_count:
        bad.append(f"key_decreases {stats.key_decreases} > e {arc_count}")
    if stats.max_queue_len > width - 1:
        bad.append(f"max_queue_len {stats.max_queue_len} > width - 1 = {width - 1}")
    lo, hi = width_range
    if not lo <= width <= hi:
        bad.append(f"width {width} outside [{lo}, {hi}]")
    return bad

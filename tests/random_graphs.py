"""Seeded graph families, random graphs with self-loops and repeated arcs,
and a stand-in graph that records the rows read from it, shared by the test
modules.

The seeded families are plain fixtures: each call with the same arguments
and seed builds an equal graph, and no argument is checked beyond what
:meth:`Graph.from_arcs` checks.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import strategies as st

from actree import Graph


def gen_layered(depth: int, seed) -> Graph:
    """Two-track layered DAG: a source feeding ``depth`` rank pairs.

    Nodes are ``s, a_1, b_1, ..., a_N, b_N`` with arcs from the source to
    both rank-1 nodes and all four arcs between consecutive ranks. Weights
    are uniform in [0, 1). The dominator tree of this family is flat.
    """
    rng = random.Random(seed)
    # node ids: s = 0, a_i = 2i - 1, b_i = 2i
    arcs = [(0, 1, rng.random()), (0, 2, rng.random())]
    for i in range(1, depth):
        for tail in (2 * i - 1, 2 * i):
            arcs.append((tail, 2 * i + 1, rng.random()))
            arcs.append((tail, 2 * i + 2, rng.random()))
    return Graph.from_arcs(2 * depth + 1, 0, arcs)


def _arborescence(n: int, rng: random.Random) -> list[tuple[int, int, float]]:
    """Each node ``v > 0`` gets an arc from a uniform earlier node, so node 0
    reaches every node; weights are uniform in [0, 1)."""
    return [(rng.randrange(v), v, rng.random()) for v in range(1, n)]


def gen_random_digraph(n: int, e: int, seed) -> Graph:
    """Random digraph with every node reachable from node 0.

    A random arborescence rooted at the source is laid down first, then
    ``e - (n - 1)`` uniform arcs (self-loops and parallels allowed). Fewer
    than ``n - 1`` requested arcs still yields the arborescence. Weights are
    uniform in [0, 1).
    """
    rng = random.Random(seed)
    arcs = _arborescence(n, rng)
    for _ in range(e - (n - 1)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        arcs.append((u, v, rng.random()))
    return Graph.from_arcs(n, 0, arcs)


def gen_random_dag(n: int, e: int, seed) -> Graph:
    """Random DAG: arcs only from lower to higher rank (node id = rank).

    Reachability from the source is guaranteed the same way as in
    :func:`gen_random_digraph`; extra arcs are redrawn until ``u != v``.
    """
    rng = random.Random(seed)
    arcs = _arborescence(n, rng)
    for _ in range(e - (n - 1) if n > 1 else 0):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while u == v:
            u = rng.randrange(n)
            v = rng.randrange(n)
        arcs.append((min(u, v), max(u, v), rng.random()))
    return Graph.from_arcs(n, 0, arcs)


def gen_complete(n: int, seed=None) -> Graph:
    """Complete digraph on ``n`` nodes; unit weights unless a seed is given,
    else weights uniform in [0, 1) drawn in arc order."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if seed is not None:
        rng = random.Random(seed)
        arcs = [(u, v, rng.random()) for u, v in arcs]
    return Graph.from_arcs(n, 0, arcs)


def path_star(k: int) -> Graph:
    """The path-star DAG on ``2k + 1`` nodes: the path ``0 -> 1 -> ... -> k``
    plus, for each of ``k`` extra nodes ``w_j = k + j``, the arcs ``k -> w_j``
    and ``0 -> w_j``. Every ``w_j`` is dominated by the source alone, but its
    DFS parent is ``k``, at the far end of the path. Unit weights."""
    arcs = [(v, v + 1) for v in range(k)]
    for w in range(k + 1, 2 * k + 1):
        arcs += [(k, w), (0, w)]
    return Graph.from_arcs(2 * k + 1, 0, arcs)


def path_fan(k: int, seed=0) -> Graph:
    """The path ``0 -> 1 -> ... -> k`` plus, for each of ``k`` extra nodes
    ``w_j = k + j``, the arcs ``k -> w_j`` and ``r -> w_j`` from a uniform
    path node ``r``, listed after the path. Each ``w_j``'s DFS parent is
    ``k`` and its immediate dominator is its ``r``, so its NCA climb stops
    part-way up the path. Unit weights."""
    rng = random.Random(seed)
    arcs = [(v, v + 1) for v in range(k)]
    for w in range(k + 1, 2 * k + 1):
        arcs += [(k, w), (rng.randint(0, k), w)]
    return Graph.from_arcs(2 * k + 1, 0, arcs)


def path_back_arcs(k: int) -> Graph:
    """The path ``0 -> 1 -> ... -> k`` plus an arc from its end ``k`` back to
    every node, the source included. Unit weights."""
    arcs = [(v, v + 1) for v in range(k)] + [(k, v) for v in range(k)]
    return Graph.from_arcs(k + 1, 0, arcs)


def nested_loops(k: int) -> Graph:
    """The path ``0 -> 1 -> ... -> 2k`` plus the arc ``2k + 1 - i -> i`` for
    each ``i`` in ``1..k``: ``k`` loops, each inside the one before. Unit
    weights."""
    arcs = [(v, v + 1) for v in range(2 * k)]
    arcs += [(2 * k + 1 - i, i) for i in range(1, k + 1)]
    return Graph.from_arcs(2 * k + 1, 0, arcs)


def star_back_arcs(k: int) -> Graph:
    """The source's arc to a hub ``1``, and an arc each way between the hub
    and each of ``k`` leaves ``2..k + 1``. Unit weights."""
    arcs = [(0, 1)]
    for w in range(2, k + 2):
        arcs += [(1, w), (w, 1)]
    return Graph.from_arcs(k + 2, 0, arcs)


def ladder(k: int) -> Graph:
    """Two paths ``a_1 -> ... -> a_k`` and ``b_1 -> ... -> b_k`` (``a_i = 2i - 1``,
    ``b_i = 2i``) with an arc each way across every rung, entered at ``a_1``
    from the source; every component but ``{b_1}`` is a rung. Unit weights."""
    arcs = [(0, 1)]
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        arcs += [(a, b), (b, a)]
        if i < k:
            arcs += [(a, a + 2), (b, b + 2)]
    return Graph.from_arcs(2 * k + 1, 0, arcs)


def nested_chain(n: int) -> Graph:
    """Blocks of 8 consecutive nodes (``n`` a multiple of 8): an 8-node ring
    through each hub ``h``, the chords ``h + 1 -> h + 3`` and
    ``h + 4 -> h + 2``, and ``h + 7 -> h + 8`` into the next hub. Each block's
    ``{h + 2, h + 3}`` is a two-node component (width 3) and ``h + 3``
    dominates the rest of the chain, so a search holds one heap per block
    suspended at once. Arc ``u -> v`` weighs ``1 + (7u + v) % 10``."""
    arcs = [(h + i, h + (i + 1) % 8) for h in range(0, n, 8) for i in range(8)]
    arcs += [(h + x, h + y) for h in range(0, n, 8) for x, y in ((1, 3), (4, 2), (7, 8))
             if h + y < n]
    return Graph.from_arcs(n, 0, [(u, v, 1 + (7 * u + v) % 10) for u, v in arcs])


def block_chain(n: int, seed) -> Graph:
    """Blocks of 8 consecutive nodes (``n`` a multiple of 8), each an 8-node
    ring through its first node, its hub, plus 15 random chords that never
    enter the hub, and one arc from a random node of each block to the next
    hub. A block is entered only at its hub, so the hub dominates the block
    and the width is at most 8. Weights are uniform in [0, 1)."""
    rng = random.Random(seed)
    arcs = []
    for h in range(0, n, 8):
        arcs += [(h + i, h + (i + 1) % 8) for i in range(8)]
        arcs += [(h + rng.randrange(8), h + 1 + rng.randrange(7)) for _ in range(15)]
        if h + 8 < n:
            arcs.append((h + rng.randrange(8), h + 8))
    return Graph.from_arcs(n, 0, [(u, v, rng.random()) for u, v in arcs])


def random_arcs_with_loops(
    n: int, m: int, rng: random.Random, acyclic: bool = False
) -> list[tuple[int, int]]:
    """A random arborescence from node 0 and ``m`` uniform arcs (from the
    lower id to the higher one when ``acyclic``), then self-loops and
    repeated arcs, shuffled so a search meets them in no particular order."""
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        arcs.append((min(u, v), max(u, v)) if acyclic else (u, v))
    arcs.extend((v, v) for v in rng.sample(range(n), n // 8))
    arcs.extend(rng.sample(arcs, len(arcs) // 8))
    rng.shuffle(arcs)
    return arcs


def chain_of_blocks(n: int, rng: random.Random, block: int = 8) -> list[tuple[int, int]]:
    """Blocks of ``block`` consecutive nodes (``n`` a multiple of it), each a
    ring through its first node, its hub, plus ``2 * block`` random chords.
    A block is entered only at its hub, from one random node of the block
    before, so each block is strongly connected and every owner's dominance
    graph has cycles. The arcs are shuffled."""
    arcs = []
    for hub in range(0, n, block):
        arcs += [(hub + i, hub + (i + 1) % block) for i in range(block)]
        arcs += [(hub + rng.randrange(block), hub + rng.randrange(block))
                 for _ in range(2 * block)]
        if hub:
            arcs.append((hub - block + rng.randrange(block), hub))
    rng.shuffle(arcs)
    return arcs


class _RowLog:
    """The ``heads`` of a stand-in graph: serves slices of the real column
    and records each one's ``(start, stop)``."""

    def __init__(self, heads: tuple[int, ...]):
        self.heads = heads
        self.reads: list[tuple[int, int]] = []

    def __getitem__(self, rows: slice) -> tuple[int, ...]:
        self.reads.append((rows.start, rows.stop))
        return self.heads[rows]


def rows_read(g: Graph, read) -> list[tuple[int, int]]:
    """The ``(start, stop)`` of every slice of ``g.heads`` that ``read`` takes
    when handed a stand-in for ``g``, in the order it takes them."""
    log = _RowLog(g.heads)
    read(SimpleNamespace(
        node_count=g.node_count, source=g.source, offsets=g.offsets,
        heads=log, weights=g.weights,
    ))
    return log.reads


@st.composite
def small_graphs(draw) -> Graph:
    """A graph on at most 12 nodes reaching every node from a random source,
    with self-loops and repeated arcs drawn on purpose."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(0, n - 1))
    seq = [s, *draw(st.permutations([v for v in range(n) if v != s]))]
    # each node gets an arc from one earlier in seq, so the source reaches all
    arcs = [(seq[draw(st.integers(0, i - 1))], seq[i]) for i in range(1, n)]
    node = st.integers(0, n - 1)
    arcs += draw(st.lists(st.tuples(node, node), max_size=3 * n))
    arcs += [(v, v) for v in draw(st.lists(node, max_size=n))]
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=n)) if arcs else []
    return Graph.from_arcs(n, s, draw(st.permutations(arcs)))

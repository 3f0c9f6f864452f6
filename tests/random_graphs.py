"""Random graphs with self-loops and repeated arcs, and a stand-in graph
that records the rows read from it, shared by the test modules."""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import strategies as st

from actree import Graph


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

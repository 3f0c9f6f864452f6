"""Graph container, file formats, pruning, and seeded graph generators.

Everything downstream (dominators, decomposition, shortest paths) works on
the immutable :class:`Graph` defined here: a weighted digraph with dense
0-based node ids and one distinguished source node.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(Exception):
    """Base class for graph construction and ingest failures."""


class FormatError(GraphError):
    """Malformed graph file. ``line`` is the 1-based offending line, if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NegativeWeightError(GraphError):
    """An arc carries a negative weight."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnreachableNodeError(GraphError):
    """An operation that requires a pruned graph found unreachable nodes."""


class CycleError(GraphError):
    """An acyclic-only operation was handed a graph with a directed cycle."""


class TreeMismatchError(GraphError, ValueError):
    """An A-C tree was handed to a search over a graph it was not built for."""


Arc = tuple[int, float]


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph with a distinguished source node.

    ``out_arcs[u]`` holds ``(target, weight)`` pairs in insertion order.
    Parallel arcs and self-loops are kept as given; weights are finite
    non-negative floats (parsers normalise a missing weight to 1.0), so the
    search engines need no per-arc weight checks.
    """

    node_count: int
    source: int
    out_arcs: tuple[tuple[Arc, ...], ...]
    arc_count: int

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 1:
            raise GraphError("a graph needs at least one node")
        if not 0 <= self.source < n:
            raise GraphError(f"source {self.source} out of range for {n} nodes")
        if len(self.out_arcs) != n:
            raise GraphError("adjacency length does not match node_count")
        inf = math.inf
        count = 0
        for u, arcs in enumerate(self.out_arcs):
            for v, w in arcs:
                if type(v) is not int or not 0 <= v < n:
                    raise GraphError(f"arc {u}->{v!r}: target is not a node id")
                if not 0 <= w < inf:
                    if math.isfinite(w):
                        raise NegativeWeightError(f"arc {u}->{v} has weight {w}")
                    raise GraphError(f"arc {u}->{v} has non-finite weight {w}")
                count += 1
        if count != self.arc_count:
            raise GraphError(
                f"arc_count {self.arc_count} does not match adjacency ({count} arcs)"
            )

    @classmethod
    def from_arcs(cls, node_count: int, source: int, arcs: Iterable[tuple]) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, w)`` tuples, in order.

        Node ids are ``int``; a missing weight is 1.0 and a given one goes
        through ``float``. A malformed arc raises :class:`GraphError` naming it.
        """
        if node_count < 1:
            raise GraphError("a graph needs at least one node")
        adj: list[list[Arc]] = [[] for _ in range(node_count)]
        count = 0
        for arc in arcs:
            try:
                if len(arc) == 2:
                    u, v = arc
                    w = 1.0
                else:
                    u, v, w = arc
                    w = float(w)
                if not 0 <= u < node_count:
                    raise GraphError(f"arc {arc!r}: tail is not a node id")
                adj[u].append((v, w))  # a non-integer u fails to index
            except (TypeError, ValueError, OverflowError):
                raise GraphError(
                    f"arc {arc!r}: expected (u, v) or (u, v, w) with integer"
                    " node ids and a numeric weight"
                ) from None
            count += 1
        return cls(node_count, source, tuple(tuple(a) for a in adj), count)

    def arcs(self) -> Iterator[tuple[int, int, float]]:
        """Yield every arc as ``(u, v, w)`` in storage order."""
        for u, out in enumerate(self.out_arcs):
            for v, w in out:
                yield u, v, w


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First significant line is a header ``n m s``; each following line is an
    arc ``u v [w]`` with 0-based ids and an optional non-negative decimal
    weight (default 1.0). ``#`` starts a comment line.
    """
    header: tuple[int, int, int] | None = None
    arcs: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 3:
                raise FormatError("expected header 'n m s'", lineno)
            try:
                n, m, s = (int(f) for f in fields)
            except ValueError:
                raise FormatError("expected integer header 'n m s'", lineno) from None
            if n < 1:
                raise FormatError("node count must be positive", lineno)
            if m < 0:
                raise FormatError("arc count must be non-negative", lineno)
            if not 0 <= s < n:
                raise FormatError(f"source {s} out of range", lineno)
            header = (n, m, s)
            continue
        if len(fields) not in (2, 3):
            raise FormatError("expected arc 'u v [w]'", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise FormatError("malformed arc line", lineno) from None
        if not math.isfinite(w):
            raise FormatError(f"weight {fields[2]} is not finite", lineno)
        if w < 0:
            raise NegativeWeightError(f"negative weight {w}", lineno)
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"arc {u}->{v}: node id out of range", lineno)
        arcs.append((u, v, w))
    if header is None:
        raise FormatError("missing header line 'n m s'")
    n, m, s = header
    if len(arcs) != m:
        raise FormatError(f"header declares {m} arcs, file has {len(arcs)}")
    return Graph.from_arcs(n, s, arcs)


def serialize_edge_list(g: Graph) -> str:
    """Render ``g`` in the edge-list format; round-trips bit-exactly."""
    lines = [f"{g.node_count} {g.arc_count} {g.source}"]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in g.arcs())
    return "\n".join(lines) + "\n"


def parse_dimacs_sp(text: str, source: int = 1) -> Graph:
    """Parse the DIMACS shortest-path format (``c`` / ``p sp n m`` / ``a u v w``).

    DIMACS ids are 1-based and are shifted to 0-based. The format carries no
    source node, so the caller supplies one in the file's 1-based id space
    (default: node 1).
    """
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "c":
            continue
        if tag == "p":
            if header is not None:
                raise FormatError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "sp":
                raise FormatError("expected problem line 'p sp <n> <m>'", lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError("expected problem line 'p sp <n> <m>'", lineno) from None
            if n < 1:
                raise FormatError("node count must be positive", lineno)
            header = (n, m)
        elif tag == "a":
            if header is None:
                raise FormatError("arc descriptor before problem line", lineno)
            if len(fields) != 4:
                raise FormatError("expected arc 'a u v w'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
                w = float(fields[3])
            except ValueError:
                raise FormatError("malformed arc descriptor", lineno) from None
            n = header[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"arc {u}->{v}: node id out of range", lineno)
            if not math.isfinite(w):
                raise FormatError(f"weight {fields[3]} is not finite", lineno)
            if w < 0:
                raise NegativeWeightError(f"negative weight {w}", lineno)
            arcs.append((u - 1, v - 1, w))
        else:
            raise FormatError(f"unknown line tag {tag!r}", lineno)
    if header is None:
        raise FormatError("missing problem line 'p sp <n> <m>'")
    n, m = header
    if len(arcs) != m:
        raise FormatError(f"problem line declares {m} arcs, file has {len(arcs)}")
    if not 1 <= source <= n:
        raise FormatError(f"source {source} out of range (1..{n})")
    return Graph.from_arcs(n, source - 1, arcs)


def serialize_dimacs_sp(g: Graph) -> str:
    """Render ``g`` in DIMACS ``p sp`` format (source is not part of the format)."""
    lines = [f"p sp {g.node_count} {g.arc_count}"]
    lines.extend(f"a {u + 1} {v + 1} {w!r}" for u, v, w in g.arcs())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def prune_unreachable(g: Graph) -> tuple[Graph, list[int | None]]:
    """Drop nodes with no path from the source and re-densify ids.

    Returns ``(pruned, remap)`` where ``remap[old_id]`` is the new id or
    ``None`` for dropped nodes. All arcs among retained nodes survive in
    storage order, so pruning an already-pruned graph is the identity.
    """
    n = g.node_count
    reached = [False] * n
    reached[g.source] = True
    stack = [g.source]
    out = g.out_arcs
    while stack:
        u = stack.pop()
        for v, _ in out[u]:
            if not reached[v]:
                reached[v] = True
                stack.append(v)
    if all(reached):
        return g, list(range(n))
    remap: list[int | None] = [None] * n
    new_id = 0
    for v in range(n):
        if reached[v]:
            remap[v] = new_id
            new_id += 1
    arcs = []
    for u in range(n):
        if not reached[u]:
            continue
        nu = remap[u]
        for v, w in out[u]:
            # a reachable tail implies a reachable head
            arcs.append((nu, remap[v], w))
    pruned = Graph.from_arcs(new_id, remap[g.source], arcs)
    return pruned, remap


# ---------------------------------------------------------------------------
# Generators (all deterministic for a given seed)
# ---------------------------------------------------------------------------

def gen_layered(depth: int, seed: int) -> Graph:
    """Two-track layered DAG: a source feeding ``depth`` rank pairs.

    Nodes are ``s, a_1, b_1, ..., a_N, b_N`` with arcs from the source to
    both rank-1 nodes and all four arcs between consecutive ranks. Weights
    are uniform in [0, 1). The dominator tree of this family is flat.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    # node ids: s = 0, a_i = 2i - 1, b_i = 2i
    arcs = [(0, 1, rng.random()), (0, 2, rng.random())]
    for i in range(1, depth):
        for tail in (2 * i - 1, 2 * i):
            arcs.append((tail, 2 * i + 1, rng.random()))
            arcs.append((tail, 2 * i + 2, rng.random()))
    return Graph.from_arcs(2 * depth + 1, 0, arcs)


def gen_random_digraph(n: int, e: int, seed: int) -> Graph:
    """Random digraph with every node reachable from node 0.

    A random arborescence rooted at the source is laid down first, then
    ``e - (n - 1)`` uniform arcs (self-loops and parallels allowed). Fewer
    than ``n - 1`` requested arcs still yields the arborescence. Weights are
    uniform in [0, 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    arcs = []
    for v in range(1, n):
        arcs.append((rng.randrange(v), v, rng.random()))
    for _ in range(max(0, e - (n - 1))):
        u = rng.randrange(n)
        v = rng.randrange(n)
        arcs.append((u, v, rng.random()))
    return Graph.from_arcs(n, 0, arcs)


def gen_random_dag(n: int, e: int, seed: int) -> Graph:
    """Random DAG: arcs only from lower to higher rank (node id = rank).

    Reachability from the source is guaranteed the same way as in
    :func:`gen_random_digraph`; extra arcs are redrawn until ``u != v``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    arcs = []
    for v in range(1, n):
        arcs.append((rng.randrange(v), v, rng.random()))
    if n > 1:
        for _ in range(max(0, e - (n - 1))):
            u = rng.randrange(n)
            v = rng.randrange(n)
            while u == v:
                u = rng.randrange(n)
                v = rng.randrange(n)
            if u > v:
                u, v = v, u
            arcs.append((u, v, rng.random()))
    return Graph.from_arcs(n, 0, arcs)


def gen_complete(n: int, seed: int | None = None) -> Graph:
    """Complete digraph on ``n`` nodes; unit weights unless a seed is given."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed) if seed is not None else None
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v:
                arcs.append((u, v, rng.random() if rng else 1.0))
    return Graph.from_arcs(n, 0, arcs)


def nest(outer: Graph, at: int, inner: Graph) -> Graph:
    """Substitute ``inner`` for node ``at`` of ``outer``.

    Arcs into ``at`` are redirected to the inner source; arcs out of ``at``
    leave from the inner source. Retained outer nodes keep their relative
    order, inner nodes follow. Nesting a graph into a single-node outer
    graph returns that graph unchanged.
    """
    if not 0 <= at < outer.node_count:
        raise ValueError(f"node {at} out of range")
    shift = outer.node_count - 1
    inner_src = shift + inner.source

    def omap(v: int) -> int:
        if v == at:
            return inner_src
        return v if v < at else v - 1

    arcs = [(omap(u), omap(v), w) for u, v, w in outer.arcs()]
    arcs.extend((shift + u, shift + v, w) for u, v, w in inner.arcs())
    source = inner_src if at == outer.source else omap(outer.source)
    return Graph.from_arcs(shift + inner.node_count, source, arcs)


def gen_nested(spec, seed: int) -> Graph:
    """Build a graph from a recursive nesting description.

    A spec is either an ``int`` k (complete digraph on k nodes, seeded
    weights), a ready :class:`Graph`, or a triple ``(outer, at, inner)``
    meaning "substitute the graph described by ``inner`` for node ``at`` of
    the graph described by ``outer``".
    """
    if spec is None or spec == ():
        raise ValueError("empty nesting spec")
    rng = random.Random(seed)
    # post-order with an explicit stack, so nesting depth is not bounded by
    # the interpreter's recursion limit; a triple's outer part is built (and
    # draws its weights) before its inner part
    todo: list[tuple[object, bool]] = [(spec, False)]
    built: list[Graph] = []
    while todo:
        s, ready = todo.pop()
        if ready:
            inner = built.pop()
            built.append(nest(built.pop(), s[1], inner))
        elif isinstance(s, Graph):
            built.append(s)
        elif isinstance(s, int):
            if s < 1:
                raise ValueError("component size must be >= 1")
            arcs = [
                (u, v, rng.random()) for u in range(s) for v in range(s) if u != v
            ]
            built.append(Graph.from_arcs(s, 0, arcs))
        elif isinstance(s, tuple) and len(s) == 3:
            todo += ((s, True), (s[2], False), (s[0], False))
        else:
            raise ValueError(f"empty or malformed nesting spec: {s!r}")
    return built.pop()

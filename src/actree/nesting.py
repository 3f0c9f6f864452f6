"""Module checks, nesting families, and an exact nesting-width search.

A *module* is a node set whose external in-arcs all target one member (its
source). A *nesting family* is a laminar collection of modules containing
the whole node set and every singleton. The family's width is the largest
maximal-partition size of any member; the nesting width of a graph is the
minimum width over all such families. ``brute_force_nesting_width`` computes
that minimum exactly by exponential search and exists to certify the
linear-time decomposition at desk scale.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import Graph, GraphError

# Largest graph brute_force_nesting_width (and the CLI's ``width --exact``)
# accepts: the search enumerates all 2^n node subsets.
EXACT_WIDTH_LIMIT = 12


class InvalidFamilyError(GraphError, ValueError):
    """A nesting-family invariant does not hold; the message names the culprit."""


def is_module(g: Graph, nodes: Iterable[int]) -> int | None:
    """Return the module source of ``nodes``, or None if it is not a module.

    All arcs entering the set from outside must target a single member. A
    set containing the graph source is a module only with that source (think
    of a virtual external arc into it). Sets other than the whole node set
    must have at least one external in-arc to nominate a source.
    """
    members = frozenset(nodes)
    if not members:
        raise ValueError("is_module: empty node set")
    if g.source in members:
        for u, v, _ in g.arcs():
            if u not in members and v in members and v != g.source:
                return None
        return g.source
    heads = set()
    for u, v, _ in g.arcs():
        if u not in members and v in members:
            heads.add(v)
            if len(heads) > 1:
                return None
    if len(heads) == 1:
        return next(iter(heads))
    return None  # no external in-arc: no unique source to nominate


def module_closure_check(g: Graph, m: Iterable[int], h: Iterable[int]) -> bool:
    """Check that two overlapping modules have module union and intersection.

    Precondition: ``m`` and ``h`` are modules that intersect without either
    containing the other. Expected to return True on every valid input.
    """
    ms = frozenset(m)
    hs = frozenset(h)
    if not ms & hs or ms <= hs or hs <= ms:
        raise ValueError("module_closure_check: sets must overlap properly")
    if is_module(g, ms) is None or is_module(g, hs) is None:
        raise ValueError("module_closure_check: inputs must be modules")
    return is_module(g, ms | hs) is not None and is_module(g, ms & hs) is not None


def family_width(g: Graph, family: Iterable[Iterable[int]]) -> int:
    """Validate a nesting family and return its width.

    Raises :class:`InvalidFamilyError` naming the offending set or pair when
    a member is not a module, a trivial module is missing, or two members
    overlap. Width is the largest count of inclusion-maximal members
    strictly inside any non-singleton member (1 for a single-node graph).
    """
    sets = sorted({frozenset(s) for s in family}, key=lambda s: (-len(s), sorted(s)))
    n = g.node_count
    everything = frozenset(range(n))
    as_set = set(sets)
    if everything not in as_set:
        raise InvalidFamilyError("family is missing the whole node set")
    for v in range(n):
        if frozenset((v,)) not in as_set:
            raise InvalidFamilyError(f"family is missing singleton {{{v}}}")
    for s in sets:
        if not s <= everything:
            raise InvalidFamilyError(f"set {sorted(s)} has out-of-range nodes")
        if is_module(g, s) is None:
            raise InvalidFamilyError(f"set {sorted(s)} is not a module")
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if a & b and not (a <= b or b <= a):
                raise InvalidFamilyError(
                    f"sets {sorted(a)} and {sorted(b)} overlap"
                )

    # sets are in decreasing size order: the parent of each set is the
    # smallest strict superset seen so far, and children counts give the
    # maximal module partition sizes.
    child_count = [0] * len(sets)
    for i, s in enumerate(sets):
        parent = None
        for j in range(i - 1, -1, -1):
            if s < sets[j] and (parent is None or sets[j] < sets[parent]):
                parent = j
        if parent is not None:
            child_count[parent] += 1
    widths = [c for s, c in zip(sets, child_count) if len(s) >= 2]
    return max(widths, default=1)


def brute_force_nesting_width(g: Graph) -> int:
    """Exact nesting width by exhaustive search (test oracle).

    Enumerates every module as a bitmask, then minimises, over recursive
    exact partitions of each module into at least two proper modules, the
    largest partition size encountered. Singletons contribute nothing.
    The search is exponential, so a graph of more than
    :data:`EXACT_WIDTH_LIMIT` nodes raises ``ValueError``.
    """
    n = g.node_count
    if n > EXACT_WIDTH_LIMIT:
        raise ValueError(f"brute-force width guard: {n} nodes > {EXACT_WIDTH_LIMIT}")
    if n == 1:
        return 1

    modules = []
    for mask in range(1, 1 << n):
        if is_module(g, _bits(mask)) is not None:
            modules.append(mask)
    full = (1 << n) - 1

    def parts_by_lowbit(m: int, cap: int, f: dict[int, int]) -> dict[int, list[int]]:
        # proper submodules of m with settled width <= cap, keyed by low bit
        table: dict[int, list[int]] = {}
        for h in modules:
            if h & m == h and h != m and f[h] <= cap:
                table.setdefault(h & -h, []).append(h)
        return table

    f: dict[int, int] = {m: 0 for m in modules if m & (m - 1) == 0}

    def min_parts(mask: int, table: dict[int, list[int]], memo: dict[int, int]) -> int:
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        best = mask.bit_count()  # singleton cover always works
        for h in table.get(mask & -mask, ()):
            if h & mask == h:
                sub = min_parts(mask & ~h, table, memo)
                if 1 + sub < best:
                    best = 1 + sub
        memo[mask] = best
        return best

    for m in sorted(modules, key=int.bit_count):
        if m in f:
            continue
        size = m.bit_count()
        for cap in range(2, size + 1):
            table = parts_by_lowbit(m, cap, f)
            if min_parts(m, table, {}) <= cap:
                f[m] = cap
                break
        else:
            f[m] = size  # partition into singletons
    return max(f[full], 1)


def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out

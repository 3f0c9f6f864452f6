"""Module checks, nesting families, and an exact nesting-width search.

A *module* is a node set whose external in-arcs all target one member (its
source). A *nesting family* is a laminar collection of modules containing
the whole node set and every singleton. The family's width is the largest
maximal-partition size of any member; the nesting width of a graph is the
minimum width over all such families. ``family_width`` validates a family
and reads its width in one pass over the sets after the per-set module
checks. ``brute_force_nesting_width`` computes that minimum exactly by
exponential search and exists to certify the linear-time decomposition at
desk scale.
"""

from __future__ import annotations

from collections.abc import Iterable

from .dominators import _check_node
from .graph import Graph, GraphError, _check_arg

# Largest graph brute_force_nesting_width (and the CLI's ``width --exact``)
# accepts: the search enumerates all 2^n node subsets.
EXACT_WIDTH_LIMIT = 12


class InvalidFamilyError(GraphError):
    """A node set or nesting family breaks an invariant; the message names
    the offending set or pair."""


def is_module(g: Graph, nodes: Iterable[int]) -> int | None:
    """Return the module source of ``nodes``, or None if it is not a module.

    One scan of the arcs collects the members that an arc from outside the
    set enters, counting the graph source as entered when it is a member
    (think of a virtual external arc into it). The set is a module when
    exactly one member is entered, and that member is its source; the scan
    stops at a second one. So a set holding the source is a module only
    with that source, and any other set needs an external in-arc. An id
    that is not a node of ``g`` raises :class:`GraphError` naming it, and
    an empty set, or a ``nodes`` that is not iterable, raises
    :class:`InvalidFamilyError`.
    """
    _check_arg(g, Graph, "g")
    try:
        ids = iter(nodes)
    except TypeError:
        raise InvalidFamilyError(
            f"is_module: nodes must be an iterable of node ids, not {type(nodes).__name__}"
        ) from None
    ids = tuple(ids)
    for v in ids:
        _check_node(v, g.node_count)
    members = frozenset(ids)
    if not members:
        raise InvalidFamilyError("is_module: the node set [] is empty")
    # the members an arc from outside enters; a virtual one enters the source
    entered = {g.source} & members
    for u, v, _ in g.arcs():
        if v in members and u not in members:
            entered.add(v)
            if len(entered) > 1:
                return None
    return next(iter(entered), None)


def family_width(g: Graph, family: Iterable[Iterable[int]]) -> int:
    """Validate a nesting family and return its width.

    Raises :class:`InvalidFamilyError` naming the offending set or pair when
    a member is not a set of ``int`` node ids or not a module, a trivial
    module is missing, or two members overlap. Width is the largest count
    of inclusion-maximal members strictly inside any non-singleton member
    (1 for a single-node graph).

    After the per-set checks, one pass takes the sets largest first with an
    ``owner`` array, the index of the smallest set seen so far that holds
    each node. A set's parent is the owner of its members; a member with
    another owner names an overlapping pair. So the check is linear in the
    family's total size, where a pairwise check is quadratic in its count.
    """
    _check_arg(g, Graph, "g")
    try:
        members = iter(family)
    except TypeError:
        raise InvalidFamilyError(
            f"family must be an iterable of node sets, not {type(family).__name__}"
        ) from None
    distinct = set()
    for s in members:
        try:
            member = frozenset(s)
        except TypeError:
            member = None
        # int ids only, so the sort below compares like with like
        if member is None or not set(map(type, member)) <= {int}:
            raise InvalidFamilyError(f"family member {s!r} is not a set of node ids")
        distinct.add(member)
    sets = sorted(distinct, key=lambda s: (-len(s), sorted(s)))
    n = g.node_count
    everything = frozenset(range(n))
    if everything not in distinct:
        raise InvalidFamilyError("family is missing the whole node set")
    for v in range(n):
        if frozenset((v,)) not in distinct:
            raise InvalidFamilyError(f"family is missing singleton {{{v}}}")
    for s in sets:
        if not s <= everything:
            raise InvalidFamilyError(f"set {sorted(s)} has out-of-range nodes")
        if is_module(g, s) is None:
            raise InvalidFamilyError(f"set {sorted(s)} is not a module")
    # largest first, so sets[0] is the whole node set and owns every node
    owner = [0] * n
    child_count = [0] * len(sets)
    for i, s in enumerate(sets[1:], 1):
        owners = {owner[v] for v in s}
        if len(owners) > 1:  # an owner that does not hold s overlaps it
            a = sets[min(j for j in owners if not s <= sets[j])]
            raise InvalidFamilyError(f"sets {sorted(a)} and {sorted(s)} overlap")
        child_count[owners.pop()] += 1
        for v in s:
            owner[v] = i
    return max((c for s, c in zip(sets, child_count) if len(s) >= 2), default=1)


def brute_force_nesting_width(g: Graph) -> int:
    """Exact nesting width by exhaustive search (test oracle).

    Enumerates every module as a bitmask, then minimises, over recursive
    exact partitions of each module into at least two proper modules, the
    largest partition size encountered. Singletons contribute nothing.
    The search is exponential, so a graph of more than
    :data:`EXACT_WIDTH_LIMIT` nodes raises :class:`GraphError`.
    """
    _check_arg(g, Graph, "g")
    n = g.node_count
    if n > EXACT_WIDTH_LIMIT:
        raise GraphError(
            f"brute_force_nesting_width: g has {n} nodes, more than"
            f" EXACT_WIDTH_LIMIT = {EXACT_WIDTH_LIMIT}"
        )
    if n == 1:
        return 1

    modules = [
        mask for mask in range(1, 1 << n)
        if is_module(g, [v for v in range(n) if mask >> v & 1]) is not None
    ]
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


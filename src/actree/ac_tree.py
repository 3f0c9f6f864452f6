"""Dominance graphs and the acyclic-connected (A-C) tree.

For each node ``a`` of the dominator tree, the dominance graph links two
children ``u, v`` of ``a`` whenever some arc leaves the subtree of ``u``
and enters ``v``. The A-C tree maps every node to the strongly connected
components of its dominance graph in topological order; its width equals
the nesting width of the graph, which makes it the decomposition that
drives the recursive shortest-path search.

One order serves every graph: the reverse postorder (RPO) of the
dominators' DFS. The dominator pass itself returns a preorder of the
dominator tree that takes each owner's children in that order, placing
each node by subtree sizes. It keeps every owner's RPO, so one preorder is
a valid first pass of Kosaraju-Sharir's strong-components algorithm
(Sharir 1981) for every dominance graph at once. Every node of a child
``c``'s dominator subtree is a DFS descendant of ``c``, and a path that
leaves owner ``a``'s subtree comes back only through ``a``, which is on
the DFS stack while any child of ``a`` is. So, by the white-path theorem,
when one component of ``a``'s dominance graph has an arc into another, the
first member of the first in RPO precedes every member of the second. Each
owner's components follow the RPO of their first members, which is a
topological order.

The build reads that preorder as the pass returns it, and so does every
later stage, the search plan included: the order in which a search drains
the components, read off the preorder with each component named once. When
the DFS meets no back arc (self-loops and arcs into the source aside),
every sibling arc points forward in RPO, so every component is one node,
and the preorder, less the source, is the source's plan segment. Any other
graph takes Kosaraju's second pass over the preorder. One loop collects
the arcs of every dominance graph at once as transposed sibling arcs, with
no per-node graph objects; a second lets each node not yet reached open a
component of every unreached node it reaches over them and appends it
straight to its plan segment. A tree with a component of two or more nodes
also gets each node's arc range as a ``range`` object. The plan is the
tree: it names every component once, in its owner's order, and the owner
is the immediate dominator of its first member. So the resulting
:class:`AcTree` keeps no second copy of the components, and the component
sequences and the nesting family are read off it alone.

No stage reads a weight, so a tree is its topology: ``AcTree(source,
offsets, heads)`` takes those three fields only and derives every other
one by the same build as :func:`build_ac_tree`, and no tree can hold a
field that its topology does not imply.
"""

from __future__ import annotations

from collections import Counter

from .dominators import DominatorTree, _check_node, _immediate_dominators
from .graph import Graph, GraphError, TreeMismatchError, _check_arg, _gc_paused, _Record


class AcTree(_Record):
    """The A-C tree of a topology in flat form, with the immediate
    dominators it refines.

    ``AcTree(source, offsets, heads)`` builds the tree of the pruned graph
    with that source and those arc columns, whatever its weights. The three
    are the tree's only fields, held by reference, not copied. They go
    through the checks of :class:`Graph` first, so a malformed topology
    raises :class:`GraphError` and a node the source does not reach raises
    :class:`~actree.UnreachableNodeError`. :func:`build_ac_tree` builds the same
    tree from a :class:`Graph`, whose topology is checked already. Every
    other slot is derived by that one build and is read-only, so no tree
    holds a plan, a histogram or rows that its topology does not imply.
    Trees are equal, and hash alike, when their fields are; ``pickle``
    keeps the three fields only, so unpickling a tree rebuilds it, at about
    the cost of one build, and ``copy.copy`` and ``copy.deepcopy`` return
    the tree itself. Like every build, it runs with the cyclic garbage
    collector paused, and leaves the caller's setting as it found it.

    ``idom[v]`` is the immediate dominator of ``v`` (the source maps to
    itself). ``plan`` is the tree itself, laid out as the weight-free order
    in which :func:`~actree.recursive_dijkstra` drains the components: one
    tuple with an entry per node. ``plan[a]`` is owner ``a``'s segment, a
    tuple of its own, when ``a`` is the source or a member of a component
    of two or more nodes and has components; every other entry is
    ``None``. A segment lists ``a``'s components in order, a singleton as
    its node followed inline by that node's own components, and a larger
    component as the tuple of its members in ascending id; on an acyclic
    graph the source's segment is the dominator tree's preorder. Each
    owner's components come in a topological order fixed by the graph,
    arc order included: the reverse postorder of their first members in
    the dominators' DFS, which scans arcs in stored order. So every plan
    entry names one component, and its owner is ``idom`` of its first
    member; :attr:`components` reads them back that way.
    ``comp_sizes`` is the size histogram: a tuple of ``(size, count)``
    pairs in ascending size, singletons included, kept because every
    search reads ``width`` and copies the sizes into its
    :class:`~actree.SearchStats`. The property ``width`` is one more than
    the largest component (1 for a single-node graph). ``rows`` lays out
    each node's arcs for the search that drains component queues: on a
    tree of width 3 or more ``rows[u]`` is
    ``range(offsets[u], offsets[u + 1])``; on a tree of width 2 or less,
    which every search walks with no queue, it is ``None``.
    The tree does not depend on weights, so it serves any graph with equal
    ``offsets``, ``heads`` and source, and :func:`~actree.recursive_dijkstra`
    rejects any other. ``source`` is an int and every other slot a tuple or
    ``None``, so none can be changed in place. The repr shows ``width`` and
    ``comp_sizes`` only, so printing a tree costs the same at any size.
    """

    __slots__ = ("source", "offsets", "heads", "idom", "comp_sizes", "plan", "rows")
    _fields = ("source", "offsets", "heads")
    _shown = ("width", "comp_sizes")

    def __init__(self, source: int, offsets: tuple[int, ...], heads: tuple[int, ...]) -> None:
        zeros = (0.0,) * len(heads) if type(heads) is tuple else ()
        _lay_out(self, Graph(source, offsets, heads, zeros))

    @property
    def width(self) -> int:
        """The nesting width: one more than the largest component."""
        sizes = self.comp_sizes
        return sizes[-1][0] + 1 if sizes else 1

    @property
    @_gc_paused
    def components(self) -> dict[int, tuple[frozenset[int], ...]]:
        """Each node with dominator children mapped to its component
        sequence, read off the plan in O(n): each entry, in order, filed
        under ``idom`` of its first member, with the cyclic garbage
        collector paused."""
        idom = self.idom
        owned: list[list[frozenset[int]]] = [[] for _ in idom]
        for segment in self.plan:
            for x in segment or ():
                members = (x,) if type(x) is int else x
                owned[idom[members[0]]].append(frozenset(members))
        return {a: tuple(comps) for a, comps in enumerate(owned) if comps}


def _sibling_arcs(g: Graph, idom: tuple[int, ...], order: list[int]) -> list[list[int]]:
    """Arcs of every dominance graph, transposed, as tail lists in scan order.

    ``order`` is the dominator tree's preorder, children in any order. One
    loop over it keeps, for each node, its child whose subtree the loop is
    inside (``current``), then scans the stored arcs of the visited node
    ``v``. For an arc ``(v, w)``, ``idom(w)`` is ``v`` itself or a proper
    ancestor of ``v``, whose ``current`` entry is already the child on the
    path to ``v``. So the arc becomes the sibling arc ``(current[idom(w)],
    w)`` in O(1), filed under its head: stored as ``current[idom(w)]`` in
    ``pred[w]``; both ends are children of ``idom(w)``. Arcs onto the global
    source and arcs that coincide with dominator-tree arcs contribute
    nothing and are skipped, as are arcs from ``w``'s own subtree back to
    ``w``. A tail may repeat.
    """
    n = g.node_count
    off, heads = g.offsets, g.heads
    s = g.source
    current = [-1] * n
    pred: list[list[int]] = [[] for _ in range(n)]
    for v in order:
        current[idom[v]] = v
        for w in heads[off[v] : off[v + 1]]:
            if w == s or idom[w] == v:
                continue
            c = current[idom[w]]
            if c != w:
                pred[w].append(c)
    return pred


def naive_dominance_graph(
    g: Graph, t: DominatorTree, a: int
) -> frozenset[tuple[int, int]]:
    """Definition-level dominance graph of ``a`` (test oracle, O(n + e)).

    Returns the arcs ``(u, v)`` between distinct dominator children of ``a``
    such that some arc leaves the subtree of ``u`` and enters the subtree of
    ``v``. The nodes of the graph are ``t.children[a]``. Raises
    :class:`GraphError` when ``t`` covers another number of nodes than ``g``.
    """
    _check_arg(g, Graph, "g")
    _check_arg(t, DominatorTree, "t")
    n = g.node_count
    if len(t.idom) != n:
        raise GraphError(
            f"dominator tree of {len(t.idom)} nodes given for a {n}-node graph"
        )
    _check_node(a, n)
    subtree_of: dict[int, int] = {}
    for c in t.children[a]:
        for v in t.descendants(c):
            subtree_of[v] = c
    arcs = set()
    for u, v, _ in g.arcs():
        cu = subtree_of.get(u)
        cv = subtree_of.get(v)
        if cu is not None and cv is not None and cu != cv:
            arcs.add((cu, cv))
    return frozenset(arcs)


def build_ac_tree(g: Graph) -> AcTree:
    """The A-C tree of a pruned graph: ``AcTree(g.source, g.offsets,
    g.heads)``, built without checking the topology again, since a
    :class:`Graph` has checked it.

    Dominators first: the dominator pass returns one preorder of the
    dominator tree, each owner's children in the reverse postorder of its
    DFS, every node placed by its owner's next free slot and its subtree's
    size. When the DFS meets no back arc but self-loops and arcs into the
    source, every sibling arc points forward in that order, so every
    component is one node and the preorder is the search plan. Any other
    graph goes through Kosaraju's second pass over the same preorder, which
    writes the plan as it opens the components, and a tree of width 3 or
    more gets each node's arc range. Every stage is linear or near-linear
    in ``n + e`` on every input; the dominator pass is O(e log n), since
    its semi-NCA climb up the dominator tree takes skew-binary jump
    pointers (Myers, IPL 1983), O(log n) steps per node. So the path-star
    DAG (a path ``0 -> ... -> k`` plus arcs ``k -> w`` and ``0 -> w`` for
    ``k`` extra nodes ``w``), on which each ``w`` climbs the whole path,
    costs about what any DAG of its size does. The decomposition does not
    depend on arc weights. The build runs with the cyclic garbage collector
    paused: it allocates a small container per node and makes no reference
    cycle, so the collector would only rescan them. The caller's setting is
    restored on return or error.
    """
    _check_arg(g, Graph, "g")
    return _lay_out(AcTree.__new__(AcTree), g)


@_gc_paused
def _lay_out(tree: AcTree, g: Graph) -> AcTree:
    """Fill every slot of ``tree`` from the topology of the pruned graph
    ``g``: the one build, as :func:`build_ac_tree` describes it, behind it
    and ``AcTree(...)``, with the cyclic garbage collector paused. The
    dominator pass's preorder is read as it comes."""
    n = g.node_count
    s = g.source
    idom, order, back = _immediate_dominators(g)
    if back:
        sizes, plan, rows = _kosaraju_layout(g, idom, order)
    else:
        # one component per non-source node: the preorder is the plan
        sizes = ((1, n - 1),) if n > 1 else ()
        plan = [None] * n
        plan[s] = tuple(order[1:]) or None
        plan = tuple(plan)
        rows = None
    values = (s, g.offsets, g.heads, idom, sizes, plan, rows)
    for name, value in zip(AcTree.__slots__, values):
        object.__setattr__(tree, name, value)
    return tree


def _kosaraju_layout(g: Graph, idom: tuple[int, ...], order: list[int]) -> tuple:
    """The size histogram, search plan and rows of any pruned graph's
    A-C tree, by Kosaraju's second pass over one preorder.

    ``order`` is the dominator tree's preorder, each owner's children in
    the reverse postorder of the dominators' DFS, so it keeps every owner's
    first pass of Kosaraju-Sharir. The sibling-arc pass collects the
    transposed arcs; then one loop over ``order`` lets each node ``v`` not
    yet reached open a component of every unreached node it reaches over
    them. No sibling arc crosses owners, so that is ``v``'s strong
    component, and each owner's components come out in topological order.
    The loop appends each component it opens, named as the plan names it
    (the node, or the tuple of its members in ascending id), to the segment
    of ``home[idom[v]]``: ``home[v]`` is ``v`` for the source and each
    member of a component of two or more nodes, which own segments, and
    ``home[idom[v]]`` for a singleton ``v``, whose subtree the preorder
    meets right after it, so its components fall inline; it is -1 for a
    node not yet reached. A segment list is made when its first entry
    comes. A tree of width 3 or more also lays out every node's arc range,
    its ``rows``.
    """
    n = g.node_count
    pred = _sibling_arcs(g, idom, order)
    home = [-1] * n  # -1 until the loop reaches the node
    home[g.source] = g.source
    segments: list[list[int | tuple[int, ...]] | None] = [None] * n
    large: Counter = Counter()  # the sizes of components of two or more nodes
    for v in order:
        if home[v] >= 0:  # the source, or a member of a component met already
            continue
        home[v] = v
        comp = [v]
        for u in comp:  # the list grows as the search reaches new members
            for x in pred[u]:
                if home[x] < 0:
                    home[x] = x
                    comp.append(x)
        a = home[idom[v]]
        if len(comp) > 1:
            comp.sort()
            entry = tuple(comp)
            large[len(comp)] += 1
        else:
            home[v] = a
            entry = v
        segment = segments[a]
        if segment is None:
            segments[a] = [entry]
        else:
            segment.append(entry)
    del pred, home  # freed before the plan allocates: a lower peak
    plan = tuple([None if x is None else tuple(x) for x in segments])
    del segments
    singles = n - 1 - sum(k * c for k, c in large.items())
    sizes = (((1, singles),) if singles else ()) + tuple(sorted(large.items()))
    offsets = g.offsets
    rows = tuple(map(range, offsets, offsets[1:])) if large else None
    return sizes, plan, rows


def ac_to_nesting_family(tree: AcTree) -> tuple[frozenset[int], ...]:
    """Expand an A-C tree into the nesting family it certifies.

    For every node ``a`` the family holds each prefix of its component
    sequence, closed under dominator descendants and rooted at ``a``, plus
    the trivial modules. Owner ``a``'s components, read off the plan by
    :attr:`AcTree.components`, partition its dominator children, so a
    prefix is ``a`` plus each member's dominator subtree, a slice of the
    preorder of ``DominatorTree(tree.idom)``. The result, sorted by
    size and then by members, is laminar, and its width
    (:func:`~actree.family_width`) equals ``tree.width``.

    This is a test-scale certificate: every prefix is its own frozenset, so
    on a wide dominator tree the family holds a number of elements
    quadratic in n (about 8M at n = 4096 on a random DAG).
    """
    _check_arg(tree, AcTree, "tree", TreeMismatchError)
    n = len(tree.idom)
    dominators = DominatorTree(tree.idom)
    sets = {frozenset(range(n))}
    sets.update(frozenset((v,)) for v in range(n))
    for a, comps in tree.components.items():
        prefix = [a]
        for comp in comps:
            for v in comp:  # its dominator subtree, a slice of the preorder
                prefix += dominators.descendants(v)
            sets.add(frozenset(prefix))
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))

"""Dominance graphs and the acyclic-connected (A-C) tree.

For each node ``a`` of the dominator tree, the dominance graph links two
children ``u, v`` of ``a`` whenever some arc leaves the subtree of ``u``
and enters ``v``. The A-C tree maps every node to the strongly connected
components of its dominance graph in topological order; its width equals
the nesting width of the graph, which makes it the decomposition that
drives the recursive shortest-path search.

One order serves every graph: the reverse postorder (RPO) of the dominators'
DFS, in which the dominator pass itself groups each owner's children. It is
a valid first pass of Kosaraju-Sharir's strong-components algorithm (Sharir
1981) for every dominance graph at once. Every node of a child ``c``'s
dominator subtree is a DFS descendant of ``c``, and a path that leaves owner
``a``'s subtree comes back only through ``a``, which is on the DFS stack
while any child of ``a`` is. So, by the white-path theorem, when one
component of ``a``'s dominance graph has an arc into another, the first
member of the first in RPO precedes every member of the second. Each owner's
components are numbered in the RPO of their first members, which is a
topological order.

When the DFS meets no back arc (self-loops and arcs into the source aside),
every sibling arc points forward in RPO, so every component is one node and
the grouping is the tree. Any other graph takes Kosaraju's second pass. One
loop over the dominator tree's preorder collects the arcs of every
dominance graph at once as transposed sibling arcs, with no per-node graph
objects; then each grouped child not yet numbered opens a component of
every unnumbered node it reaches over them. Last, one walk lays out the
search plan, the order in which a search drains the components, and a tree
with a component of two or more nodes gets each node's arc range as a
``range`` object; neither depends on weights, so both are built once, with
the tree. The
resulting :class:`AcTree` is the whole decomposition: the nesting family is
expanded from it alone.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate
from operator import sub

from .dominators import DominatorTree, _check_node, _immediate_dominators
from .graph import Graph, GraphError, TreeMismatchError, _check_arg, _Record


class AcTree(_Record):
    """The A-C tree in flat form, with the immediate dominators it refines.

    Components are numbered densely, owner by owner in ascending node id,
    and each owner's sequence in a topological order fixed by the graph,
    arc order included: each owner's components follow the reverse
    postorder of their first members in the dominators' DFS, which scans
    arcs in stored order, so on an acyclic graph, where every component is
    one node, each owner's children follow that reverse postorder.
    ``idom[v]`` is the immediate dominator of ``v`` (the source maps to
    itself). The components are stored as compressed rows: the members of
    component ``c`` are ``comp_nodes[comp_start[c] : comp_start[c + 1]]``,
    in ascending id, so ``comp_nodes`` lists every node but the source
    once, component by component. The components of owner ``a`` are
    numbered ``comp_offsets[a]`` up to ``comp_offsets[a + 1] - 1``;
    ``comp_sizes`` maps each component size to the number of components of
    that size, in ascending size. The property ``width`` is one more than
    the largest component (1 for a single-node graph). ``comp_sizes`` is
    fixed by ``comp_start``, and kept because every search reads ``width``
    and copies the sizes into its :class:`~actree.SearchStats`. ``plan`` is
    the weight-free order in which :func:`~actree.recursive_dijkstra`
    drains the components, a function of the components laid out once with
    them: one tuple with an entry per node. ``plan[a]`` is owner ``a``'s
    segment, a tuple of its own, when ``a`` is the source or a member of a
    component of two or more nodes and has components; every other entry
    is ``None``. A segment lists ``a``'s components in order, a singleton
    as its node followed inline by that node's own components, and a
    larger component as the tuple of its members; on an acyclic graph the
    source's segment is the dominator tree's preorder. Its nodes are the
    int objects of ``comp_nodes``. ``rows`` lays out each node's arcs for
    the search that drains component queues: on a tree of width 3 or more
    ``rows[u]`` is ``range(offsets[u], offsets[u + 1])``, built once with
    the tree; on a tree of width 2 or less, which every search walks with
    no queue, it is ``None``.
    ``offsets`` and ``heads`` are the topology the tree was built from: the
    graph's own tuples, held by reference, not copied. The tree does not
    depend on weights, so it serves any graph with equal ``offsets``,
    ``heads`` and source, and :func:`~actree.recursive_dijkstra` rejects any
    other. The plan, its segments and ``rows`` are tuples, so none of them
    can be changed in place. ``AcTree(...)`` checks whole columns, in C,
    and raises :class:`GraphError` naming the first field that fails:
    ``idom`` unless it is a tuple; ``plan`` unless it is a tuple of
    ``len(idom)`` entries, each a tuple or ``None``; ``comp_sizes`` unless
    it is a dict keyed by ints; ``rows`` unless it is ``None`` at width 2
    or less and a tuple of ``len(idom)`` ranges otherwise. It checks
    nothing else, so the int arrays and what ``plan`` and ``rows`` hold are
    right by contract only, and a hand-built tree's fields are whatever the
    caller passed; a search that such a plan or row sends outside the
    graph raises :class:`~actree.TreeMismatchError`. The repr shows
    ``width`` and ``comp_sizes`` only, so printing a tree costs the same at
    any size.
    """

    __slots__ = (
        "idom", "comp_start", "comp_nodes", "comp_offsets", "comp_sizes",
        "plan", "rows", "offsets", "heads",
    )
    _shown = ("width", "comp_sizes")

    def __init__(self, *fields) -> None:
        super().__init__(*fields)
        idom, plan, sizes, rows = self.idom, self.plan, self.comp_sizes, self.rows
        if type(idom) is not tuple:
            raise GraphError(f"idom must be a tuple, not {type(idom).__name__}")
        n = len(idom)
        if not (
            type(plan) is tuple
            and len(plan) == n
            and set(map(type, plan)) <= {tuple, type(None)}
        ):
            raise GraphError(f"plan is not a tuple of {n} segments, each a tuple or None")
        if not (type(sizes) is dict and set(map(type, sizes)) <= {int}):
            raise GraphError("comp_sizes is not a dict keyed by component size")
        width = self.width
        if width <= 2:
            if rows is not None:
                raise GraphError(f"rows must be None on a tree of width {width}")
        elif not (type(rows) is tuple and len(rows) == n and set(map(type, rows)) <= {range}):
            raise GraphError(f"rows is not a tuple of {n} ranges, as width {width} needs")

    @property
    def width(self) -> int:
        """The nesting width: one more than the largest component."""
        return max(self.comp_sizes, default=0) + 1

    @property
    def components(self) -> dict[int, tuple[frozenset[int], ...]]:
        """Each node with dominator children mapped to its component sequence."""
        off = self.comp_offsets
        start = self.comp_start
        nodes = self.comp_nodes
        return {
            a: tuple(
                frozenset(nodes[start[c] : start[c + 1]])
                for c in range(off[a], off[a + 1])
            )
            for a in range(len(off) - 1)
            if off[a] < off[a + 1]
        }


def _sibling_arcs(
    g: Graph, idom: tuple[int, ...], start: array, kids: list[int]
) -> list[list[int]]:
    """Arcs of every dominance graph, transposed, as tail lists in scan order.

    ``start`` and ``kids`` group every node's dominator children, in any
    order, as :func:`~actree.dominators._immediate_dominators` returns them.
    One walk of the dominator tree in preorder keeps, for each node, its
    child whose subtree the walk is inside (``current``), then scans the
    stored arcs of the visited node ``v``. For an arc ``(v, w)``,
    ``idom(w)`` is ``v`` itself or a proper ancestor of ``v``, whose
    ``current`` entry is already the child on the path to ``v``. So the arc
    becomes the sibling arc ``(current[idom(w)], w)`` in O(1), filed under
    its head: stored as ``current[idom(w)]`` in ``pred[w]``; both ends are
    children of ``idom(w)``. Arcs onto the global source and arcs that
    coincide with dominator-tree arcs contribute nothing and are skipped, as
    are arcs from ``w``'s own subtree back to ``w``. A tail may repeat.
    """
    n = g.node_count
    off, heads = g.offsets, g.heads
    s = g.source
    current = [-1] * n
    pred: list[list[int]] = [[] for _ in range(n)]
    stack = [s]
    while stack:
        v = stack.pop()
        current[idom[v]] = v
        stack += kids[start[v] : start[v + 1]]
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
    """Construct the A-C tree of a pruned graph.

    Dominators first: the dominator pass returns every owner's children
    grouped in the reverse postorder of its DFS. When the DFS meets no back
    arc but self-loops and arcs into the source, every sibling arc points
    forward in that order, so every component is one node and the grouping
    lays the tree out. Any other graph goes through Kosaraju's second pass
    over the same grouping. Either way one walk then lays out the search
    plan, and a tree of width 3 or more gets each node's arc range. Every
    stage is linear or near-linear in ``n + e`` on every input;
    the dominator pass is O(e log n), since its semi-NCA climb switches to
    Lengauer and Tarjan's relative-dominator step once it has spent a step
    budget linear in ``n + e``. So the path-star DAG (a path
    ``0 -> ... -> k`` plus arcs ``k -> w`` and ``0 -> w`` for ``k`` extra
    nodes ``w``), on which each ``w`` would climb the whole path, costs
    about what any DAG of its size does. The decomposition does not depend
    on arc weights.
    """
    _check_arg(g, Graph, "g")
    n = g.node_count
    idom, start, kids, back = _immediate_dominators(g)
    if back:
        return _kosaraju_tree(g, idom, start, kids)
    # one component per non-source node: each owner's children, in reverse
    # postorder
    nodes = tuple(kids)
    del kids
    return AcTree(
        idom,
        array("i", range(n)),
        nodes,
        start,
        {1: n - 1} if n > 1 else {},
        _search_plan((g.source,), start.tolist(), nodes),
        None,
        g.offsets,
        g.heads,
    )


def _kosaraju_tree(
    g: Graph, idom: tuple[int, ...], start: array, kids: list[int]
) -> AcTree:
    """The A-C tree of any pruned graph, by Kosaraju's second pass.

    ``start`` and ``kids`` group each owner's children in the reverse
    postorder of the dominators' DFS. The sibling-arc pass collects the
    transposed arcs; then, owner by owner, each child not yet numbered
    opens a component of every unnumbered node it reaches over them. No
    sibling arc crosses owners, so that is the child's strong component,
    and the components come out in topological order, numbered as they
    come, each sorted ascending. The pass also records each component's
    plan entry and the members of components of two or more nodes, which
    own plan segments. A tree of width 3 or more also lays out every
    node's arc range, its ``rows``.
    """
    n = g.node_count
    pred = _sibling_arcs(g, idom, start, kids)
    comp_id = [-1] * n
    members: list[int] = []
    comp_start = array("i", [0])
    count = [0] * (n + 1)
    entry: list[int | tuple[int, ...]] = []  # each component's plan entry
    owners = [g.source]
    for root in kids:
        if comp_id[root] >= 0:
            continue
        c = len(comp_start) - 1
        comp_id[root] = c
        comp = [root]
        for v in comp:  # the list grows as the search reaches new members
            for u in pred[v]:
                if comp_id[u] < 0:
                    comp_id[u] = c
                    comp.append(u)
        comp.sort()
        members += comp
        comp_start.append(len(members))
        count[idom[root] + 1] += 1
        if len(comp) > 1:
            entry.append(tuple(comp))
            owners += comp
        else:
            entry.append(root)
    del pred, comp_id  # freed before the numbering allocates: a lower peak
    sizes = dict(sorted(Counter(map(sub, comp_start[1:], comp_start)).items()))
    off = list(accumulate(count))
    plan = _search_plan(owners, off, entry)
    del entry, owners
    offsets = g.offsets
    rows = tuple(map(range, offsets, offsets[1:])) if max(sizes, default=0) > 1 else None
    return AcTree(
        idom, comp_start, tuple(members), array("i", off), sizes, plan, rows, offsets, g.heads
    )


def _search_plan(
    owners: list[int] | tuple[int, ...],
    off: list[int],
    entry: list[int | tuple[int, ...]] | tuple[int, ...],
) -> tuple[tuple[int | tuple[int, ...], ...] | None, ...]:
    """The weight-free order in which a search drains the components.

    ``off`` is ``comp_offsets`` as a list, and ``entry[c]`` names component
    ``c`` in the plan: its one member if it is a singleton, else the tuple
    of its members, so a search opens a component with no lookup.
    ``owners`` lists the source and every member of a component of two or
    more nodes. Returns one entry per node: owner ``a``'s segment, a tuple
    of ``a``'s components in order, each singleton followed by its own
    node's components, inline and recursively; ``None`` for a node that is
    no owner or has no components. On an acyclic graph the source's segment
    is the dominator tree's preorder, children in reverse postorder.
    """
    plan: list[tuple[int | tuple[int, ...], ...] | None] = [None] * (len(off) - 1)
    for a in owners:
        c = off[a]
        end = off[a + 1]
        if c == end:
            continue
        segment = []
        stack = []  # the ranges of components a descent interrupted
        while True:
            while c < end:
                x = entry[c]
                c += 1
                segment.append(x)
                if type(x) is int and off[x] < off[x + 1]:  # x's components come next
                    stack.append((c, end))
                    c = off[x]
                    end = off[x + 1]
            if not stack:
                break
            c, end = stack.pop()
        plan[a] = tuple(segment)
    return tuple(plan)


def ac_to_nesting_family(tree: AcTree) -> tuple[frozenset[int], ...]:
    """Expand an A-C tree into the nesting family it certifies.

    For every node ``a`` the family holds each prefix of its component
    sequence, closed under dominator descendants and rooted at ``a``, plus
    the trivial modules. Owner ``a``'s components partition its dominator
    children, so a subtree is walked through the components alone. The
    result, sorted by size and then by members, is laminar, and its width
    (:func:`~actree.family_width`) equals ``tree.width``.

    This is a test-scale certificate: every prefix is its own frozenset, so
    on a wide dominator tree the family holds a number of elements
    quadratic in n (about 8M at n = 4096 on a random DAG).
    """
    _check_arg(tree, AcTree, "tree", TreeMismatchError)
    off = tree.comp_offsets
    start = tree.comp_start
    nodes = tree.comp_nodes
    n = len(tree.idom)
    sets = {frozenset(range(n))}
    sets.update(frozenset((v,)) for v in range(n))
    for a in range(n):
        prefix = [a]
        for c in range(off[a], off[a + 1]):
            i = len(prefix)
            prefix.extend(nodes[start[c] : start[c + 1]])
            while i < len(prefix):  # append the subtrees of the new members
                v = prefix[i]
                i += 1
                # v's components are numbered contiguously: one slice
                prefix.extend(nodes[start[off[v]] : start[off[v + 1]]])
            sets.add(frozenset(prefix))
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))

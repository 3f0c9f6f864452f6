"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines
(including the wall-clock scaling table, which is reported rather than
asserted). Expect a few minutes end to end; the scaling criterion builds
graphs up to 2^18 nodes.
"""

from __future__ import annotations

import time

from actree import (
    DominatorTree,
    Graph,
    InvalidFamilyError,
    ac_to_nesting_family,
    brute_force_dominated_set,
    brute_force_nesting_width,
    build_ac_tree,
    compute_dominator_tree,
    dijkstra,
    family_width,
    gen_nested,
    is_module,
    naive_dominance_graph,
    recursive_dijkstra,
    verify_spt,
)
from actree import sssp
from actree.ac_tree import _sibling_arcs
from random_graphs import (
    gen_complete,
    gen_layered,
    gen_random_dag,
    gen_random_digraph,
    ladder,
    nested_loops,
    path_back_arcs,
    path_fan,
    path_star,
    rows_read,
    star_back_arcs,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _hand_fixtures() -> list[Graph]:
    diamond = Graph.from_arcs(4, 0, [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)])
    cycle = Graph.from_arcs(3, 0, [(0, 1), (1, 2), (2, 0)])
    path = Graph.from_arcs(5, 0, [(0, 1), (1, 2), (2, 3), (3, 4)])
    single = Graph.from_arcs(1, 0, [])
    return [
        diamond,
        cycle,
        path,
        single,
        gen_complete(2),
        gen_complete(3),
        gen_complete(5),
        gen_layered(1, 1),
        gen_layered(2, 2),
        gen_layered(3, 3),
        gen_nested((3, 2, 3), 4),
        gen_nested((2, 1, 2), 5),
        gen_nested((3, 1, (3, 2, 3)), 6),
    ]


def _random_small(n: int, index: int, seed: int) -> Graph:
    e = (n - 1) + index % (2 * n + 2)
    return gen_random_digraph(n, e, seed)


def test_criterion_1_width_optimality():
    """build_ac_tree width equals the exhaustive nesting width."""
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for i in range(500):
            g = _random_small(n, i, seed=10_000 * n + i)
            if build_ac_tree(g).width != brute_force_nesting_width(g):
                _report("1 optimality", False, f"n={n} seed={10_000 * n + i}")
            checked += 1
    for g in _hand_fixtures():
        if build_ac_tree(g).width != brute_force_nesting_width(g):
            _report("1 optimality", False, "hand fixture")
        checked += 1
    elapsed = time.perf_counter() - t0
    _report("1 optimality", True, f"{checked} graphs, {elapsed:.1f}s")


def test_criterion_2_family_validity():
    """Every emitted nesting family validates and matches the tree width."""
    for i in range(1000):
        n = 2 + i % 49
        g = gen_random_digraph(n, (n - 1) + i % (2 * n), seed=20_000 + i)
        tree = build_ac_tree(g)
        fam = ac_to_nesting_family(tree)
        if family_width(g, fam) != tree.width:  # also validates the family
            _report("2 family validity", False, f"seed={20_000 + i}")
    _report("2 family validity", True, "1000 graphs")


def test_criterion_3_dominator_correctness():
    """Interval dominance equals the removal oracle on all pairs."""
    for i in range(200):
        n = 2 + i % 49
        g = gen_random_digraph(n, (n - 1) + i % (3 * n), seed=30_000 + i)
        t = compute_dominator_tree(g)
        for a in range(n):
            dominated = brute_force_dominated_set(g, a)
            for b in range(n):
                if t.dominates(a, b) != (b in dominated):
                    _report("3 dominators", False, f"seed={30_000 + i} a={a} b={b}")
    _report("3 dominators", True, "200 graphs, all pairs")


def _mutual_reach_classes(nodes, arcs) -> set[frozenset[int]]:
    """Classes of nodes that reach each other, by one search per node."""
    succ = {v: [] for v in nodes}
    for u, v in arcs:
        succ[u].append(v)
    reach = {}
    for start in nodes:
        seen = {start}
        stack = [start]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[start] = seen
    return {frozenset(u for u in reach[v] if v in reach[u]) for v in nodes}


def test_criterion_4_dominance_graphs():
    """Linear-time dominance arcs and components equal the per-definition oracle.

    The sibling arcs, turned back round and grouped by owner, are the
    oracle's dominance graphs; each owner's components are the
    mutual-reachability classes of its oracle graph, in an order every
    oracle arc respects.
    """
    for i in range(200):
        n = 2 + i % 29
        g = gen_random_digraph(n, (n - 1) + i % (3 * n), seed=40_000 + i)
        tree = build_ac_tree(g)
        t = DominatorTree(tree.idom)
        pred = _sibling_arcs(g, t.idom, list(t.order))
        fast = {a: set() for a in range(n)}
        for w, tails in enumerate(pred):
            for c in tails:
                fast[t.idom[w]].add((c, w))
        components = tree.components
        for a in range(n):
            naive = naive_dominance_graph(g, t, a)
            comps = components.get(a, ())
            rank = {v: k for k, comp in enumerate(comps) for v in comp}
            if (
                fast[a] != naive
                or set(comps) != _mutual_reach_classes(t.children[a], naive)
                or any(rank[u] > rank[v] for u, v in naive)
            ):
                _report("4 dominance graphs", False, f"seed={40_000 + i} node={a}")
    _report("4 dominance graphs", True, "200 graphs, every node")


def _sssp_family_graphs() -> list[Graph]:
    graphs = [gen_layered(n, n) for n in (1, 2, 5, 20, 50)]
    graphs += [
        gen_nested((3, 2, 3), 1),
        gen_nested((4, 3, (3, 2, 3)), 2),
        gen_nested((5, 4, (4, 1, 3)), 3),
    ]
    graphs += [gen_complete(n, seed=n) for n in (2, 3, 4, 8, 16)]
    graphs += [gen_random_dag(n, 3 * n, seed=n) for n in (2, 10, 64, 300)]
    return graphs


def test_criterion_5_sssp_equivalence():
    """recursive_dijkstra.dist is bit-equal to dijkstra.dist everywhere."""
    runs = 0
    for i in range(1000):
        n = 2 + i % 199
        g = gen_random_digraph(n, n + i % (3 * n), seed=50_000 + i)
        tree = build_ac_tree(g)
        oracle = dijkstra(g)
        fast = recursive_dijkstra(g, tree)
        ok = (
            oracle.dist == fast.dist
            and bool(verify_spt(g, oracle))
            and bool(verify_spt(g, fast))
            and fast.stats.max_queue_len <= tree.width - 1
        )
        if not ok:
            _report("5 sssp equivalence", False, f"seed={50_000 + i}")
        runs += 1
    for g in _sssp_family_graphs():
        tree = build_ac_tree(g)
        oracle = dijkstra(g)
        fast = recursive_dijkstra(g, tree)
        ok = (
            oracle.dist == fast.dist
            and bool(verify_spt(g, oracle))
            and bool(verify_spt(g, fast))
        )
        if not ok:
            _report("5 sssp equivalence", False, "family fixture")
        runs += 1
    _report("5 sssp equivalence", True, f"{runs} graphs, exact dist equality")


def test_criterion_6_queue_bound(monkeypatch):
    """max_queue_len <= width - 1; = n - 1 on complete; <= 1 on DAGs. The
    queues are measured too: each heap's length as it is heapified, when its
    component opens and after each compaction."""
    lengths: list[int] = []

    def measured(heap):
        lengths.append(len(heap))
        heapify(heap)

    heapify = sssp.heapify
    monkeypatch.setattr(sssp, "heapify", measured)
    for i in range(300):
        n = 2 + i % 99
        g = gen_random_digraph(n, n + i % (3 * n), seed=60_000 + i)
        tree = build_ac_tree(g)
        lengths.clear()
        r = recursive_dijkstra(g, tree)
        # a heap opens exactly when some component has two or more nodes
        if (
            r.stats.max_queue_len > tree.width - 1
            or max(lengths, default=0) > tree.width - 1
            or bool(lengths) != (tree.width >= 3)
        ):
            _report("6 queue bound", False, f"seed={60_000 + i}")
    for n in range(2, 31):
        g = gen_complete(n, seed=n)
        lengths.clear()
        r = recursive_dijkstra(g, build_ac_tree(g))
        if r.stats.max_queue_len != n - 1 or (n >= 3 and max(lengths, default=0) != n - 1):
            _report("6 queue bound", False, f"complete n={n}")
    for i in range(30):
        n = 2 + (i * 37) % 400
        g = gen_random_dag(n, 4 * n, seed=61_000 + i)
        lengths.clear()
        r = recursive_dijkstra(g, build_ac_tree(g))
        if r.stats.max_queue_len > 1 or lengths:
            _report("6 queue bound", False, f"dag seed={61_000 + i}")
    _report("6 queue bound", True, "random + complete + dag families")


def test_criterion_7_anchored_family_widths():
    """Layered width 2 for all depths; DAGs width 2; single node width 1."""
    for depth in range(1, 21):
        if build_ac_tree(gen_layered(depth, seed=depth)).width != 2:
            _report("7 anchored widths", False, f"layered depth={depth}")
    for i in range(50):
        n = 2 + (i * 11) % 120
        g = gen_random_dag(n, (n - 1) + i % (4 * n), seed=70_000 + i)
        if build_ac_tree(g).width != 2:
            _report("7 anchored widths", False, f"dag seed={70_000 + i}")
    if build_ac_tree(Graph.from_arcs(1, 0, [])).width != 1:
        _report("7 anchored widths", False, "single node")
    _report("7 anchored widths", True, "layered 1..20, 50 DAGs, single node")


def test_criterion_8_scaling_report():
    """Near-linear scaling, reported; operation counts, hard-checked."""
    sizes = [1 << k for k in range(12, 19)]

    build_times = []
    for n in sizes:
        g = gen_random_digraph(n, 4 * n, seed=n)
        t0 = time.perf_counter()
        tree = build_ac_tree(g)
        build_times.append(time.perf_counter() - t0)
        assert tree.width >= 2
        if n <= sizes[1]:
            t = DominatorTree(tree.idom)
            order = list(t.order)
            reads = rows_read(g, lambda stand_in: _sibling_arcs(stand_in, t.idom, order))
            rows = [(g.offsets[v], g.offsets[v + 1]) for v in range(n)]
            assert sorted(reads) == rows, "dominance pass must read each row once"

    recursive_times = []
    dijkstra_times = []
    for n in sizes:
        g = gen_random_dag(n, 4 * n, seed=n)
        tree = build_ac_tree(g)
        t0 = time.perf_counter()
        fast = recursive_dijkstra(g, tree)
        recursive_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        oracle = dijkstra(g)
        dijkstra_times.append(time.perf_counter() - t0)
        # hard-failing operation-count invariants
        assert fast.stats.pops == n and oracle.stats.pops == n
        assert fast.stats.key_decreases <= g.arc_count
        assert oracle.stats.key_decreases <= g.arc_count
        assert fast.stats.max_queue_len <= 1
        assert fast.dist == oracle.dist

    def ratios(times):
        return [times[i + 1] / times[i] for i in range(len(times) - 1)]

    def per_doubling(times):
        return (times[-1] / times[0]) ** (1 / (len(times) - 1))

    print("[acceptance] scaling report (wall-clock, not asserted)")
    print(f"[acceptance]   sizes: {sizes}")
    print(f"[acceptance]   build_ac_tree seconds: {[f'{t:.3f}' for t in build_times]}")
    print(
        f"[acceptance]   build ratios/doubling: {[f'{r:.2f}' for r in ratios(build_times)]}"
        f" mean {per_doubling(build_times):.2f} (nominal <= 2.6)"
    )
    print(
        f"[acceptance]   recursive (DAG) ratios: {[f'{r:.2f}' for r in ratios(recursive_times)]}"
        f" mean {per_doubling(recursive_times):.2f} (nominal <= 2.3)"
    )
    print(
        f"[acceptance]   dijkstra (DAG) ratios: {[f'{r:.2f}' for r in ratios(dijkstra_times)]}"
        f" mean {per_doubling(dijkstra_times):.2f} (expect extra log-factor growth)"
    )
    # adversarial families at about 2^12, 2^14 and 2^16 nodes: a stage that
    # turns superlinear on one of them shows as a per-doubling ratio near 4
    for family, nodes_per_k in (
        (path_star, 2), (path_back_arcs, 1), (nested_loops, 2),
        (star_back_arcs, 1), (ladder, 2), (path_fan, 2),
    ):
        times = []
        for log2n in (12, 14, 16):
            g = family((1 << log2n) // nodes_per_k)
            t0 = time.perf_counter()
            build_ac_tree(g)
            times.append(time.perf_counter() - t0)
        print(
            f"[acceptance]   {family.__name__} build seconds at 2^12, 2^14, 2^16"
            f" nodes: {[f'{t:.3f}' for t in times]}"
            f" mean ratio/doubling {(times[-1] / times[0]) ** (1 / 4):.2f}"
        )
    _report("8 scaling", True, "op counts asserted, timings reported above")


def _module_closure_check(g: Graph, m, h) -> bool:
    """Check that two overlapping modules have module union and intersection.

    Precondition: ``m`` and ``h`` are modules that intersect without either
    containing the other. Expected to return True on every valid input; an
    input that breaks the precondition raises :class:`InvalidFamilyError`
    naming the offending sets.
    """
    ms = frozenset(m)
    hs = frozenset(h)
    if not ms & hs or ms <= hs or hs <= ms:
        raise InvalidFamilyError(
            f"module_closure_check: sets {sorted(ms)} and {sorted(hs)} do not"
            " overlap properly"
        )
    for s in (ms, hs):
        if is_module(g, s) is None:
            raise InvalidFamilyError(f"module_closure_check: set {sorted(s)} is not a module")
    return is_module(g, ms | hs) is not None and is_module(g, ms & hs) is not None


def test_criterion_9_module_closure():
    """Union and intersection of overlapping modules are modules (n <= 6)."""
    graphs = 0
    pairs = 0
    for i in range(200):
        n = 2 + i % 5
        g = gen_random_digraph(n, (n - 1) + i % (2 * n + 2), seed=90_000 + i)
        modules = []
        for mask in range(1, 1 << n):
            members = frozenset(v for v in range(n) if mask >> v & 1)
            if is_module(g, members) is not None:
                modules.append(members)
        for x in range(len(modules)):
            for y in range(x + 1, len(modules)):
                a, b = modules[x], modules[y]
                if a & b and not (a <= b or b <= a):
                    if not _module_closure_check(g, a, b):
                        _report("9 module closure", False, f"seed={90_000 + i}")
                    pairs += 1
        graphs += 1
    _report("9 module closure", True, f"{graphs} graphs, {pairs} overlapping pairs")

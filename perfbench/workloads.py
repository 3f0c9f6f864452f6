"""Inputs, pipelines and the measured loop of the actree benchmark.

Every workload is a closed loop with one client: the next op starts when
the previous one returns. The program sees only edge-list text or arc
lists made here from the seed; it is driven through its public entry
points alone (``parse_edge_list``, ``prune_unreachable``,
``Graph.from_arcs``, ``compute_dominator_tree``, ``build_ac_tree``,
``recursive_dijkstra``, ``verify_spt``, ``ShortestPathResult.stats`` and
``AcTree.width``). Input generation, the oracle and the checks run between
ops, outside the timed region. GC stays on.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import speed
from spans import NullTracer, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"

BLOCK = 8  # nodes per strongly connected block of chain-reweight
CHORDS = 15  # random chords per block
MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    log2n: int
    reweight: bool  # fixed arcs and a prebuilt tree; ops only reweight
    ops: int  # fixed, so both commits of a comparison get the same inputs
    setup_rounds: int
    width_range: tuple[int, float]  # the A-C tree width every op must report


WORKLOADS = {w.name: w for w in (
    Workload("dag-solve", 14, False, 16, 31, (2, 2)),
    Workload("wide-solve", 14, False, 16, 31, (1, math.inf)),
    Workload("chain-reweight", 15, True, 27, 5, (1, 9)),
)}


# ---------------------------------------------------------------------------
# Inputs (owned by the benchmark; independent of the program's generators)
# ---------------------------------------------------------------------------

def dag_arcs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """4n arcs from lower to higher id; a random arborescence reaches every node."""
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    while len(arcs) < 4 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((min(u, v), max(u, v)))
    return arcs


def wide_arcs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random arborescence from node 0 plus uniform arcs, 4n in all."""
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    arcs.extend((rng.randrange(n), rng.randrange(n)) for _ in range(3 * n + 1))
    return arcs


def chain_arcs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Blocks of BLOCK nodes, each a ring through its hub plus CHORDS chords.

    A block is entered only at its hub (its first node), from one random
    node of the previous block, so the hub dominates the block.
    """
    arcs = []
    blocks = n // BLOCK
    for b in range(blocks):
        hub = b * BLOCK
        arcs.extend((hub + i, hub + (i + 1) % BLOCK) for i in range(BLOCK))
        arcs.extend((hub + rng.randrange(BLOCK), hub + 1 + rng.randrange(BLOCK - 1))
                    for _ in range(CHORDS))
        if b + 1 < blocks:
            arcs.append((hub + rng.randrange(BLOCK), hub + BLOCK))
    return arcs


def weights(m: int, rng: random.Random) -> list[float]:
    return [rng.random() for _ in range(m)]


def edge_list(n: int, arcs: list[tuple[int, int]], ws: list[float]) -> str:
    lines = [f"{n} {len(arcs)} 0\n"]
    lines.extend(f"{u} {v} {w!r}\n" for (u, v), w in zip(arcs, ws))
    return "".join(lines)


# ---------------------------------------------------------------------------
# Pipelines: one op each, spans around every public call
# ---------------------------------------------------------------------------

COLD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import actree; print(time.perf_counter() - t)")


def cold_import_s() -> float:
    """Seconds of ``import actree`` in a fresh interpreter, as a user pays it."""
    out = subprocess.run([sys.executable, "-I", "-c", COLD_IMPORT, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def decompose(P, text: str, tr):
    with tr.span("graph.parse"):
        g = P.parse_edge_list(text)
    with tr.span("graph.prune"):
        g, remap = P.prune_unreachable(g)
    with tr.span("ac_tree.build"):
        tree = P.build_ac_tree(g)
    return g, remap, tree


def search(P, g, tree, tr):
    with tr.span("sssp.search"):
        r = P.recursive_dijkstra(g, tree)
    with tr.span("sssp.verify"):
        ok = P.verify_spt(g, r)
    return r, ok


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    digest: str = ""
    inputs: int = 0


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least 10 samples beyond it (nearest rank).

    With 10 samples or fewer no percentile qualifies; the maximum is
    reported as p100.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


class Bench:
    """One workload run: set-up, then the closed loop, then its metrics.

    ``shrink`` halves the node count of every graph, the calibration
    graph's too, that many times (for quick checks).
    ``mutate(op, result)`` may replace a result before it is checked; the
    tests use it to prove that a wrong distance is caught.
    """

    def __init__(self, name: str, seed: int, trace: bool, shrink: int = 0, mutate=None):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.n = 1 << (self.w.log2n - shrink)
        self.cal = speed.Calibration.build(shrink, wide_arcs)
        self.mutate = mutate
        self.null = NullTracer()
        self.tr = Tracer() if trace else self.null
        self.digest = hashlib.sha256()
        self.rep = Report(name, seed, trace)
        self.ops: list[tuple[float, float]] = []  # (raw wall, speed scale) per untraced op
        self.overheads: list[float] = []
        self.counts: dict | None = None
        self.arcs_done = 0

    def rng(self, part: object) -> random.Random:
        return random.Random(f"{self.w.name}/{self.seed}/{part}")

    def setup(self) -> list[float]:
        """Per round, a cold import of the program in a fresh interpreter, and
        on chain-reweight the parse, prune and build in this process.

        Returns the scaled seconds of every round.
        """
        w, tr = self.w, self.tr
        sys.path.insert(0, str(SRC))
        import actree as P
        self.P = P
        origin = Path(P.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"actree was imported from {origin}, not from {SRC}")
        if w.reweight:
            self.topo = chain_arcs(self.n, self.rng("topology"))
            text = edge_list(self.n, self.topo, weights(len(self.topo), self.rng("setup")))
            self.digest.update(text.encode())
            self.memory_text = text
        times = []
        for i in range(w.setup_rounds):
            gc.collect()
            tr.op = f"setup{i}"
            mark = len(tr.spans)
            before = self.cal.run_s()
            wall = cold_import_s()
            if w.reweight:
                t0 = perf_counter()
                with tr.span("setup"):
                    g, self.remap, self.tree = decompose(P, text, tr)
                wall += perf_counter() - t0
                if self.trace:
                    with tr.span("dominators.idom"):
                        P.compute_dominator_tree(g)
            scale = self.cal.factor(before, self.cal.run_s())
            tr.rescale(mark, scale)
            times.append(wall * scale)
        return times

    def make_input(self, i: int):
        """Arcs, weights and what the program receives for input ``i``."""
        rng = self.rng(i)
        if self.w.reweight:
            arcs = self.topo
            ws = weights(len(arcs), rng)
            self.digest.update(array("d", ws).tobytes())
            return arcs, ws, [(u, v, x) for (u, v), x in zip(arcs, ws)]
        arcs = (dag_arcs if self.w.name == "dag-solve" else wide_arcs)(self.n, rng)
        ws = weights(len(arcs), rng)
        text = edge_list(self.n, arcs, ws)
        self.digest.update(text.encode())
        return arcs, ws, text

    def attempt(self, i: int, payload, oracle: list[float], arc_count: int, tr):
        """Run and check one op: (wall seconds, failures, pruned graph, counts)."""
        P = self.P
        t0 = perf_counter()
        try:
            with tr.span("op"):
                if self.w.reweight:
                    with tr.span("graph.from_arcs"):
                        g = P.Graph.from_arcs(self.n, 0, payload)
                    remap, tree = self.remap, self.tree
                else:
                    g, remap, tree = decompose(P, payload, tr)
                r, ok = search(P, g, tree, tr)
            wall = perf_counter() - t0
            if self.mutate is not None:
                r = self.mutate(i, r)
            bad = checks.failures(r, ok, remap, oracle, arc_count, tree.width,
                                  self.w.width_range)
        except Exception as exc:  # an op that raises is counted, never fatal
            return perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], None, None
        return wall, bad, g, None if bad else op_counts(r, tree, arc_count)

    def record(self, i: int, bad: list[str], arc_count: int) -> None:
        self.rep.attempted += 1
        self.arcs_done += arc_count
        if bad:
            self.rep.failed += 1
            self.rep.reasons.extend(f"op {i}: {b}" for b in bad)

    def plain_input(self, i: int) -> None:
        """One untimed input, one op timed between two calibration runs."""
        n = self.n
        arcs, ws, payload = self.make_input(i)
        oracle = checks.heapq_dijkstra(n, 0, checks.adjacency(n, arcs, ws))
        gc.collect()
        before = self.cal.run_s()
        wall, bad, _, _ = self.attempt(i, payload, oracle, len(arcs), self.null)
        self.ops.append((wall, self.cal.factor(before, self.cal.run_s())))
        self.record(i, bad, len(arcs))

    def traced_input(self, i: int) -> None:
        """One input run untraced and traced, alternating which goes first.

        The reference search and the diagnostic calls (a separate dominator
        tree, and on the solve workloads ``Graph.from_arcs``) run in the same
        calibrated window, outside the op span.
        """
        n, tr = self.n, self.tr
        tr.op = i
        arcs, ws, payload = self.make_input(i)
        if i == 0 and not self.w.reweight:
            self.memory_text = payload
        adj = checks.adjacency(n, arcs, ws)
        gc.collect()
        mark = len(tr.spans)
        before = self.cal.run_s()
        with tr.span("ref.heapq_dijkstra"):
            oracle = checks.heapq_dijkstra(n, 0, adj)
        del adj
        walls = {}
        good = None
        for traced in (False, True) if i % 2 == 0 else (True, False):
            gc.collect()
            wall, bad, g, found = self.attempt(i, payload, oracle, len(arcs),
                                              tr if traced else self.null)
            walls[traced] = wall
            self.record(i, bad, len(arcs))
            if not bad:
                good = g
                if traced and self.counts is None:
                    self.counts = found
            del g
        self.overheads.append(walls[True] / walls[False] - 1)
        if good is not None and not self.w.reweight:
            with tr.span("dominators.idom"):
                self.P.compute_dominator_tree(good)
            arcs_w = [(u, v, x) for (u, v), x in zip(arcs, ws)]
            with tr.span("graph.from_arcs"):
                self.P.Graph.from_arcs(n, 0, arcs_w)
        tr.rescale(mark, self.cal.factor(before, self.cal.run_s()))

    def run(self) -> Report:
        rep = self.rep
        setup = self.setup()
        ops = self.w.ops
        for i in range(math.ceil(ops / 2) if self.trace else ops):
            rep.inputs += 1
            (self.traced_input if self.trace else self.plain_input)(i)
        rep.digest = self.digest.hexdigest()
        if self.trace:
            return self.finish_traced()
        return self.finish_plain(setup)

    def finish_plain(self, setup: list[float]) -> Report:
        rep = self.rep
        times = [wall * scale for wall, scale in self.ops]
        p_tail, pct = tail(times)
        rep.metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (p_tail, "s"),
            "arcs_per_s": (self.arcs_done / sum(times), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        rep.notes["setup_s"] = f"median of {len(setup)} set-ups"
        rep.notes["op_p50_s"] = (f"raw wall {statistics.median(w for w, _ in self.ops):.4g} s, "
                                 f"speed scale {statistics.median(s for _, s in self.ops):.3f}")
        rep.notes["op_tail_s"] = f"p{pct} of N={len(times)}"
        return rep

    def finish_traced(self) -> Report:
        rep, tr = self.rep, self.tr
        mem = memory(self.P, self.memory_text)
        rep.metrics = layer_metrics(tr, mem, self.counts, self.overheads)
        rep.notes["ac_tree.self_s"] = "computed: ac_tree.build_s - dominators.idom_s"
        rep.notes["trace.overhead_frac"] = f"median of {len(self.overheads)} paired ops"
        path = OUT / f"trace-{self.w.name}-seed{self.seed}.json"
        tr.write(path)
        rep.notes["spans"] = f"{len(tr.spans)} spans written to {path}"
        return rep


COUNTS = {
    "ac_tree.width": "count",
    "ac_tree.components": "count",
    "ac_tree.singleton_frac": "ratio",
    "sssp.pops": "count",
    "sssp.key_decreases": "count",
    "sssp.decrease_ratio": "ratio",
    "sssp.max_queue_len": "count",
}


def op_counts(r, tree, arc_count: int) -> dict[str, float]:
    """Operation counts of one op; they repeat exactly for the same input."""
    stats = r.stats
    sizes = stats.component_sizes
    components = sum(sizes.values())
    return {
        "ac_tree.width": tree.width,
        "ac_tree.components": components,
        "ac_tree.singleton_frac": sizes.get(1, 0) / components if components else 0.0,
        "sssp.pops": stats.pops,
        "sssp.key_decreases": stats.key_decreases,
        "sssp.decrease_ratio": stats.key_decreases / arc_count,
        "sssp.max_queue_len": stats.max_queue_len,
    }


def memory(P, text: str) -> dict[str, tuple[float, str]]:
    """Memory of one parsed graph, its build and its search, via tracemalloc.

    The graph comes from edge-list text, so every object it holds is its own.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g, _ = P.prune_unreachable(P.parse_edge_list(text))
        held = tracemalloc.get_traced_memory()[0] - base
        tree, build_peak = peak_mib(lambda: P.build_ac_tree(g))
        _, search_peak = peak_mib(lambda: P.recursive_dijkstra(g, tree))
    finally:
        tracemalloc.stop()
    return {
        "graph.bytes_per_arc": (held / g.arc_count, "B/arc"),
        "ac_tree.build_peak_mib": (build_peak, "MiB"),
        "sssp.search_peak_mib": (search_peak, "MiB"),
    }


def peak_mib(step):
    """Run ``step`` and return its result and the MiB it allocated at peak."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = step()
    return out, (tracemalloc.get_traced_memory()[1] - base) / MIB


def layer_metrics(tr: Tracer, mem: dict, counts: dict | None,
                  overheads: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced spans, plus memory and op counts."""
    med = tr.median
    build, idom = med("ac_tree.build"), med("dominators.idom")
    search, heap = med("sssp.search"), med("ref.heapq_dijkstra")
    metrics = {
        "graph.parse_s": (med("graph.parse"), "s"),
        "graph.prune_s": (med("graph.prune"), "s"),
        "graph.from_arcs_s": (med("graph.from_arcs"), "s"),
        "dominators.idom_s": (idom, "s"),
        "ac_tree.build_s": (build, "s"),
        "ac_tree.self_s": (build - idom, "s"),
        "sssp.search_s": (search, "s"),
        "sssp.verify_s": (med("sssp.verify"), "s"),
        "ref.heapq_dijkstra_s": (heap, "s"),
        "ref.search_ratio": (search / heap, "ratio"),
        "trace.overhead_frac": (statistics.median(overheads), "ratio"),
    }
    metrics.update(mem)
    for key, unit in COUNTS.items():
        metrics[key] = (counts[key] if counts else -1, unit)
    return metrics

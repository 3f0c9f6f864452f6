"""Machine-speed normalisation of the benchmark's times.

On a shared machine the speed of the same Python code drifts by tens of
percent within a second: the same op on the same input took 1.05 s to
1.30 s in six consecutive processes on a 2-CPU box. Raw wall times then
spread more between runs than any change worth detecting. So a calibration
run goes right before and right after every timed window (an op, a set-up
round, or on the traced run all the work on one input), and the window's
times are reported as

    wall * NOMINAL_S / (mean wall of its two calibration runs)

that is, the seconds the same work takes when the calibration runs at its
nominal speed. On that box the spread between quartiles of the op median
over several runs was 14% raw and 2% scaled on chain-reweight, 15% raw and
6% scaled on dag-solve; scaling a whole run by the mean of all its
calibration runs did no better on dag-solve and worse (7%) on
chain-reweight, whose ops are short.

The calibration is the benchmark's own heapq Dijkstra over a fixed random
digraph of 2^14 nodes and 4 * 2^14 arcs, independent of the seed: work of
the same kind and working set as the ops, so contention slows both alike.
(A cache-resident arithmetic loop tracked the ops about half as well.)
"""

from __future__ import annotations

import random
from time import perf_counter

import checks

LOG2N = 14
NOMINAL_S = 0.050  # one calibration run on the reference box, fast mode


class Calibration:
    def __init__(self, adj: list[list], nominal_s: float):
        self.adj = adj
        self.nominal_s = nominal_s

    @classmethod
    def build(cls, shrink: int, arcs_for) -> "Calibration":
        """The fixed reference graph, shrunk like the workload's graphs."""
        n = 1 << (LOG2N - shrink)
        rng = random.Random("calibration")
        arcs = arcs_for(n, rng)
        adj = checks.adjacency(n, arcs, [rng.random() for _ in arcs])
        return cls(adj, NOMINAL_S / (1 << shrink))

    def run_s(self) -> float:
        """Wall seconds of one calibration run."""
        t0 = perf_counter()
        checks.heapq_dijkstra(len(self.adj), 0, self.adj)
        return perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        """Scale from wall seconds to nominal seconds for one bracketed window."""
        return 2 * self.nominal_s / (before + after)

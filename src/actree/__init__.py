"""Acyclic-connected tree decomposition and shortest paths for digraphs.

The library decomposes a single-source directed graph into its A-C tree (a
minimum-width nesting decomposition built from the dominator tree and per
node strongly connected components), certifies the decomposition against
brute-force oracles, and runs single-source shortest paths with one small
priority queue per component. With ``heapq`` and a cap that compacts a
queue past twice the width, no queue holds more than 2·w + 1 entries for
nesting width w, so a search takes O((n + e) log w) time; the paper's
O(e + n log w) needs a heap with O(1) amortised decrease-key.
"""

from .ac_tree import (
    AcTree,
    ac_to_nesting_family,
    build_ac_tree,
    naive_dominance_graph,
)
from .dominators import (
    DominatorTree,
    brute_force_dominated_set,
    compute_dominator_tree,
)
from .graph import (
    DistanceOverflowError,
    FormatError,
    Graph,
    GraphError,
    NegativeWeightError,
    TreeMismatchError,
    UnreachableNodeError,
    gen_nested,
    parse_dimacs_sp,
    parse_edge_list,
    prune_unreachable,
    serialize_dimacs_sp,
    serialize_edge_list,
)
from .nesting import (
    InvalidFamilyError,
    brute_force_nesting_width,
    family_width,
    is_module,
)
from .sssp import (
    SearchStats,
    ShortestPathResult,
    SptCheck,
    dijkstra,
    recursive_dijkstra,
    verify_spt,
)

__version__ = "0.1.0"

__all__ = [
    "AcTree",
    "DistanceOverflowError",
    "DominatorTree",
    "FormatError",
    "Graph",
    "GraphError",
    "InvalidFamilyError",
    "NegativeWeightError",
    "SearchStats",
    "ShortestPathResult",
    "SptCheck",
    "TreeMismatchError",
    "UnreachableNodeError",
    "ac_to_nesting_family",
    "brute_force_dominated_set",
    "brute_force_nesting_width",
    "build_ac_tree",
    "compute_dominator_tree",
    "dijkstra",
    "family_width",
    "gen_nested",
    "is_module",
    "naive_dominance_graph",
    "parse_dimacs_sp",
    "parse_edge_list",
    "prune_unreachable",
    "recursive_dijkstra",
    "serialize_dimacs_sp",
    "serialize_edge_list",
    "verify_spt",
]

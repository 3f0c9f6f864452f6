"""Command-line front end: decompose, sssp, width.

Each command parses one graph file, prunes unreachable nodes and prints one
result. Node ids in the output are the input's 0-based ids: the results on
the pruned graph are mapped back, with ``null`` for each dropped node. The
warning that lists the dropped nodes names them as the file does: 1-based
for DIMACS. The CLI does no timing: ``perfbench/run.py`` at the repository
root measures the library end to end and layer by layer.

Exit codes: 0 ok, 2 parse or usage error, 3 negative weight or a distance
that overflows, 4 internal failure (a failed --verify or a width
disagreement, which would falsify the decomposition, or any unexpected
exception, reported as one line instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .ac_tree import build_ac_tree
from .graph import (
    DistanceOverflowError,
    FormatError,
    Graph,
    NegativeWeightError,
    parse_dimacs_sp,
    parse_edge_list,
    prune_unreachable,
    _DIMACS,
    _EDGE_LIST,
)
from .nesting import EXACT_WIDTH_LIMIT, brute_force_nesting_width
from .sssp import dijkstra, recursive_dijkstra, verify_spt

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_INTERNAL = 4

_DIMACS_EXTENSIONS = (".gr", ".dimacs")


def _detect_format(path: str, fmt: str | None) -> str:
    if fmt:
        return fmt
    return "dimacs" if path.lower().endswith(_DIMACS_EXTENSIONS) else "edgelist"


def _load_graph(args) -> tuple[Graph, int]:
    """The input graph and the file's first node id."""
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise FormatError(f"{args.input}: not UTF-8 text") from None
    if _detect_format(args.input, args.format) == "dimacs":
        return parse_dimacs_sp(text, 1 if args.source is None else args.source), _DIMACS.base
    return parse_edge_list(text), _EDGE_LIST.base


def _load_pruned(args) -> tuple[Graph, Sequence[int | None], Sequence[int]]:
    """The pruned graph, ``remap`` from input ids to pruned ids (``None``
    for a dropped node), and each pruned node's input id."""
    g, base = _load_graph(args)
    pruned, remap = prune_unreachable(g)
    if pruned.node_count == g.node_count:
        return pruned, remap, remap
    # the warning names each node as the file does
    dropped = [v + base for v, nv in enumerate(remap) if nv is None]
    noun = "node" if len(dropped) == 1 else "nodes"
    print(
        f"warning: dropped {len(dropped)} unreachable {noun}: "
        + " ".join(map(str, dropped)),
        file=sys.stderr,
    )
    return pruned, remap, [v for v, nv in enumerate(remap) if nv is not None]


def _by_input_id(column, remap, ids=None) -> list:
    """``column``, indexed by pruned id, indexed by input id instead, with
    ``None`` for each dropped node; given ``ids``, each entry that is a
    pruned node id becomes its input id too."""
    if ids is not None:
        column = [None if v is None else ids[v] for v in column]
    return [None if v is None else column[v] for v in remap]


def _dump(doc) -> None:
    print(json.dumps(doc, separators=(",", ":")))


def cmd_decompose(args) -> int:
    g, remap, ids = _load_pruned(args)
    tree = build_ac_tree(g)
    components = tree.components
    doc = {
        "components": {
            str(ids[a]): [sorted(map(ids.__getitem__, c)) for c in components[a]]
            for a in sorted(components)
        },
        "width": tree.width,
        "idom": _by_input_id(tree.idom, remap, ids),
    }
    _dump(doc)
    return EXIT_OK


def cmd_sssp(args) -> int:
    g, remap, ids = _load_pruned(args)
    if args.algo == "dijkstra":
        result = dijkstra(g)
    else:
        result = recursive_dijkstra(g, build_ac_tree(g))
    if args.verify:
        check = verify_spt(g, result)
        if not check:
            for violation in check.violations:
                print(f"verify: {violation}", file=sys.stderr)
            return EXIT_INTERNAL
        if args.algo == "recursive":
            oracle = dijkstra(g)
            if result.dist != oracle.dist:
                print(
                    "verify: recursive distances diverge from Dijkstra",
                    file=sys.stderr,
                )
                return EXIT_INTERNAL
    _dump({
        "dist": _by_input_id(result.dist, remap),
        "parent": _by_input_id(result.parent, remap, ids),
        "stats": {name: getattr(result.stats, name) for name in result.stats.__slots__},
    })
    return EXIT_OK


def cmd_width(args) -> int:
    g = _load_pruned(args)[0]
    tree = build_ac_tree(g)
    if args.exact:
        if g.node_count > EXACT_WIDTH_LIMIT:
            print(
                f"error: --exact is limited to {EXACT_WIDTH_LIMIT} nodes "
                f"(graph has {g.node_count})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        exact = brute_force_nesting_width(g)
        if exact != tree.width:
            print(
                f"internal error: exact width {exact} != decomposition width "
                f"{tree.width}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
    print(tree.width)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actree",
        description="A-C tree graph decomposition and shortest-path tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph file")
        p.add_argument(
            "--format",
            choices=("edgelist", "dimacs"),
            help="input format (default: by extension, .gr/.dimacs is DIMACS)",
        )
        p.add_argument(
            "--source",
            type=int,
            help="1-based source node for DIMACS input (default 1)",
        )

    p = sub.add_parser(
        "decompose", help="print the A-C tree and its dominator parents as JSON"
    )
    add_input(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sssp", help="single-source shortest paths as JSON")
    add_input(p)
    p.add_argument(
        "--algo",
        choices=("dijkstra", "recursive"),
        default="recursive",
        help="engine to run (default recursive)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="check the result; recursive is also compared against Dijkstra",
    )
    p.set_defaults(func=cmd_sssp)

    p = sub.add_parser("width", help="print the nesting width")
    add_input(p)
    p.add_argument(
        "--exact",
        action="store_true",
        help=f"cross-check with the exhaustive oracle (n <= {EXACT_WIDTH_LIMIT})",
    )
    p.set_defaults(func=cmd_width)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.source is not None and _detect_format(args.input, args.format) != "dimacs":
        parser.error("--source applies to DIMACS input only")
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NegativeWeightError, DistanceOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

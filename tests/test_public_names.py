"""The package's ``__all__`` is its whole public surface, and nothing more."""

from __future__ import annotations

import inspect
import types

import pytest

import actree
import actree.graph


def test_all_is_sorted_resolves_and_lists_every_public_attribute():
    names = actree.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(actree, name), name
    public = {
        name
        for name, value in vars(actree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(names), sorted(public - set(names))
    assert "DominanceGraph" not in names
    # one name per job: gen_nested substitutes, brute_force_dominated_set
    # is the dominance oracle, and ac_to_nesting_family returns plain sets
    # whose width is the tree's own; recursive_dijkstra solves DAGs without
    # a queue, so no DAG-only engine or error class remains; the seeded
    # random and layered families are test fixtures, not library code
    fixtures = ("gen_layered", "gen_random_digraph", "gen_random_dag", "gen_complete")
    for name in ("nest", "brute_force_dominates", "NestingFamily", "dag_sssp", "CycleError",
                 *fixtures):
        assert name not in names and not hasattr(actree, name), name
    for name in fixtures:
        assert not hasattr(actree.graph, name), name
    assert len(names) == 30


# every public function that takes a record, with valid arguments by name
RECORDS = {"Graph", "AcTree", "DominatorTree", "ShortestPathResult"}
_G = actree.Graph.from_arcs(3, 0, [(0, 1), (1, 2)])
VALID = {
    "g": _G,
    "t": actree.compute_dominator_tree(_G),
    "tree": actree.build_ac_tree(_G),
    "r": actree.dijkstra(_G),
    "a": 0,
    "nodes": (0,),
    "family": actree.ac_to_nesting_family(actree.build_ac_tree(_G)),
}
RECORD_PARAMS = [
    (name, param.name, param.annotation)
    for name in actree.__all__
    if inspect.isfunction(getattr(actree, name))
    for param in inspect.signature(getattr(actree, name)).parameters.values()
    if param.annotation in RECORDS
]


def test_every_public_function_taking_a_record_is_checked():
    # found by their annotations, so a new one is checked below unasked
    assert sorted({name for name, _, _ in RECORD_PARAMS}) == [
        "ac_to_nesting_family", "brute_force_dominated_set", "brute_force_nesting_width",
        "build_ac_tree", "compute_dominator_tree", "dijkstra", "family_width", "is_module",
        "naive_dominance_graph", "prune_unreachable", "recursive_dijkstra",
        "serialize_dimacs_sp", "serialize_edge_list", "verify_spt",
    ]
    assert len(RECORD_PARAMS) == 17


@pytest.mark.parametrize("wrong", [None, "g", 3], ids=["none", "str", "int"])
@pytest.mark.parametrize("function, param, kind", RECORD_PARAMS,
                         ids=[f"{f}-{p}" for f, p, _ in RECORD_PARAMS])
def test_an_argument_of_the_wrong_type_raises_a_typed_error_naming_it(function, param, kind,
                                                                      wrong):
    call = getattr(actree, function)
    args = {p: VALID[p] for p in inspect.signature(call).parameters if p in VALID}
    call(**args)  # the valid arguments pass
    args[param] = wrong
    error = actree.TreeMismatchError if kind == "AcTree" else actree.GraphError
    message = f"^{param} must be a {kind}, not {type(wrong).__name__}$"
    with pytest.raises(error, match=message):
        call(**args)
    # a record of another class is no better
    args[param] = VALID["r"] if kind == "Graph" else _G
    with pytest.raises(error, match=f"^{param} must be a {kind}, not "):
        call(**args)

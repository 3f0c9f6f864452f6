"""The package's ``__all__`` is its whole public surface, and nothing more."""

from __future__ import annotations

import types

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

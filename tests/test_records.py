"""The six result and graph records: read-only, compared by fields, picklable.

``Graph``, ``DominatorTree``, ``AcTree``, ``SearchStats``,
``ShortestPathResult`` and ``SptCheck`` are ``__slots__`` classes on one
small read-only base, so importing the package pulls in no ``dataclasses``.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import actree
from actree import (
    AcTree,
    DominatorTree,
    Graph,
    SearchStats,
    ShortestPathResult,
    SptCheck,
    build_ac_tree,
    compute_dominator_tree,
    gen_nested,
    recursive_dijkstra,
    verify_spt,
)
from actree.graph import _Record
from random_graphs import gen_random_digraph

CLASSES = (
    Graph,
    DominatorTree,
    AcTree,
    SearchStats,
    ShortestPathResult,
    SptCheck,
)
# a dict field makes a record unhashable, as it made the dataclass
UNHASHABLE = (SearchStats, ShortestPathResult)


def records() -> dict[type, object]:
    """One freshly built record of each class, all from the same graph."""
    g = gen_nested((3, 1, (4, 2, 3)), seed=5)
    tree = build_ac_tree(g)
    r = recursive_dijkstra(g, tree)
    return {
        Graph: g,
        DominatorTree: compute_dominator_tree(g),
        AcTree: tree,
        SearchStats: r.stats,
        ShortestPathResult: r,
        SptCheck: verify_spt(g, r),
    }


class _Twin(_Record):
    """A record class with the same fields as ``SptCheck``."""

    __slots__ = ("violations",)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    src = str(Path(actree.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import actree; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    added = set(out.stdout.split())
    assert "actree.sssp" in added
    assert not added & {"dataclasses", "inspect", "typing"}, sorted(added)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_equal_by_fields_and_hash_alike(cls):
    a, b = records()[cls], records()[cls]
    assert a is not b and a == b and not a != b
    assert type(a) is cls and not hasattr(a, "__dict__")
    assert cls(*fields(a)) == a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(cls(*fields(a)))


def test_records_differ_across_classes_even_with_equal_fields():
    built = records()
    for cls, record in built.items():
        for other_cls, other in built.items():
            assert (record == other) == (cls is other_cls)
        assert record != fields(record)
        assert record.__eq__(fields(record)) is NotImplemented
    twin = _Twin(())
    check = SptCheck(())
    assert fields(twin) == fields(check) and twin != check and check != twin
    g = built[Graph]
    heavier = g.weights[:-1] + (g.weights[-1] + 1.0,)
    assert g != Graph(g.source, g.offsets, g.heads, heavier)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_read_only(cls):
    record = records()[cls]
    before = fields(record)
    derived = {
        Graph: ("node_count", "arc_count"), AcTree: ("width",), SptCheck: ("ok",)
    }.get(cls, ())
    for name in (*cls.__slots__, *derived, "extra"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(record, name)
    assert fields(record) == before


DERIVED = {
    AcTree: ("idom", "comp_sizes", "plan", "rows"),
    DominatorTree: ("children", "order", "dfs_in", "dfs_out"),
}


@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls, names in DERIVED.items() for name in names],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_derived_slots_are_read_only(cls, name):
    record = records()[cls]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match="read-only"):
        setattr(record, name, ())
    with pytest.raises(AttributeError, match="read-only"):
        delattr(record, name)
    assert getattr(record, name) is before


def test_an_actree_is_its_topology_and_derives_every_other_slot():
    g = gen_random_digraph(200, 600, seed=4)
    tree = build_ac_tree(g)
    topology = (g.source, g.offsets, g.heads)
    assert AcTree._fields == ("source", "offsets", "heads") and fields(tree) == topology
    assert set(AcTree.__slots__) == {*AcTree._fields, *DERIVED[AcTree]}
    # the pickle payload is the topology: the derived slots are rebuilt
    assert tree.__reduce__() == (AcTree, topology)
    assert len(pickle.dumps(tree)) < len(pickle.dumps(topology)) + 64
    assert len(pickle.dumps(tree.plan)) > 64
    twin = AcTree(g.source, tuple(list(g.offsets)), tuple(list(g.heads)))
    assert twin.offsets is not g.offsets and twin.heads is not g.heads
    assert twin == tree and hash(twin) == hash(tree) and twin.plan == tree.plan


def test_a_dominator_tree_is_its_idom_and_derives_every_other_slot():
    g = gen_random_digraph(200, 600, seed=4)
    t = compute_dominator_tree(g)
    assert DominatorTree._fields == ("idom",) and fields(t) == (t.idom,)
    assert set(DominatorTree.__slots__) == {"idom", *DERIVED[DominatorTree]}
    assert t.__reduce__() == (DominatorTree, (t.idom,))
    twin = DominatorTree(tuple(list(t.idom)))
    assert twin.idom is not t.idom
    assert twin == t and hash(twin) == hash(t)
    for name in DERIVED[DominatorTree]:
        assert getattr(twin, name) == getattr(t, name)
    with pytest.raises(TypeError):
        DominatorTree(t.idom, t.children, t.order, t.dfs_in, t.dfs_out)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_survive_pickle_and_copy(cls):
    record = records()[cls]
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls", (Graph, AcTree, DominatorTree, SptCheck),
                         ids=lambda c: c.__name__)
def test_a_record_that_hashes_is_its_own_copy(cls):
    """A record cannot change, and neither can a field that hashes, so a
    copy, shallow or deep, is the record itself: a tree is not rebuilt."""
    record = records()[cls]
    assert copy.copy(record) is record
    assert copy.deepcopy(record) is record


def test_a_deep_copy_rebuilds_a_record_that_holds_a_dict():
    stats = records()[SearchStats]
    assert copy.copy(stats) is stats
    clone = copy.deepcopy(stats)
    assert type(clone) is SearchStats and clone == stats
    assert clone.component_sizes == stats.component_sizes
    assert clone.component_sizes is not stats.component_sizes
    result = records()[ShortestPathResult]
    clone = copy.deepcopy(result)
    assert clone == result and clone.stats is not result.stats
    assert clone.stats.component_sizes is not result.stats.component_sizes


def test_records_are_built_from_all_their_fields_in_order():
    with pytest.raises(TypeError, match="SptCheck takes the fields: violations"):
        SptCheck(True, ())
    with pytest.raises(TypeError):
        SearchStats()
    stats = SearchStats(3, 2, 1, {1: 2})
    assert (stats.pops, stats.key_decreases, stats.max_queue_len) == (3, 2, 1)
    assert repr(stats) == (
        "SearchStats(pops=3, key_decreases=2, max_queue_len=1, component_sizes={1: 2})"
    )
    assert repr(SptCheck(())) == "SptCheck(ok=True, violations=())"
    assert repr(SptCheck(("x",))) == "SptCheck(ok=False, violations=('x',))"


def test_an_sptcheck_is_its_violations():
    assert SptCheck._fields == ("violations",)
    assert SptCheck(()) and SptCheck(()).ok
    assert not SptCheck(("x",)) and not SptCheck(("x",)).ok
    assert SptCheck(()).__reduce__() == (SptCheck, ((),))


def test_graph_repr_is_bounded():
    g = gen_random_digraph(1 << 14, 1 << 15, seed=3)
    assert g.arc_count == 1 << 15
    text = repr(g)
    assert text == "Graph(node_count=16384, source=0, arc_count=32768)"
    assert len(text) < 200


def test_dominator_tree_repr_is_bounded():
    lengths = []
    for log2n in (4, 14):
        n = 1 << log2n
        t = compute_dominator_tree(gen_random_digraph(n, 4 * n, seed=log2n))
        text = repr(t)
        assert text == f"DominatorTree(node_count={n}, root=0)"
        lengths.append(len(text))
    assert lengths[1] - lengths[0] == 3  # the node count's digits alone
    assert repr(DominatorTree((1, 1, 0))) == "DominatorTree(node_count=3, root=1)"

"""End-to-end CLI behaviour through subprocess, exit codes included."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actree
from actree import cli, serialize_edge_list
from random_graphs import (
    block_chain,
    gen_complete,
    gen_layered,
    gen_random_dag,
    gen_random_digraph,
    ladder,
    nested_chain,
)

DIAMOND = "4 4 0\n0 1 1\n0 2 4\n1 3 2\n2 3 1\n"

# The CLI runs the package these tests import, installed or not.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(actree.__file__).parent.parent), os.environ.get("PYTHONPATH")])
))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "actree", *args], capture_output=True, text=True, env=ENV
    )


def test_decompose_single_node(tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("1 0 0\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"components":{},"width":1,"idom":[0]}'


def test_decompose_layered_width(tmp_path):
    path = tmp_path / "layered.edges"
    path.write_text(serialize_edge_list(gen_layered(2, seed=0)))
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["width"] == 2
    assert set(doc["components"]) == {"0"}


def test_decompose_includes_idom(tmp_path):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)
    proc = run_cli("decompose", str(path))
    doc = json.loads(proc.stdout)
    assert doc["idom"] == [0, 0, 0, 0]
    # every output is JSON already, so there is no --json flag
    assert run_cli("decompose", str(path), "--json").returncode == 2


# sha256 of ``actree decompose``'s output, recorded before components were
# derived from the plan; the corpus is built lazily, one graph per case.
DECOMPOSE_CORPUS = {
    "irreducible": lambda: "3 4 0\n0 1\n0 2\n1 2\n2 1\n",
    "nested_chain": lambda: nested_chain(1 << 10),
    "block_chain": lambda: block_chain(1 << 10, 12),
    "ladder": lambda: ladder(64),
    **{f"digraph-{s}": lambda s=s: gen_random_digraph(64, 256, s) for s in range(5)},
    **{f"dag-{s}": lambda s=s: gen_random_dag(64, 256, s) for s in range(5)},
}
DECOMPOSE_SHA256 = {
    "irreducible": "f0851fc46e7ee6b8eb5409154bc99c77844a3f249dbb397489561d2ee38304ca",
    "nested_chain": "3deedaca0dbfd9b530ddd642ab73eef190dbaefcacc39ce314637d6d27ee32c0",
    "block_chain": "8bf3b763c7be161af53a100c3e8d3029ca7b9e735a68df15b291bcd6b1da20cf",
    "ladder": "98431236dcfa01e758b63d669e2aadd5659b6cb6d041479136ab0dbfb1be2e15",
    "digraph-0": "35b7646709a81c286288a1f91942d0d06e88c60c6464aa1a0e44685dd7a0c5ff",
    "digraph-1": "f184d8e91d97c71135515b51e3f51bdb7641a7e1d7a2da1111d875b0bdc0d712",
    "digraph-2": "0c0b9ac6eca034e1857e1c5f2342b5625c97f12173386f6f41a9ed8b64bd280d",
    "digraph-3": "98bc19fba6e1c4afbb7be6a2a35cf959dc7ab77254198dcaae1a12d4a3a25cd9",
    "digraph-4": "7d8e2f93b317764009f1f9148ae0b99ded8f343610b6e295b010cdeb62ca7452",
    "dag-0": "95244a9ca64f0397333f9157c7a9cbda269b687271699a821189b413d949db83",
    "dag-1": "be81d8827016b14b642790f321283da39a4eceaad515992a29806aedf9512bbd",
    "dag-2": "c658d57464761aa7991b35b47c2613fd94ca0e918da836f7a28a0538646341fb",
    "dag-3": "9de977feed8279bf7f5770896921f0a71294adfa34881456b5b2a945f4c18982",
    "dag-4": "fa1e9e08925213fafba8f21c7f29c2d81ab1afbb6eeadede55951664d1239c52",
}


@pytest.mark.parametrize("name", DECOMPOSE_SHA256)
def test_decompose_output_is_pinned(tmp_path, capsys, name):
    g = DECOMPOSE_CORPUS[name]()
    path = tmp_path / f"{name}.edges"
    path.write_text(g if isinstance(g, str) else serialize_edge_list(g))
    assert cli.main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_SHA256[name]


def test_decompose_malformed_exits_2(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("4 4 0\n0 1 1\nnot an arc\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_decompose_prunes_with_warning(tmp_path):
    path = tmp_path / "unreachable.edges"
    path.write_text("3 1 0\n0 1 1\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 0
    assert "unreachable" in proc.stderr and "2" in proc.stderr
    assert json.loads(proc.stdout)["width"] == 2


# node 1 is unreachable: the output keeps the input's ids, with null for it
PRUNED = {"pruned.edges": "4 2 0\n0 2 1\n2 3 1\n", "pruned.gr": "p sp 4 2\na 1 3 1\na 3 4 1\n"}
# the warning names the dropped node as the file does: DIMACS ids count from 1
DROPPED = {"pruned.edges": "1", "pruned.gr": "2"}


@pytest.mark.parametrize("name", PRUNED)
def test_decompose_prints_input_ids_after_pruning(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(PRUNED[name])
    assert cli.main(["decompose", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == f"warning: dropped 1 unreachable node: {DROPPED[name]}\n"
    assert out == '{"components":{"0":[[2]],"2":[[3]]},"width":2,"idom":[0,null,0,2]}\n'


@pytest.mark.parametrize("algo", ["dijkstra", "recursive"])
@pytest.mark.parametrize("name", PRUNED)
def test_sssp_prints_input_ids_after_pruning(tmp_path, capsys, name, algo):
    path = tmp_path / name
    path.write_text(PRUNED[name])
    assert cli.main(["sssp", str(path), "--algo", algo, "--verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dist"] == [0.0, None, 1.0, 2.0]
    assert doc["parent"] == [None, None, 0, 2]
    assert doc["stats"]["pops"] == 3


@pytest.mark.parametrize("name, text, source, warning", [
    ("two.edges", "5 2 0\n0 2 1\n2 4 1\n", [], "dropped 2 unreachable nodes: 1 3"),
    ("two.gr", "p sp 5 2\na 1 3 1\na 3 5 1\n", [], "dropped 2 unreachable nodes: 2 4"),
    ("source.gr", "p sp 3 1\na 2 3 1\n", ["--source", "2"], "dropped 1 unreachable node: 1"),
])
def test_prune_warning_names_dropped_nodes_by_the_files_ids(
    tmp_path, capsys, name, text, source, warning
):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["sssp", str(path), *source]) == 0
    assert capsys.readouterr().err == f"warning: {warning}\n"


def test_missing_file_exits_2():
    proc = run_cli("decompose", "/no/such/file.edges")
    assert proc.returncode == 2


def test_non_utf8_input_exits_2(tmp_path):
    path = tmp_path / "bin.edges"
    path.write_bytes(b"\xff\xfe\x00bin")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: not UTF-8 text\n"


def test_unexpected_exception_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)

    def fail(g):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_ac_tree", fail)
    assert cli.main(["decompose", str(path)]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "name, header",
    [
        ("huge.edges", "10000000000000000000 0 0"),
        ("huge.gr", "p sp 10000000000000000000 0"),
    ],
)
def test_node_count_too_large_to_allocate_exits_2(tmp_path, name, header):
    path = tmp_path / name
    path.write_text(header + "\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: line 1: node count 10000000000000000000 is too large to allocate\n"
    )


def test_negative_weight_exits_3(tmp_path):
    path = tmp_path / "neg.edges"
    path.write_text("2 1 0\n0 1 -3\n")
    proc = run_cli("sssp", str(path))
    assert proc.returncode == 3


@pytest.mark.parametrize("algo", ["dijkstra", "recursive"])
def test_overflowing_distance_exits_3_naming_the_node(tmp_path, algo):
    path = tmp_path / "big.edges"
    path.write_text("3 2 0\n0 1 1e308\n1 2 1e308\n")
    proc = run_cli("sssp", str(path), "--algo", algo)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: the distance of node 2 overflows")


def test_sssp_recursive_verify(tmp_path):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)
    proc = run_cli("sssp", str(path), "--algo", "recursive", "--verify")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dist"] == [0.0, 1.0, 4.0, 3.0]
    assert doc["parent"][0] is None
    assert doc["stats"]["pops"] == 4


def test_sssp_engines_agree(tmp_path):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)
    by_algo = {}
    for algo in ("dijkstra", "recursive"):
        proc = run_cli("sssp", str(path), "--algo", algo)
        assert proc.returncode == 0
        by_algo[algo] = json.loads(proc.stdout)["dist"]
    assert by_algo["dijkstra"] == by_algo["recursive"]


def test_sssp_algo_dag_is_a_usage_error(tmp_path):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)
    proc = run_cli("sssp", str(path), "--algo", "dag")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: actree sssp")
    assert "argument --algo: invalid choice: 'dag'" in proc.stderr


def test_width_fixtures(tmp_path):
    layered = tmp_path / "l.edges"
    layered.write_text(serialize_edge_list(gen_layered(3, seed=1)))
    assert run_cli("width", str(layered)).stdout.strip() == "2"

    complete = tmp_path / "k3.edges"
    complete.write_text(serialize_edge_list(gen_complete(3)))
    proc = run_cli("width", str(complete), "--exact")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"

    one = tmp_path / "one.edges"
    one.write_text("1 0 0\n")
    assert run_cli("width", str(one)).stdout.strip() == "1"


def test_width_exact_guard(tmp_path):
    path = tmp_path / "big.edges"
    path.write_text(serialize_edge_list(gen_complete(13)))
    proc = run_cli("width", str(path), "--exact")
    assert proc.returncode == 2


def test_dimacs_autodetect(tmp_path):
    path = tmp_path / "g.gr"
    path.write_text("c tiny\np sp 2 1\na 1 2 7\n")
    proc = run_cli("sssp", str(path), "--algo", "dijkstra")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dist"] == [0.0, 7.0]


@pytest.mark.parametrize("command, source", [("sssp", "3"), ("width", "99"), ("sssp", "0")])
def test_source_on_edge_list_input_is_a_usage_error(tmp_path, command, source):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)
    proc = run_cli(command, str(path), "--source", source)
    assert proc.returncode == 2
    assert "--source applies to DIMACS input only" in proc.stderr
    assert proc.stdout == ""


def test_dimacs_source_zero_is_not_the_default(tmp_path):
    path = tmp_path / "g.gr"
    path.write_text("p sp 2 1\na 1 2 7\n")
    proc = run_cli("sssp", str(path), "--source", "0")
    assert proc.returncode == 2
    assert "source 0 out of range" in proc.stderr
    proc = run_cli("sssp", str(path), "--source", "1", "--algo", "dijkstra")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dist"] == [0.0, 7.0]

"""End-to-end CLI behaviour through subprocess, exit codes included."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from actree import cli, gen_complete, gen_layered, serialize_edge_list

DIAMOND = "4 4 0\n0 1 1\n0 2 4\n1 3 2\n2 3 1\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "actree", *args], capture_output=True, text=True
    )


def test_decompose_single_node(tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("1 0 0\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"components":{},"width":1}'


def test_decompose_layered_width(tmp_path):
    path = tmp_path / "layered.edges"
    path.write_text(serialize_edge_list(gen_layered(2, seed=0)))
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["width"] == 2
    assert set(doc["components"]) == {"0"}


def test_decompose_json_includes_idom(tmp_path):
    path = tmp_path / "d.edges"
    path.write_text(DIAMOND)
    proc = run_cli("decompose", str(path), "--json")
    doc = json.loads(proc.stdout)
    assert doc["idom"] == [0, 0, 0, 0]


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

"""Quick checks of the benchmark itself, on graphs shrunk 64-fold.

Every workload run happens in a fresh process, as in real use: a run
re-imports ``actree``, which must not disturb the test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from checks import failures
from workloads import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUICK = ["--shrink", "6"]


@lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 0, attempt: int = 0):
    """(human-readable lines, final JSON) of one quick run; ``attempt`` forces a rerun."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *QUICK],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("inputs_sha256 "))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(workload, trace, section):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 11
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
    if trace == 0:
        tail_line = next(line for line in lines if line.split()[:1] == ["op_tail_s"])
        assert " of N=" in tail_line


COUNTS = ["ac_tree.width", "ac_tree.components", "ac_tree.singleton_frac", "sssp.pops",
          "sssp.key_decreases", "sssp.decrease_ratio", "sssp.max_queue_len"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_inputs_repeat_for_a_seed(workload):
    lines_a, a = bench(workload, 1)
    lines_b, b = bench(workload, 1, attempt=1)
    assert digest(lines_a) == digest(lines_b)
    assert {k: a["metrics"][k] for k in COUNTS} == {k: b["metrics"][k] for k in COUNTS}
    lines_c, _ = bench(workload, 1, seed=1)
    assert digest(lines_c) != digest(lines_a)


def test_invariants_hold_on_the_quick_runs():
    dag = bench("dag-solve", 1)[1]["metrics"]
    assert dag["ac_tree.width"]["value"] == 2
    assert dag["ac_tree.singleton_frac"]["value"] == 1.0
    chain = bench("chain-reweight", 1)[1]["metrics"]
    assert chain["ac_tree.width"]["value"] <= 9
    for workload in WORKLOADS:
        m = bench(workload, 1)[1]["metrics"]
        assert m["sssp.max_queue_len"]["value"] <= m["ac_tree.width"]["value"] - 1


CORRUPT = """
import json, sys, types
sys.path[:0] = sys.argv[1:3]
from workloads import Bench

def corrupt(op, r):
    if op != 1:
        return r
    return types.SimpleNamespace(dist=r.dist[:-1] + (r.dist[-1] + 1.0,), stats=r.stats)

rep = Bench("dag-solve", 0, False, shrink=6, mutate=corrupt).run()
print(json.dumps({"attempted": rep.attempted, "failed": rep.failed, "reasons": rep.reasons}))
"""


def test_a_corrupted_distance_counts_as_a_failure():
    out = subprocess.run(
        [sys.executable, "-c", CORRUPT, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 1
    assert result["attempted"] >= 11
    assert result["reasons"] == ["op 1: dist differs from the heapq oracle"]


def test_the_oracle_check_reports_each_broken_invariant():
    stats = SimpleNamespace(pops=3, key_decreases=2, max_queue_len=1)
    right = SimpleNamespace(dist=(0.0, 1.0, 2.0), stats=stats)
    assert failures(right, True, [0, 1, 2], [0.0, 1.0, 2.0], 2, 2, (2, 2)) == []
    wrong = SimpleNamespace(dist=(0.0, 1.0, 2.5), stats=stats)
    assert failures(wrong, False, [0, 2, 1], [0.0, 1.0, 2.0], 1, 2, (3, 9)) == [
        "verify_spt rejected the result",
        "prune_unreachable renumbered a fully reachable graph",
        "dist differs from the heapq oracle",
        "key_decreases 2 > e 1",
        "width 2 outside [3, 9]",
    ]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(20)]) == (9.0, 50)
    assert tail([float(i) for i in range(43)]) == (32.0, 76)
    assert tail([float(i) for i in range(11)]) == (0.0, 9)
    assert tail([1.0, 2.0]) == (2.0, 100)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60, check=False,
    )
    assert out.returncode != 0
    assert out.stdout == ""

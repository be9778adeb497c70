"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each traced run already compares its traced pass with an untraced pass
over the same operations (c* values, CSV digests, fitted speeds) and
counts any difference as a failure; these tests run it twice per
workload and also require every exact count to repeat across runs.
About a minute on two cores, most of it the nonlocal simulation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import EXACT, OUT, WORKLOADS  # noqa: E402

SEED = 7


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def traced_run(workload: str) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{SEED}-trace1.json").read_text())
    return result, record["details"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_untraced_and_exact_counts_repeat(workload):
    first, details = traced_run(workload)
    second, _ = traced_run(workload)
    assert first["correct"] and first["failed"] == 0, details
    assert details["outputs_compared"] >= 1
    assert details["output_mismatches"] == 0
    assert details["unrepeated_exact"] == []
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

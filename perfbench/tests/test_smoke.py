"""Self-test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from oracle import Oracle  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    *_, detail_line, result_line = out.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    detail = json.loads(detail_line.split(" ", 1)[1])
    assert detail["stamp"]["seed"] == 7 and detail["stamp"]["nproc"] >= 1
    assert set(detail["stamp"]["cases"]) == set(detail["cases"])
    if trace == "1":
        assert detail["absent"] == [] and detail["counts_repeat"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "verify_dense", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_seed_fixes_the_inputs():
    def argvs(seed):
        return [c.argv for c in run.build_cases("verify_dense", random.Random(seed), False)]
    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)


def test_oracle_rejects_a_wrong_summary():
    oracle = Oracle(2_000)
    case = SimpleNamespace(theorem="T4", lo=3, hi=2_000, log_samples=None, out=None,
                           violations=None)
    lhs, rhs, slack = oracle.lhs_rhs("T4_lower_upsilon", checks.sample_points(3, 2_000, None))
    i = int(slack.argmin())
    head = "T4_lower_upsilon [3..2000] exhaustive: checked 1998\n"
    good = head + f"all hold; min slack {slack[i]:.12g} at n={i + 3}\n"
    assert checks.check_verify(oracle, case, good, 0, None, random.Random(1)) == []
    wrong_argmin = head + f"all hold; min slack {slack[i + 1]:.12g} at n={i + 4}\n"
    assert checks.check_verify(oracle, case, wrong_argmin, 0, None, random.Random(1))
    wrong_slack = head + f"all hold; min slack {slack[i] * (1 + 1e-6):.12g} at n={i + 3}\n"
    assert checks.check_verify(oracle, case, wrong_slack, 0, None, random.Random(1))
    assert checks.check_verify(oracle, case, good, 1, None, random.Random(1))

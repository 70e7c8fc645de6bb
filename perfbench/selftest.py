"""Small-scale self-test of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

It runs every workload at a small input scale, checks that each metric
BENCHMARK.json declares is produced with its declared unit, and checks
that damaged outputs are counted as failed operations.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = "0.02"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_produced(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_without_the_program_no_result_and_nonzero_exit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("train-narrow", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fixture_matches_the_test_suite_generator():
    conftest = ROOT / "tests" / "conftest.py"
    if not conftest.is_file():
        pytest.skip("tests/conftest.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("suite_conftest", conftest)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for seed in (0, workloads.FIXTURE_SEED):
        assert module.synth_rows(workloads.FIXTURE_SARCASM, workloads.FIXTURE_SENTIMENT, seed) == (
            workloads.synth_rows(workloads.FIXTURE_SARCASM, workloads.FIXTURE_SENTIMENT, seed)
        )


@pytest.fixture()
def chain(tmp_path):
    """One checked iteration of chain-fixture at small scale."""
    plan = workloads.WORKLOADS["chain-fixture"](tmp_path, 3, 0.02)
    ops, reference = harness.Ops(), {}
    harness._loop(plan, tmp_path, set(tmp_path.rglob("*")), 0.0, ops, reference, traced=False)
    assert ops.failures == []
    return plan, reference


def _failures_after(plan, tmp_path, reference=None) -> list[str]:
    ops = harness.Ops()
    harness._verify(plan, tmp_path, ops, {} if reference is None else dict(reference))
    return ops.failures


def test_changed_prediction_label_is_counted(chain, tmp_path):
    plan, _ = chain
    predictions = plan.scored[0].predictions
    lines = predictions.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["label"] = "NEU" if first["label"] != "NEU" else "POS"
    predictions.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
    failures = _failures_after(plan, tmp_path)
    assert any(f.startswith("report matches predictions") for f in failures), failures


@pytest.mark.parametrize("cut", ["mid-line", "whole-line"])
def test_truncated_jsonl_is_counted(chain, tmp_path, cut):
    plan, _ = chain
    path = plan.stages["segmented"]
    text = path.read_text(encoding="utf-8")
    last = text.rstrip("\n").rfind("\n")
    path.write_text(text[: last + 20] if cut == "mid-line" else text[: last + 1], encoding="utf-8")
    failures = _failures_after(plan, tmp_path)
    assert any(f.startswith("desegment restores") for f in failures), failures


def test_digest_change_between_iterations_is_counted(chain, tmp_path):
    plan, reference = chain
    assert _failures_after(plan, tmp_path, reference) == []
    with open(plan.stages["normalized"], "a", encoding="utf-8") as fh:
        fh.write("\n")
    failures = _failures_after(plan, tmp_path, reference)
    assert any(f.startswith("digests agree") for f in failures), failures

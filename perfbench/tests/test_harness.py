"""Runs are deterministic per seed, report exactly the declared metrics, and
refuse to run without the package."""

import json
import os
import shutil
import subprocess
import sys

import pytest
from lcapa import objective, training, wmmse

from perfbench import workloads
from perfbench.harness import measure
from perfbench.workloads import BaselineK16, InferK4, Outcome, TrainK4

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _tiny(name, tmp_path):
    if name == "train-k4":
        return TrainK4(hidden=8, num_train=32, num_eval=8, num_test=8, epochs=2,
                       batch=16, scored=4, workdir=str(tmp_path))
    if name == "baseline-k16":
        return BaselineK16(pool=3, scored=2)
    return InferK4(hidden=8, pool=5, scored=3, calibration=2)


def _run(name, tmp_path, seed, trace):
    result, _ = measure(_tiny(name, tmp_path), seed, 0.0, trace, setup_repeats=1,
                        max_units=3 if name != "train-k4" else 1)
    return result


@pytest.mark.parametrize("name", ["train-k4", "baseline-k16", "infer-k4"])
def test_result_object_reports_exactly_the_declared_metrics(name, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = _run(name, tmp_path, 5, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)


@pytest.mark.parametrize("name", ["train-k4", "baseline-k16"])
def test_one_seed_repeats_bit_identically(name, tmp_path):
    plain = [_run(name, tmp_path, 5, False)["metrics"]["sum_se"]["value"] for _ in range(2)]
    assert plain[0] == plain[1]
    traced = [_run(name, tmp_path, 5, True)["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items()
               if k.endswith(".calls") or k in ("wmmse.iterations", "training.skipped_batches")}
              for m in traced]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    # Another workload seed gives other inputs.
    assert _run(name, tmp_path, 6, False)["metrics"]["sum_se"]["value"] != plain[0]


def test_baseline_reporting_the_se_of_over_budget_weights_is_incorrect(tmp_path, monkeypatch):
    def doubled(weights, powers, budget):
        return 2.0 * objective.project_weights(weights, powers, budget)

    monkeypatch.setattr(wmmse, "project_weights", doubled)
    result = _run("baseline-k16", tmp_path, 5, False)
    assert result["correct"] is False


def test_train_reporting_the_se_of_over_budget_weights_is_incorrect(tmp_path, monkeypatch):
    exact = training.exact_policy_se

    def doubled(policy, pool, budget, user_apertures, noise_vars):
        # The SE of the policy's weights scaled by 2 after projection.
        return exact(policy, pool, 4.0 * budget, user_apertures, noise_vars)

    monkeypatch.setattr(training, "exact_policy_se", doubled)
    result = _run("train-k4", tmp_path, 5, False)
    assert result["correct"] is False


def test_outcome_keeps_every_segment_past_its_capacity(monkeypatch):
    monkeypatch.setattr(workloads, "SEGMENT_CAPACITY", 2)
    out = Outcome()
    for i in range(5):
        out.add(float(i), i + 0.5, unit=i != 3)
    assert out.starts.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert out.seconds.tolist() == [0.5] * 5
    assert out.is_unit.tolist() == [True, True, True, False, True]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer-k4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

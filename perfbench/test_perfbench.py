"""Tests of the benchmark itself: small-grid smoke runs and failure counting.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import json
from pathlib import Path

import pytest

import hepeval.losses
import hepeval.metrics
import harness

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# A 2x coarser grid keeps the same physical phantoms; 4x for the loss pair.
SCALE = {"eval_liver": 2, "eval_htree": 2, "loss_train": 4}


def run(tmp_path, workload, trace=False, seed=0):
    result, record = harness.run_benchmark(
        workload, seed, 0.0, trace, tmp_path, scale=SCALE[workload]
    )
    json.dumps(result)  # the result line must be plain JSON
    return result, record


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", sorted(SCALE))
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, workload):
    result, record = run(tmp_path, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] == 2  # the warm-up op and one timed op
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not any((tmp_path / ".perfbench_work").iterdir())  # inputs removed


@pytest.mark.parametrize("workload", sorted(SCALE))
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    result, record = run(tmp_path, workload, trace=True)
    assert result["correct"], record["failures"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer")
    assert (tmp_path / ".perfbench_out" / f"{workload}-seed0-trace1-spans.jsonl").stat().st_size > 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "loss_train":
        assert values["losses.combined_loss.calls"] == 1.0
        assert values["morphology.tape_bytes"] > 0
        assert values["losses.cl_dice_loss.peak_mb"] > 0
        assert values["cli.main.calls"] == 0.0
    else:
        assert values["cli.main.calls"] == 1.0
        assert values["metrics.evaluate_case.peak_mb"] > 0
        assert values["nifti.read_nifti.calls"] == 2.0
        assert values["losses.combined_loss.calls"] == 0.0
        # pool_array is imported into vessel; the rebinding must reach it
        assert values["morphology.pool_array.calls"] > 0


def test_seeds_give_different_inputs(tmp_path):
    a = run(tmp_path, "eval_htree", seed=1)[1]["inputs"]
    b = run(tmp_path, "eval_htree", seed=2)[1]["inputs"]
    assert a != b


def test_wrong_dsc_is_a_failed_op(tmp_path, monkeypatch):
    real = hepeval.metrics.dsc
    monkeypatch.setattr(hepeval.metrics, "dsc", lambda a, b: real(a, b) * 0.99)
    result, record = run(tmp_path, "eval_htree")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert any("dsc[" in f for f in record["failures"])


def test_perturbed_gradient_is_a_failed_op(tmp_path, monkeypatch):
    real = hepeval.losses.combined_loss

    def perturbed(*args, **kwargs):
        r = real(*args, **kwargs)
        return hepeval.losses.GradedScalar(r.value, r.gradient * 1.01)

    monkeypatch.setattr(hepeval.losses, "combined_loss", perturbed)
    result, record = run(tmp_path, "loss_train")
    # the warm-up op calls cl_dice_loss, which is untouched
    assert result["failed"] == 1 and result["attempted"] == 2
    assert all(f.startswith("op 0: gradient") for f in record["failures"])

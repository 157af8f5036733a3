"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins the thread count and imports threebody4d from src/)
import spans  # noqa: E402
from threebody4d import dynamics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_its_unit(capsys, workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        res = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                      "--trace", str(trace))
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {name: m["unit"] for name, m in res["metrics"].items()} \
            == {m["name"]: m["unit"] for m in listed}


def test_workload_names_and_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} \
        == {name: wl.why for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    cls = WORKLOADS[workload]
    first, again, other = (pickle.dumps(cls(seed).inputs) for seed in (7, 7, 8))
    assert first == again
    assert first != other


def test_wrong_field_drives_failures(capsys, monkeypatch):
    orig = dynamics.partial_field

    def perturbed(masses):
        """The partial field, pushed off the invariant set wherever q1 > 0."""
        vf = orig(masses)
        return dynamics.VectorField(
            vf.dimension, lambda t, z: vf.evaluate(t, z) + (1e-6 if z[0] > 0 else 0.0),
            vf.name)

    monkeypatch.setattr(dynamics, "partial_field", perturbed)
    for trace in (0, 1):
        res = _result(capsys, "--workload", "invariant-ensemble", "--seed", "3",
                      "--seconds", "1", "--trace", str(trace))
        assert not res["correct"]
        assert 0 < res["failed"] < res["attempted"]
        metrics = {k: m["value"] for k, m in res["metrics"].items()}
        fail_frac = 1.0 - metrics["ok_frac"] if trace == 0 else metrics["check.fail_frac"]
        assert fail_frac == pytest.approx(res["failed"] / res["attempted"])


def _traced_counts(workload, items):
    wl = WORKLOADS[workload](5)
    plain, traced, tr = run.paired_loop(wl, items)
    assert plain.failed == traced.failed == 0
    metrics = spans.layer_metrics(tr, items, sum(traced.latencies), traced.rows)
    return {k: metrics[k] for k in ("dynamics.rhs_evals_per_step",
                                    "dynamics.rhs_evals_per_item",
                                    "dynamics.steps_per_item")}


@pytest.mark.parametrize("workload", ["invariant-ensemble", "compare-full-reduced"])
def test_dopri_takes_seven_evaluations_per_attempted_step(workload):
    counts = _traced_counts(workload, 2)
    assert counts["dynamics.rhs_evals_per_step"] == 7.0
    assert counts == _traced_counts(workload, 2)

"""Smoke tests of the benchmark at reduced size.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import math

import pytest

import make_references
import run
import speed
import workloads

SMALL_CURVE_CONFIG = {"cycles": 2, "t_max": 1.0, "t_points": 2}


@pytest.fixture(scope="module")
def small_curve() -> dict:
    return {"name": "small-curve", "kind": "curve", "config": SMALL_CURVE_CONFIG,
            "references": make_references.references(SMALL_CURVE_CONFIG)}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def _declared(kind: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _csv(references: dict) -> str:
    columns = list(references)
    rows = ["T," + ",".join(columns)]
    for i, (t, _) in enumerate(references[columns[0]]):
        values = [t] + [math.exp(-references[c][i][1]) for c in columns]
        rows.append(",".join(f"{v:.17g}" for v in values))
    return "\n".join(rows) + "\n"


def test_timed_run_emits_every_end_to_end_metric_and_counts_a_bad_reference(
        small_curve, out_dir):
    perturbed = copy.deepcopy(small_curve)
    perturbed["references"]["P_udd"][1][1] *= 1.0 + 1e-5
    result = run.measure(perturbed, seed=3, seconds=0.0, trace=False)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    gauge, unscaled = result["env"]["speed_gauge_s"], result["env"]["unscaled"]
    for name in ("setup_s", "wall_s", "cpu_s"):
        assert metrics[name]["value"] == pytest.approx(
            unscaled[name] * speed.scale(gauge[name]))
    assert workloads.op_count(perturbed) == 4
    assert run.failed_ops(perturbed, result["passes"]) == 1


@pytest.mark.parametrize("kind", ["curve", "oracle"])
def test_traced_run_emits_every_per_layer_metric(kind, small_curve, out_dir):
    workload = small_curve if kind == "curve" else {
        "name": "small-oracle", "kind": "oracle", "cases": workloads.ORACLE_CASES[:1]}
    result = run.measure(workload, seed=0, seconds=0.0, trace=True)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert run.failed_ops(workload, result["passes"]) == 0
    if kind == "curve":
        # 2 schemes x 2 points, 6 x 2 + 1 boundaries per schedule
        assert metrics["schedules.calls"]["value"] == 4
        assert metrics["kernel.phasors"]["value"] == 13 * metrics["kernel.nodes"]["value"]
    else:
        assert metrics["fock_oracle.expm_dim_max"]["value"] == 25  # one fock_dim-25 mode
    assert metrics["trace.coverage"]["value"] > 0.5
    assert list(out_dir.glob("spans-*.json"))


def test_curve_failures_flags_each_bad_value(small_curve):
    references = small_curve["references"]
    good = _csv(references)
    assert workloads.curve_failures(0, good, references) == [False] * 4
    assert workloads.curve_failures(3, good, references) == [True] * 4

    lines = good.splitlines()
    t, pdd, udd = lines[2].split(",")
    for bad in ("nan", "1.5", "0", "garbage"):
        text = "\n".join(lines[:2] + [f"{t},{pdd},{bad}"]) + "\n"
        assert workloads.curve_failures(0, text, references) == [False, False, False, True]
    truncated = "\n".join(lines[:2]) + "\n"
    assert workloads.curve_failures(0, truncated, references) == [False, True, False, True]

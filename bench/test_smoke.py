"""Smoke test of the benchmark itself (``pytest bench/``; not in tier-1).

Runs every workload once, small, through the driver contract and checks
that each emits every named metric with its unit, fails no operation and
that the per-layer self times tile the traced wall clock.  Also pins
``BENCHMARK.json`` to the in-code metric tables.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import END_TO_END, PER_LAYER, UNIVERSAL  # noqa: E402
from run import WORKLOADS  # noqa: E402

SCALE = "0.05"


def contract_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--scale", SCALE, "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = contract_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(UNIVERSAL)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name][0]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_tile_the_wall_clock(workload):
    result = contract_run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        name: unit for name, unit, *_ in PER_LAYER
    }
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["trace.unresolved"]["value"] == 0


def test_manifest_matches_the_metric_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert manifest["end_to_end"] == [
        {
            "name": name,
            "unit": END_TO_END[name][0],
            "better": END_TO_END[name][1],
            "bound": END_TO_END[name][2],
        }
        for name in UNIVERSAL
    ]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: exit non-zero, print no result."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "esp_dyn",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

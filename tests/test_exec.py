"""Tests for the process-pool experiment engine (``repro.exec``)."""

import os

import pytest

from repro.exec import ExecProgress, map_specs, resolve_workers
from repro.obs.registry import MetricsRegistry


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("spec 3 exploded")
    return x


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) == len(os.sched_getaffinity(0))

    def test_zero_counts_only_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(0) == 1

    def test_zero_without_affinity_counts_every_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(0) == 8

    def test_positive_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(-2)


class TestMapSpecsSerial:
    def test_results_in_spec_order(self):
        assert map_specs(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_specs(self):
        assert map_specs(_square, []) == []

    def test_serial_allows_closures(self):
        # the serial path never pickles, so local callables are fine
        seen = []
        assert map_specs(lambda x: seen.append(x) or x, [1, 2]) == [1, 2]
        assert seen == [1, 2]

    def test_exception_propagates(self):
        with pytest.raises(RuntimeError, match="spec 3 exploded"):
            map_specs(_fail_on_three, [1, 2, 3, 4])


class TestMapSpecsParallel:
    def test_results_in_spec_order(self):
        assert map_specs(_square, [5, 3, 1, 4], workers=2) == [25, 9, 1, 16]

    def test_matches_serial(self):
        specs = list(range(17))
        assert map_specs(_square, specs, workers=3) == map_specs(_square, specs)

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="spec 3 exploded"):
            map_specs(_fail_on_three, [1, 2, 3, 4], workers=2)

    def test_single_spec_stays_in_process(self):
        # len(specs) <= 1 short-circuits to the serial path even with workers
        seen = []
        assert map_specs(lambda x: seen.append(x) or -x, [9], workers=4) == [-9]
        assert seen == [9]


class TestProgress:
    def _gauges(self, registry, label):
        return {
            name: registry.gauge(f"repro_exec_{name}", "", {"label": label}).value
            for name in (
                "specs_total", "specs_completed", "workers",
                "elapsed_seconds", "eta_seconds",
            )
        }

    def test_gauges_track_completion(self):
        registry = MetricsRegistry()
        map_specs(_square, [1, 2, 3], telemetry=registry, label="unit")
        gauges = self._gauges(registry, "unit")
        assert gauges["specs_total"] == 3
        assert gauges["specs_completed"] == 3
        assert gauges["workers"] == 1
        assert gauges["eta_seconds"] == 0.0

    def test_accepts_telemetry_facade(self):
        from repro.obs import Telemetry

        telemetry = Telemetry(sample_interval=None)
        map_specs(_square, [1, 2], telemetry=telemetry, label="facade")
        total = telemetry.registry.gauge(
            "repro_exec_specs_total", "", {"label": "facade"}
        )
        assert total.value == 2

    def test_advance_updates_eta(self):
        registry = MetricsRegistry()
        progress = ExecProgress(registry, "eta", total=4, workers=1)
        progress.advance()
        assert progress.completed == 1
        eta = registry.gauge("repro_exec_eta_seconds", "", {"label": "eta"})
        assert eta.value >= 0.0

"""Tests for the experiment harness (tables/figures reproduce paper shape).

The full ESP runs are cached per session (run_esp_configuration_cached), so
the cost is four ~0.5s simulations for this whole module.
"""

import pytest

from repro.experiments.configs import (
    all_configurations,
    configuration,
    dynamic_target_config,
)
from repro.experiments.fig7 import run_fig7, run_quadflow_case
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig12 import measure_overhead, setup_overhead_scenario
from repro.experiments.runner import run_esp_configuration_cached
from repro.experiments.table1 import render_table1, table1_rows
from repro.experiments.table2 import render_table2, run_table2
from repro.apps.quadflow import CYLINDER, FLAT_PLATE

SEED = 2014


@pytest.fixture(scope="module")
def results():
    return {c.name: run_esp_configuration_cached(c.name, seed=SEED) for c in all_configurations()}


class TestTable1:
    def test_rows_complete(self):
        rows = table1_rows()
        assert len(rows) == 14
        assert sum(r["count"] for r in rows) == 230

    def test_model_det_close_to_paper(self):
        for row in table1_rows():
            if row["paper_det_s"] is None:
                continue
            # the linear model reproduces the paper's DET within 2%
            assert row["model_det_s"] == pytest.approx(row["paper_det_s"], rel=0.02)

    def test_render_contains_all_types(self):
        text = render_table1()
        for letter in "ABCDEFGHIJKLMZ":
            assert f"\n{letter} " in text or text.startswith(f"{letter} ")


class TestTable2Shape:
    """The paper's qualitative results (Table II orderings)."""

    def test_static_satisfies_nothing(self, results):
        assert results["Static"].metrics.satisfied_dyn_jobs == 0

    def test_dynamic_configs_satisfy_requests(self, results):
        for name in ("Dyn-HP", "Dyn-500", "Dyn-600"):
            assert results[name].metrics.satisfied_dyn_jobs > 0

    def test_dyn_hp_fastest_and_static_slowest(self, results):
        times = {n: r.metrics.workload_time for n, r in results.items()}
        assert times["Dyn-HP"] < times["Static"]
        assert times["Dyn-500"] < times["Static"]
        assert times["Dyn-600"] < times["Static"]
        assert times["Dyn-HP"] <= times["Dyn-600"] <= times["Dyn-500"]

    def test_utilization_ordering(self, results):
        utils = {n: r.metrics.utilization for n, r in results.items()}
        assert utils["Static"] < utils["Dyn-500"] <= utils["Dyn-600"] <= utils["Dyn-HP"]

    def test_throughput_increase_positive(self, results):
        base = results["Static"]
        for name in ("Dyn-HP", "Dyn-500", "Dyn-600"):
            assert results[name].metrics.throughput_increase_vs(base.metrics) > 0

    def test_dyn_hp_satisfied_matches_paper(self, results):
        # with the default seed the count lands exactly on the paper's 43/69
        assert results["Dyn-HP"].metrics.satisfied_dyn_jobs == 43

    def test_fairness_rejections_only_under_dfs(self, results):
        assert results["Dyn-HP"].scheduler_stats["dyn_rejected_fairness"] == 0
        assert results["Dyn-500"].scheduler_stats["dyn_rejected_fairness"] > 0

    def test_restrictive_policy_grants_fewer(self, results):
        assert (
            results["Dyn-500"].metrics.satisfied_dyn_jobs
            < results["Dyn-HP"].metrics.satisfied_dyn_jobs
        )

    def test_render_table2(self, results):
        text = render_table2(list(results.values()))
        assert "Dyn-HP" in text and "paper" in text

    def test_run_table2_order(self):
        rows = run_table2(seed=SEED)
        assert [r.name for r in rows] == ["Static", "Dyn-HP", "Dyn-500", "Dyn-600"]


class TestFig7Shape:
    def test_savings_match_paper(self):
        flat = run_quadflow_case(FLAT_PLATE, dynamic=True, start_nodes=2)
        flat16 = run_quadflow_case(FLAT_PLATE, dynamic=False, start_nodes=2)
        saving = (flat16.total - flat.total) / flat16.total
        assert saving == pytest.approx(0.17, abs=0.01)

        cyl = run_quadflow_case(CYLINDER, dynamic=True, start_nodes=2)
        cyl16 = run_quadflow_case(CYLINDER, dynamic=False, start_nodes=2)
        saving = (cyl16.total - cyl.total) / cyl16.total
        assert saving == pytest.approx(0.333, abs=0.01)

    def test_six_bars(self):
        runs = run_fig7()
        assert len(runs) == 6
        labels = {(r.case, r.label) for r in runs}
        assert ("Cylinder", "dynamic") in labels

    def test_time_to_final_adaptation_identical(self):
        s16 = run_quadflow_case(CYLINDER, dynamic=False, start_nodes=2)
        s32 = run_quadflow_case(CYLINDER, dynamic=False, start_nodes=4)
        assert sum(s16.phase_times[:-1]) == pytest.approx(sum(s32.phase_times[:-1]))


class TestFig8Shape:
    def test_band_of_delayed_jobs_exists(self):
        _, rows = run_fig8(seed=SEED)
        delayed = [
            r
            for r in rows
            if r["Static"] is not None
            and r["Dyn-HP"] is not None
            and r["Dyn-HP"] > r["Static"] + 1.0
        ]
        improved = [
            r
            for r in rows
            if r["Static"] is not None
            and r["Dyn-HP"] is not None
            and r["Dyn-HP"] < r["Static"] - 1.0
        ]
        # the paper's signature: some jobs pay, many gain
        assert len(delayed) > 10
        assert len(improved) > len(delayed)

    def test_rows_cover_all_jobs(self):
        _, rows = run_fig8(seed=SEED)
        assert len(rows) == 230


class TestFig9Shape:
    def test_type_l_fairness_recovery(self):
        _, rows = run_fig9(seed=SEED)
        assert len(rows) == 36  # all type-L jobs
        # mean type-L wait under the restrictive policy is no worse than HP
        import statistics

        hp = statistics.mean(r["Dyn-HP"] for r in rows)
        dyn500 = statistics.mean(r["Dyn-500"] for r in rows)
        assert dyn500 <= hp * 1.05


class TestFig12:
    def test_overhead_positive_and_small(self):
        seconds = measure_overhead(5, loaded=False)
        assert 0.0 < seconds < 1.0  # sub-second, as in the paper

    def test_loaded_scenario_has_queue(self):
        probe = setup_overhead_scenario(loaded=True)
        assert len(probe.system.server.queue) == 10

    def test_grant_size_matches_request(self):
        probe = setup_overhead_scenario(loaded=False)
        probe.request(3)
        assert probe.grant.total_cores == 24

    def test_loaded_costs_more_than_empty(self):
        empty = min(measure_overhead(5, loaded=False) for _ in range(3))
        loaded = min(measure_overhead(5, loaded=True) for _ in range(3))
        assert loaded > empty


class TestConfigHelpers:
    def test_dynamic_target_config(self):
        config = dynamic_target_config(500.0)
        assert config.dfs.default_user.target_delay_time == 500.0
        assert config.reservation_depth == 5

    def test_paper_references_attached(self):
        for cfg in all_configurations():
            assert "time_min" in cfg.paper_reference

    def test_unknown_configuration_names_the_four(self):
        with pytest.raises(ValueError) as info:
            configuration("nope")
        message = str(info.value)
        assert "'nope'" in message
        for name in ("Static", "Dyn-HP", "Dyn-500", "Dyn-600"):
            assert name in message

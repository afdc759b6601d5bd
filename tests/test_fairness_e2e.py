"""End-to-end fairness tests: class/QoS limits, delay permission and the
wait-fairness index across the paper's configurations."""

import pytest

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility
from repro.maui.config import DFSConfig, DFSPolicy, MauiConfig, PrincipalLimits
from repro.obs.fairness import jain_index
from repro.system import BatchSystem


def veto_scenario(config: MauiConfig, victim_kwargs: dict) -> tuple:
    """Evolving job whose grant would delay the victim by ~1700s."""
    system = BatchSystem(2, 8, config)
    evo = Job(
        request=ResourceRequest(cores=4),
        walltime=2000.0,
        user="evo",
        flexibility=JobFlexibility.EVOLVING,
        evolution=EvolutionProfile.single(0.16, ResourceRequest(cores=4)),
    )
    system.submit(evo, EvolvingWorkApp(1000.0))
    system.submit(
        Job(request=ResourceRequest(cores=8), walltime=300.0, user="runner"),
        FixedRuntimeApp(300.0),
    )
    victim = Job(
        request=ResourceRequest(cores=12), walltime=100.0, **victim_kwargs
    )
    system.submit(victim, FixedRuntimeApp(100.0))
    system.run(until=250.0)
    return system, evo


class TestClassAndQosLimits:
    def test_class_limit_vetoes_grant(self):
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                classes={"debug": PrincipalLimits(target_delay_time=1.0)},
            )
        )
        _, evo = veto_scenario(config, dict(user="victim", job_class="debug"))
        assert evo.dyn_granted == 0

    def test_other_class_unaffected(self):
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                classes={"debug": PrincipalLimits(target_delay_time=1.0)},
            )
        )
        _, evo = veto_scenario(config, dict(user="victim", job_class="batch"))
        assert evo.dyn_granted == 1

    def test_qos_perm_veto(self):
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                qos={"realtime": PrincipalLimits(dyn_delay_perm=False)},
            )
        )
        _, evo = veto_scenario(config, dict(user="victim", qos="realtime"))
        assert evo.dyn_granted == 0

    def test_account_limit(self):
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.SINGLE_JOB_DELAY,
                accounts={"proj42": PrincipalLimits(single_delay_time=10.0)},
            )
        )
        _, evo = veto_scenario(config, dict(user="victim", account="proj42"))
        assert evo.dyn_granted == 0


class TestWaitFairnessIndex:
    def test_uniform_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_index([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_empty_is_one(self):
        assert jain_index([]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([-1.0])

    def test_esp_fairness_ordering(self):
        """DFS restores per-user wait uniformity relative to Dyn-HP.

        The quantitative counterpart of Figs. 9-11: Jain's index over
        per-user mean waits must not degrade when the fairness policy is on.
        """
        from repro.experiments.runner import run_esp_configuration_cached

        index = {
            name: run_esp_configuration_cached(name, seed=2014).metrics.wait_fairness_index
            for name in ("Static", "Dyn-HP", "Dyn-500")
        }
        assert 0.0 < index["Dyn-HP"] <= 1.0
        assert index["Dyn-500"] >= index["Dyn-HP"] * 0.98

    def test_metrics_per_user_means(self):
        system = BatchSystem(1, 8, MauiConfig())
        a = system.submit(
            Job(request=ResourceRequest(cores=8), walltime=100.0, user="a"),
            FixedRuntimeApp(100.0),
        )
        b = system.submit(
            Job(request=ResourceRequest(cores=8), walltime=100.0, user="b"),
            FixedRuntimeApp(100.0),
        )
        system.run()
        means = system.metrics().mean_wait_by_user()
        assert means == {"a": 0.0, "b": 100.0}

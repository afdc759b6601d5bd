"""Property-based end-to-end tests: random workloads, random configurations.

Hypothesis drives small randomized workloads through randomly drawn
scheduler configurations; every run must drain completely, leave a
consistent trace, and conserve resources.  These are the tests most likely
to find scheduler corner cases no hand-written scenario covers.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp, MalleableWorkApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility
from repro.maui.config import DFSConfig, DFSPolicy, MauiConfig, PrincipalLimits
from repro.metrics.validate import validate_trace
from repro.system import BatchSystem

# --- strategies -------------------------------------------------------

job_descriptions = st.lists(
    st.tuples(
        st.sampled_from(["rigid", "evolving", "malleable", "negotiating"]),
        st.integers(min_value=1, max_value=16),    # cores
        st.floats(min_value=10.0, max_value=600.0),  # runtime
        st.floats(min_value=0.0, max_value=300.0),   # submit time
        st.integers(min_value=0, max_value=3),       # user index
    ),
    min_size=1,
    max_size=14,
)

configs = st.builds(
    MauiConfig,
    reservation_depth=st.integers(min_value=0, max_value=4),
    reservation_delay_depth=st.integers(min_value=0, max_value=6),
    dynamic_enabled=st.booleans(),
    backfill_enabled=st.booleans(),
    preemption_for_dynamic=st.booleans(),
    malleable_steal_for_dynamic=st.booleans(),
    dynamic_request_order=st.sampled_from(["fifo", "fairshare", "smallest_first"]),
    dfs=st.builds(
        DFSConfig,
        policy=st.sampled_from(list(DFSPolicy)),
        interval=st.floats(min_value=60.0, max_value=3600.0),
        decay=st.floats(min_value=0.0, max_value=1.0),
        default_user=st.builds(
            PrincipalLimits,
            dyn_delay_perm=st.booleans(),
            target_delay_time=st.sampled_from([float("inf"), 50.0, 500.0]),
            single_delay_time=st.sampled_from([float("inf"), 50.0, 500.0]),
        ),
    ),
)


def build_job(kind, cores, runtime, user_idx):
    user = f"pu{user_idx}"
    if kind == "rigid":
        job = Job(
            request=ResourceRequest(cores=cores), walltime=runtime * 1.1 + 1, user=user
        )
        return job, FixedRuntimeApp(runtime)
    if kind == "malleable":
        job = Job(
            request=ResourceRequest(cores=cores),
            # worst case: shrunk to 1 core the whole run
            walltime=runtime * cores + 1,
            user=user,
            flexibility=JobFlexibility.MALLEABLE,
        )
        return job, MalleableWorkApp(runtime, min_cores=1)
    evolution = EvolutionProfile.single(
        0.2, ResourceRequest(cores=2), () if kind == "negotiating" else (0.5,)
    )
    job = Job(
        request=ResourceRequest(cores=cores),
        walltime=runtime * 1.1 + 1,
        user=user,
        flexibility=JobFlexibility.EVOLVING,
        evolution=evolution,
    )
    timeout = 120.0 if kind == "negotiating" else None
    return job, EvolvingWorkApp(runtime, negotiation_timeout=timeout)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(jobs=job_descriptions, config=configs)
def test_property_any_config_drains_cleanly(jobs, config):
    system = BatchSystem(3, 8, config)
    submitted = []
    for kind, cores, runtime, submit_at, user_idx in jobs:
        cores = min(cores, 24)
        job, app = build_job(kind, cores, runtime, user_idx)
        if submit_at <= 0:
            system.submit(job, app)
        else:
            system.submit_at(submit_at, job, app)
        submitted.append(job)
    system.run(max_events=100_000)

    # conservation and lifecycle invariants
    assert system.cluster.used_cores == 0
    assert len(system.server.queue) == 0
    assert len(system.server.dyn_queue) == 0
    assert [system.cluster.node_free[n.index] for n in system.cluster.nodes] == [
        n.cores for n in system.cluster.nodes
    ]
    for job in submitted:
        assert job.is_finished, f"{job.job_id} stuck in {job.state}"
    assert validate_trace(system.trace, system.cluster) == []


@settings(max_examples=20, deadline=None)
@given(
    jobs=job_descriptions,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_runs_are_deterministic(jobs, seed):
    """Identical inputs produce identical traces, event for event."""
    outcomes = []
    for _ in range(2):
        system = BatchSystem(3, 8, MauiConfig(reservation_depth=2))
        for kind, cores, runtime, submit_at, user_idx in jobs:
            job, app = build_job(kind, min(cores, 24), runtime, user_idx)
            system.submit_at(max(0.001, submit_at), job, app)
        system.run(max_events=100_000)
        outcomes.append([(e.time, e.kind.value) for e in system.trace])
    assert outcomes[0] == outcomes[1]

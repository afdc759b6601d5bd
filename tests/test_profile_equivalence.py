"""Randomized equivalence oracle: vectorized kernel vs reference profile.

The vectorized matrix kernel in :mod:`repro.cluster.profile` must be
*byte-identical* to the retained list-of-vectors implementation in
``tests/reference_profile.py`` — same breakpoints, same free
vectors, same fit decisions, same ``(start, allocation)`` pairs, and the
same exceptions on the same inputs (including the atomicity of rejected
mutations).  This suite drives both implementations through thousands of
randomized interleaved operation sequences — including node fail/recover
churn, which the profile sees as infinite-horizon claims and their later
releases — and compares them after every single step.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.profile import AvailabilityProfile, NoFitError
from tests.reference_profile import ReferenceAvailabilityProfile

# 4 x 300 parametrized batches = 1200 randomized operation sequences
BATCHES = 4
SEQUENCES_PER_BATCH = 300
OPS_PER_SEQUENCE = 18


def assert_profiles_equal(new: AvailabilityProfile,
                          ref: ReferenceAvailabilityProfile) -> None:
    assert new.breakpoints == ref.breakpoints
    for t in ref.breakpoints:
        assert new.free_at(t) == ref.free_at(t)


def random_request(rng: random.Random, num_nodes: int,
                   cores_per_node: int) -> ResourceRequest:
    if rng.random() < 0.4:  # shaped: nodes=N:ppn=P
        return ResourceRequest(
            nodes=rng.randint(1, num_nodes + 1),  # +1: sometimes impossible
            ppn=rng.randint(1, cores_per_node),
        )
    return ResourceRequest(cores=rng.randint(1, num_nodes * cores_per_node + 4))


def nearby_requests(rng: random.Random, request: ResourceRequest,
                    duration: float) -> list[tuple[ResourceRequest, float]]:
    """A handful of ``(request, duration)`` pairs around a probed one: a
    core, a node or a ppn either way, the other kind at the same size, and
    half, the same, double or unbounded time."""
    if request.is_shaped:
        n, p = request.nodes, request.ppn
        sizes = [
            ResourceRequest(nodes=n + dn, ppn=p + dp)
            for dn, dp in ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1))
            if n + dn > 0 and p + dp > 0
        ] + [ResourceRequest(cores=n * p)]
    else:
        c = request.cores
        sizes = [ResourceRequest(cores=k) for k in (c - 1, c + 1) if k > 0]
        sizes.append(ResourceRequest(nodes=1, ppn=c))
    durations = (duration / 2, duration, duration * 2, math.inf)
    return [(rng.choice(sizes), rng.choice(durations)) for _ in range(4)]


def random_allocation(rng: random.Random, nodes: list[int],
                      cores_per_node: int) -> Allocation:
    picked = rng.sample(nodes, rng.randint(1, len(nodes)))
    return Allocation({n: rng.randint(1, cores_per_node) for n in picked})


def random_duration(rng: random.Random) -> float:
    if rng.random() < 0.1:
        return math.inf
    return rng.choice([1.0, 7.0, 25.0, 60.0, 240.0])


def fail_node_op(rng, new, ref, now, horizon, downed, nodes) -> None:
    """Take one node DOWN inside the profile horizon.

    A failed node is, from the profile's point of view, exactly a claim of
    its remaining free cores until infinity — that is how the scheduler's
    plans see a node that left: zero availability from the failure on.
    """
    candidates = [n for n in nodes if n not in downed]
    if not candidates:
        return
    node = rng.choice(candidates)
    t = now + rng.uniform(0, horizon)
    probe_times = [bp for bp in new.breakpoints if bp >= t] + [t]
    cores = min(new.free_at(x)[node] for x in probe_times)
    if cores <= 0:
        return  # nothing claimable: the node is already fully busy somewhere
    new.add_claim(t, math.inf, Allocation({node: cores}))
    ref.add_claim(t, math.inf, Allocation({node: cores}))
    downed[node] = (t, cores)


def recover_node_op(rng, new, ref, horizon, downed) -> None:
    """Bring a DOWN node back: release what the failure claimed.

    Unrelated release ops may have raised the node's free level since the
    failure, so the recovery can exceed capacity — in which case both
    implementations must reject it identically (and the node stays down).
    """
    if not downed:
        return
    node = rng.choice(sorted(downed))
    t_fail, cores = downed.pop(node)
    t = t_fail + rng.uniform(0, horizon)
    err_new = err_ref = None
    try:
        new.add_release(t, Allocation({node: cores}))
    except ValueError as e:
        err_new = str(e)
    try:
        ref.add_release(t, Allocation({node: cores}))
    except ValueError as e:
        err_ref = str(e)
    assert err_new == err_ref


def run_sequence(rng: random.Random) -> None:
    num_nodes = rng.randint(1, 8)
    cores_per_node = rng.randint(1, 16)
    # non-contiguous, shuffled node indices exercise the column mapping
    nodes = rng.sample(range(100), num_nodes)
    now = rng.choice([0.0, 5.5, 1000.0])
    free = {n: rng.randint(0, cores_per_node) for n in nodes}
    capacity = (
        {n: cores_per_node for n in nodes} if rng.random() < 0.7 else None
    )
    new = AvailabilityProfile(nodes, free, now, capacity)
    ref = ReferenceAvailabilityProfile(nodes, free, now, capacity)
    assert_profiles_equal(new, ref)

    #: nodes currently DOWN in this sequence: node -> (fail time, cores)
    downed: dict[int, tuple[float, int]] = {}
    horizon = 300.0
    probed: float | None = None  # the instant of the last fits_at op
    for _ in range(OPS_PER_SEQUENCE):
        op = rng.random()
        if op < 0.26:  # claim (exercises both success and rollback paths)
            start = now + rng.uniform(0, horizon)
            end = math.inf if rng.random() < 0.1 else start + random_duration(rng)
            alloc = random_allocation(rng, nodes, cores_per_node)
            err_new = err_ref = None
            try:
                new.add_claim(start, end, alloc)
            except ValueError as e:
                err_new = str(e)
            try:
                ref.add_claim(start, end, alloc)
            except ValueError as e:
                err_ref = str(e)
            assert err_new == err_ref
        elif op < 0.44:  # release (exercises the atomic capacity check)
            t = now + rng.uniform(0, horizon)
            alloc = random_allocation(rng, nodes, cores_per_node)
            err_new = err_ref = None
            try:
                new.add_release(t, alloc)
            except ValueError as e:
                err_new = str(e)
            try:
                ref.add_release(t, alloc)
            except ValueError as e:
                err_ref = str(e)
            assert err_new == err_ref
        elif op < 0.62:  # fits_at
            # half the probes return to the last instant probed, so failures
            # recorded there meet the claims, releases, rejected claims,
            # advances and copies made since
            if probed is None or probed < now or rng.random() < 0.5:
                probed = now + rng.uniform(0, horizon)
            start = probed
            duration = random_duration(rng)
            request = random_request(rng, num_nodes, cores_per_node)
            got = new.fits_at(start, duration, request)
            assert got == ref.fits_at(start, duration, request)
            # the backfill screen is a pure short-circuit: whatever it
            # rejects — the probe itself or a request near it — fits_at
            # would have refused anyway
            for req, dur in [(request, duration),
                             *nearby_requests(rng, request, duration)]:
                if new.quick_reject(start, req, dur):
                    assert ref.fits_at(start, dur, req) is None
        elif op < 0.80:  # earliest_fit
            duration = random_duration(rng)
            request = random_request(rng, num_nodes, cores_per_node)
            after = (
                None if rng.random() < 0.3 else now + rng.uniform(0, horizon)
            )
            got_new = got_ref = None
            try:
                got_new = new.earliest_fit(request, duration, after=after)
            except NoFitError:
                pass
            try:
                got_ref = ref.earliest_fit(request, duration, after=after)
            except NoFitError:
                pass
            assert got_new == got_ref
            # can_ever_fit False promises earliest_fit raises for any duration
            if not new.can_ever_fit(request):
                assert got_new is None
        elif op < 0.86:  # node failure: churn nodes out of the profile
            fail_node_op(rng, new, ref, now, horizon, downed, nodes)
        elif op < 0.93:  # node recovery: churn them back in
            recover_node_op(rng, new, ref, horizon, downed)
        elif op < 0.97:  # advance: clip history, every later query unchanged
            t = now + rng.uniform(0, horizon / 4)
            survivors = [bp for bp in ref.breakpoints if bp >= t]
            expected = {bp: ref.free_at(bp) for bp in survivors}
            expected_at_t = ref.free_at(t)
            new.advance_to(t)
            ref.advance_to(t)
            now = t  # later ops must respect the new profile start
            assert new.breakpoints[0] == t
            assert new.free_at(t) == expected_at_t
            for bp in survivors:
                assert new.free_at(bp) == expected[bp]
        else:  # copy: keep working on the clones, originals must not move
            before = (new.breakpoints, {t: new.free_at(t) for t in new.breakpoints})
            new2, ref2 = new.copy(), ref.copy()
            alloc = random_allocation(rng, nodes, cores_per_node)
            t = now + rng.uniform(0, horizon)
            try:
                new2.add_release(t, alloc)
            except ValueError:
                pass
            assert new.breakpoints == before[0]
            assert {t: new.free_at(t) for t in new.breakpoints} == before[1]
            new, ref = new2, ref2
            try:
                ref.add_release(t, alloc)
            except ValueError:
                pass
        assert_profiles_equal(new, ref)


@pytest.mark.parametrize("batch", range(BATCHES))
def test_randomized_operation_sequences(batch):
    """>=1000 random op sequences: every step identical to the oracle."""
    rng = random.Random(0xE5B + batch)
    for _ in range(SEQUENCES_PER_BATCH):
        run_sequence(rng)


def test_failed_claim_is_atomic():
    """A rejected claim leaves free counts untouched (no partial subtraction).

    Breakpoint *insertions* from the failed attempt may remain (they are
    semantically neutral, exactly as under the historic rollback path); the
    free-core step function itself must not move.
    """
    probes = [0.0, 5.0, 9.9, 10.0, 14.9, 15.0, 19.9, 20.0, 99.0]
    profile = AvailabilityProfile([0, 1], {0: 4, 1: 4}, 0.0, {0: 4, 1: 4})
    profile.add_claim(10.0, 20.0, Allocation({0: 3}))  # only 1 free on node 0
    before = [profile.free_at(t) for t in probes]
    with pytest.raises(ValueError, match="oversubscribes"):
        profile.add_claim(5.0, 15.0, Allocation({0: 2, 1: 1}))
    assert [profile.free_at(t) for t in probes] == before


def test_failed_release_is_atomic():
    """A release above capacity is rejected before any interval is touched."""
    profile = AvailabilityProfile([0, 1], {0: 2, 1: 4}, 0.0, {0: 4, 1: 4})
    profile.add_claim(10.0, 20.0, Allocation({1: 4}))
    before = {t: profile.free_at(t) for t in profile.breakpoints}
    # freeing 3 on node 0 exceeds its capacity of 4 from t=0 on
    with pytest.raises(ValueError, match="exceeds node capacity"):
        profile.add_release(0.0, Allocation({0: 3, 1: 2}))
    assert {t: profile.free_at(t) for t in profile.breakpoints} == before


def test_advance_preserves_queries_and_rejects_past():
    profile = AvailabilityProfile([0, 1], {0: 4, 1: 4}, 0.0, {0: 4, 1: 4})
    profile.add_claim(10.0, 20.0, Allocation({0: 3}))
    fit_before = profile.earliest_fit(ResourceRequest(cores=7), 5.0, after=12.0)
    profile.advance_to(12.0)
    assert profile.breakpoints[0] == 12.0
    assert profile.now == 12.0
    assert profile.free_at(12.0) == {0: 1, 1: 4}
    assert profile.earliest_fit(ResourceRequest(cores=7), 5.0, after=12.0) == fit_before
    with pytest.raises(ValueError, match="precedes profile start"):
        profile.advance_to(5.0)


def test_incremental_scheduler_profile_matches_scratch_rebuild():
    """The scheduler's incremental advance is pinned to the from-scratch
    build: at every advance during a full ESP run, the advanced profile's
    step function (over the union of both breakpoint sets — the advance may
    keep semantically-neutral leftovers) must equal the scratch rebuild's.
    ESP jobs end at their walltime end, which keeps the shard's plan (R7)
    and so needs no advance; the second run over-requests walltime by half,
    so every completion is early and re-plans on an advanced profile.
    """
    from repro.experiments.configs import configuration
    from repro.maui.profiles import ViewProfiles
    from repro.system import BatchSystem
    from repro.workloads.esp import make_esp_workload

    original = ViewProfiles._advance
    advances = 0

    def checked(self, partitions):
        nonlocal advances
        profile = original(self, partitions)
        if profile is not None:
            advances += 1
            scratch = self.build_uncached(partitions)
            assert profile._nodes == scratch._nodes
            for t in sorted(set(profile.breakpoints) | set(scratch.breakpoints)):
                assert profile.free_at(t) == scratch.free_at(t), t
        return profile

    ViewProfiles._advance = checked
    config = configuration("Dyn-HP")
    try:
        for walltime_factor in (1.0, 1.5):
            system = BatchSystem(num_nodes=8, cores_per_node=4, config=config.maui)
            workload = make_esp_workload(
                total_cores=32, dynamic=config.dynamic_workload, seed=2014,
                walltime_factor=walltime_factor,
            )
            workload.submit_to(system)
            system.run(max_events=5_000_000)
            assert system.scheduler.stats["profile_advance_fallbacks"] == 0
    finally:
        ViewProfiles._advance = original
    assert advances > 100


def _same_step_function(got: AvailabilityProfile, expected: AvailabilityProfile):
    assert got.nodes == expected.nodes
    for t in sorted(set(got.breakpoints) | set(expected.breakpoints)):
        assert got.free_at(t) == expected.free_at(t), t


@pytest.mark.parametrize(
    "shards, dynamic_nodes, walltime_factor",
    [(1, 0, 1.0), (2, 0, 1.0), (1, 3, 1.0), (2, 0, 1.5)],
)
def test_delay_measurement_plans_on_the_static_partition_view(
    shards, dynamic_nodes, walltime_factor, monkeypatch
):
    """The delay measurement plans on the merge of the shard bases (at one
    shard, on the base itself): at every measurement of an ESP Dyn-HP run
    it must have the node order and the step function of a from-scratch
    build over the static partitions — with two shards, behind a
    dynamic partition, and with early completions (walltime over-requested
    by half)."""
    import dataclasses

    from repro.cluster.machine import Cluster
    from repro.experiments.configs import configuration
    from repro.maui.partition import static_partitions
    from repro.maui.profiles import ViewProfiles
    from repro.system import BatchSystem
    from repro.workloads.esp import make_esp_workload

    build_static = ViewProfiles.build_static
    measured = 0

    def checked(self):
        nonlocal measured
        measured += 1
        profile = build_static(self)
        _same_step_function(
            profile, self.build_uncached(static_partitions(self.config))
        )
        return profile

    monkeypatch.setattr(ViewProfiles, "build_static", checked)
    config = configuration("Dyn-HP")
    maui = dataclasses.replace(
        config.maui, scheduler_shards=shards,
        use_dynamic_partition=bool(dynamic_nodes),
    )
    cluster = Cluster.homogeneous(15, 8, dynamic_partition_nodes=dynamic_nodes)
    system = BatchSystem(config=maui, cluster=cluster)
    make_esp_workload(
        120, dynamic=config.dynamic_workload, seed=2014,
        walltime_factor=walltime_factor,
    ).submit_to(system)
    system.run(max_events=5_000_000)
    stats = system.scheduler.stats
    assert measured > 10
    assert stats["dyn_granted"] > 0
    assert stats["profile_advance_fallbacks"] == 0


def test_static_view_keeps_node_order_when_partition_names_do_not():
    """Shards are emitted partition by partition in name order; here the
    "dynamic" nodes come first, so the merge must put the columns back in
    node order for the static view to pick as a whole-machine build."""
    from repro.apps.synthetic import FixedRuntimeApp
    from repro.cluster.machine import Cluster
    from repro.cluster.node import Node
    from repro.jobs.job import Job
    from repro.maui.config import MauiConfig
    from repro.system import BatchSystem

    cluster = Cluster(
        [Node(0, 4, partition="dynamic"), Node(1, 4, partition="dynamic"),
         Node(2, 4), Node(3, 4)]
    )
    system = BatchSystem(config=MauiConfig(), cluster=cluster)
    profiles = system.scheduler.profiles
    assert [shard.nodes for shard in profiles.shard_map.shards] == [(2, 3), (0, 1)]
    system.submit(
        Job(request=ResourceRequest(cores=6), walltime=1000.0), FixedRuntimeApp(900.0)
    )
    system.run(until=0.0)
    merged = profiles.build_static()
    _same_step_function(merged, profiles.build_uncached(None))
    request = ResourceRequest(cores=9)
    assert merged.earliest_fit(request, 50.0) == (
        profiles.build_uncached(None).earliest_fit(request, 50.0)
    )


def _based_system():
    """A 4x8 system whose one shard has a base holding one running job."""
    from repro.apps.synthetic import FixedRuntimeApp
    from repro.jobs.job import Job
    from repro.system import BatchSystem

    system = BatchSystem(4, 8)
    running = system.submit(
        Job(request=ResourceRequest(cores=8), walltime=1000.0), FixedRuntimeApp(900.0)
    )
    system.run(until=0.0)
    profiles = system.scheduler.profiles
    shard = profiles.shard_map.shards[0]
    profiles.build(shard)
    return system, profiles, shard, running


def test_a_job_that_starts_and_leaves_between_builds_leaves_nothing_pending():
    from repro.jobs.job import Job

    system, profiles, shard, running = _based_system()
    server = system.server
    base = profiles._bases[shard.index]
    assert set(base.held) == {running.job_id} and not base.pending
    for cores in (4, 8, 16):
        job = server.submit(Job(request=ResourceRequest(cores=cores), walltime=500.0))
        server.start_job(job, Allocation({1: min(cores, 8), 2: max(cores - 8, 0)}))
        assert job.job_id in base.pending
        server.complete_job(job)
        assert job.job_id not in base.pending
    assert not base.pending
    # a job the base holds stays pending until the next advance applies it
    server.complete_job(running)
    assert set(base.pending) == {running.job_id}
    before = dict(system.scheduler.stats)
    _same_step_function(profiles.build(shard), profiles.build_uncached(shard))
    stats = system.scheduler.stats
    assert stats["profile_advances"] == before["profile_advances"] + 1
    assert stats["profile_advance_fallbacks"] == 0
    assert not base.held and not base.pending


def test_reconcile_fails_on_a_node_that_left_up_since_the_base_was_built():
    """A busy node failing reads 0 free on both sides, so only the node
    set tells the advanced base from the cluster: the advance falls back
    to a scratch build over the nodes still UP."""
    system, profiles, shard, running = _based_system()
    (node,) = running.allocation.node_indices
    system.cluster.fail_node(node)  # the caller's requeue is not run here
    before = dict(system.scheduler.stats)
    profile = profiles.build(shard)
    stats = system.scheduler.stats
    assert stats["profile_advance_fallbacks"] == before["profile_advance_fallbacks"] + 1
    assert stats["profile_builds"] == before["profile_builds"] + 1
    assert node not in profile.nodes
    _same_step_function(profile, profiles.build_uncached(shard))


# ----------------------------------------------------------------------
# the first-feasible scan of earliest_fit: directed cases
# ----------------------------------------------------------------------
def _pair(nodes, free, now=0.0, capacity=None):
    return (
        AvailabilityProfile(nodes, free, now, capacity),
        ReferenceAvailabilityProfile(nodes, free, now, capacity),
    )


def _both(new, ref, method, *args):
    getattr(new, method)(*args)
    getattr(ref, method)(*args)


def _ref_earliest_fit(ref, request, duration, after, probe_start):
    """The oracle's answer; ``probe_start=False`` drops the bound itself
    from the candidates (the oracle has no such switch)."""
    if probe_start:
        return ref.earliest_fit(request, duration, after=after)
    lo = ref.breakpoints[0] if after is None else max(after, ref.breakpoints[0])
    for t in ref.breakpoints:
        if t > lo:
            alloc = ref.fits_at(t, duration, request)
            if alloc is not None:
                return t, alloc
    raise NoFitError(str(request))


def _earliest_fit_both(new, ref, request, duration, after=None, probe_start=True):
    """``(start, allocation)`` agreed by kernel and oracle, None = NoFitError."""
    got = expected = None
    try:
        got = new.earliest_fit(request, duration, after=after, probe_start=probe_start)
    except NoFitError:
        pass
    try:
        expected = _ref_earliest_fit(ref, request, duration, after, probe_start)
    except NoFitError:
        pass
    assert got == expected
    return got


def test_scan_skips_instant_feasible_candidate_bitten_inside_its_window():
    """t=10 offers 8 free cores at its own instant, but a claim starting at
    t=15 bites inside a 10 s window there: the scan must move on to t=30."""
    new, ref = _pair([0, 1], {0: 4, 1: 4})
    for args in (
        (0.0, 10.0, Allocation({0: 4})),   # busy now: t=0 is instant-infeasible
        (15.0, 30.0, Allocation({1: 3})),  # the later claim that bites
    ):
        _both(new, ref, "add_claim", *args)
    request = ResourceRequest(cores=8)
    assert new.fits_at(10.0, 5.0, request) is not None  # instant-feasible
    assert new.fits_at(10.0, 10.0, request) is None     # window-infeasible
    got = _earliest_fit_both(new, ref, request, 10.0, after=0.0)
    assert got == (30.0, Allocation({0: 4, 1: 4}))
    # a window that ends before the bite does land on the first candidate
    assert _earliest_fit_both(new, ref, request, 5.0, after=0.0)[0] == 10.0
    for probe_start in (True, False):
        assert _earliest_fit_both(
            new, ref, request, 10.0, after=0.0, probe_start=probe_start
        ) == got


@pytest.mark.parametrize(
    "request_",
    [
        ResourceRequest(cores=9),          # one more than the machine
        ResourceRequest(nodes=3, ppn=1),   # one more node than the machine
        ResourceRequest(nodes=1, ppn=5),   # wider than any node
        ResourceRequest(cores=7),          # fits once the claim ends
        ResourceRequest(nodes=2, ppn=4),   # fits once the claim ends
    ],
)
def test_no_instant_feasible_row_raises_exactly_when_can_ever_fit_is_false(request_):
    new, ref = _pair([3, 7], {3: 4, 7: 4})
    _both(new, ref, "add_claim", 0.0, 50.0, Allocation({3: 2, 7: 1}))
    _both(new, ref, "add_claim", 20.0, 30.0, Allocation({7: 3}))
    for duration in (1.0, 25.0, math.inf):
        for probe_start in (True, False):
            got = _earliest_fit_both(
                new, ref, request_, duration, after=0.0, probe_start=probe_start
            )
            assert (got is None) == (not new.can_ever_fit(request_))


def test_scan_with_infinite_duration_waits_for_the_last_bite():
    """An unbounded window holds every later row: only a start past the
    last claim that bites can win, however early the instant looks fine."""
    new, ref = _pair([0, 1, 2], {0: 2, 1: 2, 2: 2})
    _both(new, ref, "add_claim", 10.0, 20.0, Allocation({0: 2}))
    _both(new, ref, "add_claim", 40.0, 60.0, Allocation({1: 1, 2: 1}))
    flexible = ResourceRequest(cores=5)
    assert _earliest_fit_both(new, ref, flexible, math.inf) == (
        60.0, Allocation({0: 2, 1: 2, 2: 1}),
    )
    shaped = ResourceRequest(nodes=3, ppn=2)
    assert _earliest_fit_both(new, ref, shaped, math.inf, after=5.0)[0] == 60.0
    # a permanent claim leaves no start at all for the full machine ...
    _both(new, ref, "add_claim", 70.0, math.inf, Allocation({2: 1}))
    assert _earliest_fit_both(new, ref, ResourceRequest(cores=6), math.inf) is None
    # ... although a finite window before it still fits
    assert _earliest_fit_both(new, ref, ResourceRequest(cores=6), 5.0) == (
        0.0, Allocation({0: 2, 1: 2, 2: 2}),
    )


def test_scan_picks_the_allocation_of_the_window_minimum_shaped_and_flexible():
    """The allocation comes from the winning window's minimum, not from the
    free vector at its start: shaped takes the emptiest eligible nodes
    (ties by index), flexible fills the fullest nodes first."""
    nodes = [0, 1, 2, 3]
    new, ref = _pair(nodes, {n: 8 for n in nodes})
    _both(new, ref, "add_claim", 0.0, 10.0, Allocation({n: 8 for n in nodes}))
    _both(new, ref, "add_claim", 12.0, 40.0, Allocation({0: 6, 1: 3}))
    _both(new, ref, "add_claim", 14.0, 40.0, Allocation({2: 1}))
    # window [10, 30): minima are {0: 2, 1: 5, 2: 7, 3: 8}
    assert _earliest_fit_both(new, ref, ResourceRequest(nodes=2, ppn=4), 20.0) == (
        10.0, Allocation({2: 4, 3: 4}),
    )
    assert _earliest_fit_both(new, ref, ResourceRequest(cores=9), 20.0) == (
        10.0, Allocation({0: 2, 1: 5, 2: 2}),
    )
    # nodes=3:ppn=6 needs node 1 back: only after the claims end
    assert _earliest_fit_both(new, ref, ResourceRequest(nodes=3, ppn=6), 20.0) == (
        40.0, Allocation({0: 6, 1: 6, 2: 6}),
    )


def test_picked_allocations_are_in_normal_form():
    """The kernel hands its picks to ``Allocation._trusted``: whatever the
    node order and the integer types of the caller's inputs, the result must
    be what the validating constructor would have built."""
    import numpy as np

    nodes = np.array([41, 7, 23])  # numpy ints, not ascending
    free = {41: 4, 7: 2, 23: 4}
    new, ref = _pair(nodes, free)
    for request in (
        ResourceRequest(cores=np.int64(7)),
        ResourceRequest(nodes=np.int64(2), ppn=np.int64(3)),
    ):
        alloc = new.fits_at(0.0, 10.0, request)
        assert alloc == ref.fits_at(0.0, 10.0, request)
        rebuilt = Allocation(dict(alloc.items()))
        assert list(alloc.items()) == list(rebuilt.items())  # same order too
        assert repr(alloc) == repr(rebuilt) and hash(alloc) == hash(rebuilt)
        assert all(
            type(n) is int and type(c) is int and c > 0 for n, c in alloc.items()
        )


def test_scan_bound_strictly_between_breakpoints():
    """``after`` inside an interval: the bound itself is a candidate only
    when ``probe_start`` says so; the breakpoints behind it never are."""
    new, ref = _pair([0, 1], {0: 4, 1: 4})
    _both(new, ref, "add_claim", 0.0, 10.0, Allocation({0: 4, 1: 2}))
    _both(new, ref, "add_claim", 20.0, 30.0, Allocation({0: 4, 1: 4}))
    request = ResourceRequest(cores=6)
    # free 8 over [10, 20): a 4 s window fits at the bound t=13 itself
    assert _earliest_fit_both(new, ref, request, 4.0, after=13.0)[0] == 13.0
    # without the probe the scan starts at the next breakpoint, t=20, which
    # is busy; the first start that works is t=30
    assert _earliest_fit_both(
        new, ref, request, 4.0, after=13.0, probe_start=False
    )[0] == 30.0
    # a window reaching into the claim at t=20 fails at the bound both ways
    for probe_start in (True, False):
        assert _earliest_fit_both(
            new, ref, request, 8.0, after=13.0, probe_start=probe_start
        )[0] == 30.0
    # a bound behind the last breakpoint leaves no candidate but itself
    assert _earliest_fit_both(new, ref, request, 8.0, after=35.0)[0] == 35.0
    assert _earliest_fit_both(
        new, ref, request, 8.0, after=35.0, probe_start=False
    ) is None


def _shard_shaped_pair(rng: random.Random):
    """A profile shaped like the scheduler's traffic: one 16-node shard of
    8-core nodes, running jobs releasing at 8-20 distinct future times."""
    nodes = list(range(16))
    capacity = {n: 8 for n in nodes}
    busy = {n: 0 for n in nodes}
    releases = []
    for _ in range(rng.randint(8, 20)):
        picked = [n for n in rng.sample(nodes, rng.randint(1, 4)) if busy[n] < 8]
        alloc = {n: rng.randint(1, 8 - busy[n]) for n in picked}
        for n, c in alloc.items():
            busy[n] += c
        if alloc:
            releases.append((rng.uniform(1.0, 7200.0), Allocation(alloc)))
    free = {n: 8 - busy[n] for n in nodes}
    new, ref = _pair(nodes, free, 0.0, capacity)
    for t, alloc in releases:
        _both(new, ref, "add_release", t, alloc)
    return new, ref


def _shard_shaped_request(rng: random.Random) -> ResourceRequest:
    if rng.random() < 0.3:
        return ResourceRequest(nodes=rng.randint(1, 17), ppn=rng.randint(1, 8))
    return ResourceRequest(cores=rng.randint(1, 132))


@pytest.mark.parametrize("batch", range(BATCHES))
def test_randomized_reserve_and_claim_rounds_at_shard_shape(batch):
    """The reservation loop of the static pass, at the measured shape: five
    rounds of earliest_fit → claim on a 16-node profile with 8-20
    breakpoints, each answer and each resulting profile equal to the
    oracle's."""
    rng = random.Random(0x5CA + batch)
    for _ in range(150):
        new, ref = _shard_shaped_pair(rng)
        assert_profiles_equal(new, ref)
        for _ in range(5):
            request = _shard_shaped_request(rng)
            duration = (
                math.inf if rng.random() < 0.05
                else rng.choice([60.0, 600.0, 1800.0, 3600.0, 7200.0])
            )
            after = rng.choice([None, 0.0, rng.uniform(0.0, 7200.0)])
            got = _earliest_fit_both(
                new, ref, request, duration, after=after,
                probe_start=rng.random() < 0.5,
            )
            if not new.can_ever_fit(request):
                assert got is None
            if got is None:
                continue
            start, alloc = got
            _both(new, ref, "add_claim", start, start + duration, alloc)
            assert_profiles_equal(new, ref)


# ----------------------------------------------------------------------
# scheduler-level pin: the kernel swap moved no decision and no counter
# ----------------------------------------------------------------------
#: ESP Dyn-HP, seed 2014, 15x8 — recorded at the commit before the
#: first-feasible kernel (sha256 over the per-job
#: ``(submit, start, end, state)`` tuples; the full ``scheduler.stats``
#: dict minus wall-clock ``*_seconds`` entries).  The planning-work counters
#: (``reservations_created``, ``profile_builds``,
#: ``profile_advances``, ``backfill_quick_rejects``,
#: ``shard_passes_skipped``) were re-recorded when shard plans began to
#: outlive their pass — at 2 shards in PR 16, at 1 shard (2842 reservations
#: before) when the one-shard pass became the same walk.  Four work
#: counters were re-recorded again when a pass stopped waking itself
#: (R4-R6; at 1 / 2 shards): ``iterations`` 597 / 629 before - an echo
#: proven a replay is not run; ``iterations_skipped`` 0 / 0 - wakes onto an
#: empty queue now skip (a proven echo is never queued, so it is not a
#: skip); ``profile_advances`` 291 / 377 - a shard whose every job starts
#: into free space builds no profile (``profile_builds`` did not move);
#: ``shard_passes_skipped`` 166 / 723 - the skips it lost were those echo
#: passes.  ``profile_advances`` once more (290 / 375 before) when the
#: per-snapshot profile cache went: its 1 / 4 hits (the deleted
#: ``profile_cache_hits``) are advances by an empty delta now.  Tuple
#: digests and every other stat are the original recording.  The third
#: entry counts ``AvailabilityProfile.fits_at`` calls — window probes the
#: screen let through (7748 / 3142 before the screen recalled failed
#: probes); a change that re-asks an answered question moves it.  The
#: fourth counts ``Prioritizer.priority`` calls: the queue is kept in rank
#: order, which is the priority order of these queue-time weights, so no
#: job is scored (37507 / 36040 when every pass sorted on a float key).
#: Four work counters and the probes re-recorded when a job ending at its
#: walltime end stopped voiding its shard's plan (R7; the values before
#: are in the comments): the plan is replayed up to its last reservation
#: instead of re-placed.  Two work counters once more when the delay
#: measurement began to plan on the merge of the shard bases instead of a
#: static-partition base of its own (the values before are in the
#: comments): one build fewer, and each measurement advances every shard.
_PINNED_ESP_DYN_HP = {
    1: (
        "2e2acf886f803557352fa884bf8b2d5b6c02b94418b89f2b00d08bece4d52c26",
        {
            "iterations": 478, "iterations_skipped": 5,
            "dyn_granted": 43, "dyn_rejected": 63,
            "dyn_rejected_fairness": 0, "dyn_rejected_resources": 63,
            "jobs_started": 166, "jobs_backfilled": 64,
            "reservations_created": 677,  # 1160 before R7
            "preemptions": 0,
            "malleable_shrinks": 0, "jobs_molded": 0, "total_delay_charged": 0.0,
            "profile_builds": 1,  # 2 before the shared bases
            "profile_advances": 165,  # 164 before the shared bases, 291 before R7
            "profile_advance_fallbacks": 0,
            # 8754 before failed probes screened the requests they imply
            "backfill_quick_rejects": 14551,  # 14874 before R7
            "shard_merges": 0,
            "shard_passes_skipped": 56,  # 53 before R7
        },
        799,  # 973 before R7
        0,
    ),
    2: (
        "c648dad6ff40966a0c45d23586d3e55f6ac3d53b837ffb6fa7ba65c12b1d9b4f",
        {
            "iterations": 489, "iterations_skipped": 4,
            "dyn_granted": 49, "dyn_rejected": 51,
            "dyn_rejected_fairness": 0, "dyn_rejected_resources": 51,
            "jobs_started": 83, "jobs_backfilled": 147,
            "reservations_created": 875,  # 1401 before R7
            "preemptions": 0,
            "malleable_shrinks": 0, "jobs_molded": 0, "total_delay_charged": 0.0,
            "profile_builds": 2,  # 3 before the shared bases
            "profile_advances": 294,  # 244 before the shared bases, 379 before R7
            "profile_advance_fallbacks": 0,
            # 7185 before failed probes screened the requests they imply
            "backfill_quick_rejects": 8369,  # 8787 before R7
            "shard_merges": 19,
            "shard_passes_skipped": 456,  # 453 before R7
        },
        654,  # 792 before R7
        0,
    ),
}


@pytest.mark.parametrize("shards", sorted(_PINNED_ESP_DYN_HP))
def test_esp_dyn_hp_schedule_and_counters_pinned(shards, monkeypatch):
    import dataclasses
    import hashlib

    from repro.experiments.configs import configuration
    from repro.maui.priority import Prioritizer
    from repro.system import BatchSystem
    from repro.workloads.esp import make_esp_workload

    config = configuration("Dyn-HP")
    maui = dataclasses.replace(config.maui, scheduler_shards=shards)
    system = BatchSystem(num_nodes=15, cores_per_node=8, config=maui)
    make_esp_workload(
        120, dynamic=config.dynamic_workload, seed=2014
    ).submit_to(system)
    fits_at = AvailabilityProfile.fits_at
    probes = 0

    def counted(self, *args):
        nonlocal probes
        probes += 1
        return fits_at(self, *args)

    monkeypatch.setattr(AvailabilityProfile, "fits_at", counted)
    priority = Prioritizer.priority
    scores = 0

    def scored(self, *args):
        nonlocal scores
        scores += 1
        return priority(self, *args)

    monkeypatch.setattr(Prioritizer, "priority", scored)
    system.run(max_events=5_000_000)
    tuples = [
        (r.submit_time, r.start_time, r.end_time, r.state)
        for r in system.metrics().records
    ]
    stats = {
        k: v for k, v in system.scheduler.stats.items() if not k.endswith("_seconds")
    }
    digest, pinned_stats, pinned_probes, pinned_scores = _PINNED_ESP_DYN_HP[shards]
    assert stats == pinned_stats
    assert probes == pinned_probes
    assert scores == pinned_scores
    assert hashlib.sha256(repr(tuples).encode()).hexdigest() == digest


#: ESP Dyn-HP, seed 2014, 15x8, one shard, windows attached: accounting
#: costs what changed.  The fairshare tracker folds once per change of a
#: job's cores (230 starts + 43 grants + 230 exits; no release) and the
#: server reports the queue depth once per change of it (230 submits + 230
#: starts), however many passes the scheduler runs.
_PINNED_ESP_DYN_HP_ACCOUNTING = {"folds": 503, "depth_reports": 460}


@pytest.mark.parametrize("skip", [True, False], ids=["skip", "always_iterate"])
def test_esp_dyn_hp_accounting_counts_pinned(skip, monkeypatch):
    import dataclasses

    from repro.experiments.configs import configuration
    from repro.maui.priority import FairshareTracker
    from repro.obs import Telemetry
    from repro.obs.windows import WindowedMetrics
    from repro.sim.events import EventKind
    from repro.system import BatchSystem
    from repro.workloads.esp import make_esp_workload

    counts = {"folds": 0, "depth_reports": 0}

    def counting(name, original):
        def wrapper(self, *args):
            counts[name] += 1
            return original(self, *args)
        return wrapper

    monkeypatch.setattr(
        FairshareTracker, "hold", counting("folds", FairshareTracker.hold)
    )
    monkeypatch.setattr(
        WindowedMetrics,
        "observe_queue_depth",
        counting("depth_reports", WindowedMetrics.observe_queue_depth),
    )
    config = configuration("Dyn-HP")
    maui = dataclasses.replace(config.maui, scheduler_shards=1)
    system = BatchSystem(
        num_nodes=15, cores_per_node=8, config=maui,
        telemetry=Telemetry(sample_interval=None, windows=3600.0),
    )
    system.scheduler.iteration_skip_enabled = skip
    make_esp_workload(
        120, dynamic=config.dynamic_workload, seed=2014
    ).submit_to(system)
    system.run(max_events=5_000_000)
    kinds = [(e.kind, e.payload.get("cores")) for e in system.trace]
    starts = sum(k in (EventKind.JOB_START, EventKind.BACKFILL_START) for k, _ in kinds)
    core_changes = starts + sum(
        bool(cores)
        for k, cores in kinds
        if k in (EventKind.DYN_GRANT, EventKind.DYN_RELEASE, EventKind.JOB_END,
                 EventKind.JOB_ABORT, EventKind.PREEMPT)
    )
    depth_changes = starts + sum(
        k is EventKind.JOB_SUBMIT or k is EventKind.PREEMPT
        or (k is EventKind.JOB_ABORT and not cores)
        for k, cores in kinds
    )
    assert counts == {"folds": core_changes, "depth_reports": depth_changes}
    assert counts == _PINNED_ESP_DYN_HP_ACCOUNTING
    assert (system.scheduler.stats["iterations"] > 478) is not skip

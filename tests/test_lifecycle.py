"""The job lifecycle, driven as a state machine.

A Hypothesis ``RuleBasedStateMachine`` plays scheduler, applications and
operator against a bare :class:`~repro.rms.server.Server`: it submits,
starts, completes, aborts, cancels, holds, asks for cores, grants
(sometimes through a dropped first delivery), rejects, preempts, merges,
fails and recovers nodes, lets time pass, folds and discards finished jobs,
and on purpose makes calls the job's state forbids.  After every step the
server, the cluster and the trace must agree.  A rot guard keeps
every ``job.state`` write inside :meth:`Server._move`.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.node import NodeState
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.obs.windows import WindowedMetrics
from repro.rms.client import qalter
from repro.rms.server import Server
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from tests.test_faults import ScriptedFaults

NODES, CORES = 3, 4
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


Q, R, D = JobState.QUEUED, JobState.RUNNING, JobState.DYNQUEUED
ACTIVE = {R, D}
#: the one exit event each terminal state records
EXIT_EVENT = {
    JobState.COMPLETED: EventKind.JOB_END,
    JobState.ABORTED: EventKind.JOB_ABORT,
}
PICK = st.integers(0, 15)

#: calls a job's state forbids: operation -> (states that allow it, call)
ILLEGAL = {
    "start": ({Q}, lambda m, j: m.server.start_job(
        j, m.cluster.find_allocation(j.request) or Allocation({0: 1}))),
    "cancel": ({Q}, lambda m, j: m.server.cancel_queued(j)),
    "hold": ({Q}, lambda m, j: m.server.hold_job(j)),
    "qalter": ({Q}, lambda m, j: qalter(m.server, j, walltime=50.0)),
    "complete": (ACTIVE, lambda m, j: m.server.complete_job(j)),
    "abort": (ACTIVE, lambda m, j: m.server.abort_job(j, "operator")),
    "preempt": (ACTIVE, lambda m, j: m.server.preempt_job(j)),
    "dyn_free": (ACTIVE, lambda m, j: m.server.dyn_free(j, Allocation({0: 1}))),
    "shrink": (ACTIVE, lambda m, j: m.server.request_shrink(j, 1)),
    "merge": (ACTIVE, lambda m, j: m.server.merge_allocations(j, m.parent_for(j))),
    "ask": ({R}, lambda m, j: m.server.dyn_request(
        j, ResourceRequest(cores=1), m.answered.append)),
}


class Lifecycle(RuleBasedStateMachine):
    @initialize()
    def boot(self) -> None:
        self.engine = Engine()
        self.cluster = Cluster.homogeneous(NODES, CORES)
        self.server = Server(self.engine, self.cluster)
        self.faults = ScriptedFaults(drops=(), max_retries=1)
        self.server.attach_faults(self.faults)
        self.answered: list = []
        #: job id -> walltime end at its latest start
        self.started_ends: dict[str, float] = {}

    # -- helpers ---------------------------------------------------------
    def _snapshot(self):
        server = self.server
        return (
            [(j.job_id, j.state, j.allocation, j.hold, j.walltime)
             for j in server.jobs.values()],
            list(self.cluster.node_free),
            self.cluster.used_cores,
            [j.job_id for j in server.queue],
            list(server.dyn_queue),
            dict(server._pending_deliveries),
            len(server.trace),
            dict(server.state_counts),
            server.state_version,
            server.alter_epoch,
            self.engine.pending,
            len(self.answered),
        )

    def _refused(self, call, *args, error=RuntimeError, match=None) -> None:
        before = self._snapshot()
        with pytest.raises(error, match=match):
            call(*args)
        assert self._snapshot() == before

    def _in(self, states, pick: int) -> Job | None:
        jobs = [j for j in self.server.jobs.values() if j.state in states]
        return jobs[pick % len(jobs)] if jobs else None

    def parent_for(self, stub: Job) -> Job:
        # with no other active job, a job that never ran (refused as well)
        others = (j for j in self.server.active_jobs() if j is not stub)
        return next(others, Job(request=ResourceRequest(cores=1), walltime=1.0))

    # -- submission and the static path ----------------------------------
    @rule(
        cores=st.integers(1, CORES + 2),
        walltime=st.sampled_from([30.0, 300.0]),
        start=st.booleans(),
    )
    def submit(self, cores: int, walltime: float, start: bool) -> None:
        job = self.server.submit(Job(
            request=ResourceRequest(cores=cores),
            walltime=walltime,
            flexibility=JobFlexibility.EVOLVING,
        ))
        if start:
            self._start(job, backfilled=False)

    @precondition(lambda self: self.server.queue)
    @rule(pick=PICK, backfilled=st.booleans())
    def start(self, pick: int, backfilled: bool) -> None:
        self._start(self._in({Q}, pick), backfilled)

    def _start(self, job: Job, backfilled: bool) -> None:
        allocation = self.cluster.find_allocation(job.request)
        if allocation is None:
            # no node has these cores free: the failed claim must leave the
            # job queued
            taken = Allocation({0: job.request.cores})
            self._refused(self.server.start_job, job, taken, error=ValueError)
        else:
            self.server.start_job(job, allocation, backfilled=backfilled)
            self.started_ends[job.job_id] = job.walltime_end

    @precondition(lambda self: self.server.queue)
    @rule(pick=PICK, cancel=st.booleans())
    def cancel_hold_or_release(self, pick: int, cancel: bool) -> None:
        job = self._in({Q}, pick)
        if cancel:
            self.server.cancel_queued(job)
        elif job.hold is None:
            self.server.hold_job(job)
        else:
            self.server.release_hold(job)

    @precondition(lambda self: self.server.active_count)
    @rule(pick=PICK, how=st.sampled_from(["complete", "abort", "preempt"]))
    def leave(self, pick: int, how: str) -> None:
        job = self._in(ACTIVE, pick)
        if how == "complete":
            self.server.complete_job(job)
        elif how == "abort":
            self.server.abort_job(job, "operator")
        else:
            self.server.preempt_job(job)

    # -- the dynamic path --------------------------------------------------
    @precondition(lambda self: self.server.active_count)
    @rule(pick=PICK, cores=st.integers(1, CORES))
    def ask(self, pick: int, cores: int) -> None:
        job = self._in({R}, pick)
        if job is None:
            return
        self.server.dyn_request(job, ResourceRequest(cores=cores), self.answered.append)

    @precondition(lambda self: self.server.dyn_queue)
    @rule(pick=PICK, drop=st.booleans())
    def grant(self, pick: int, drop: bool) -> None:
        dreq = self.server.dyn_queue[pick % len(self.server.dyn_queue)]
        allocation = self.cluster.find_allocation(dreq.request)
        if allocation is None:
            return
        self.faults.drops = {1} if drop else set()
        self.server.grant_dynamic(dreq, allocation)

    @precondition(lambda self: self.server.dyn_queue)
    @rule(pick=PICK)
    def reject(self, pick: int) -> None:
        dreq = self.server.dyn_queue[pick % len(self.server.dyn_queue)]
        self.server.reject_dynamic(dreq, "no")
        self._refused(self.server.reject_dynamic, dreq)
        self._refused(self.server.grant_dynamic, dreq, Allocation({0: 1}))

    @precondition(lambda self: self.server.active_count >= 2)
    @rule(pick=PICK, into=PICK)
    def merge(self, pick: int, into: int) -> None:
        # a helper with a request pending is the case worth merging most
        stub = self._in({D}, pick) or self._in(ACTIVE, pick)
        parents = [j for j in self.server.active_jobs() if j is not stub]
        self.server.merge_allocations(stub, parents[into % len(parents)])

    @precondition(lambda self: self.server.jobs)
    @rule(pick=PICK, op=st.sampled_from(sorted(ILLEGAL)))
    def illegal_call(self, pick: int, op: str) -> None:
        allowed, call = ILLEGAL[op]
        job = self._in(set(JobState) - allowed, pick)
        if job is not None:
            # a dynqueued job is refused for its pending request
            match = "pending" if op == "ask" and job.state is D else None
            self._refused(call, self, job, match=match)

    @precondition(lambda self: self.server.active_count)
    @rule(pick=PICK)
    def merge_into_itself(self, pick: int) -> None:
        job = self._in(ACTIVE, pick)
        self._refused(self.server.merge_allocations, job, job, error=ValueError)

    # -- nodes and time ----------------------------------------------------
    @rule(
        node=st.integers(0, NODES - 1),
        requeue=st.booleans(),
        dt=st.sampled_from([0.0, 1.0, 10.0, 50.0]),
    )
    def nodes_and_time(self, node: int, requeue: bool, dt: float) -> None:
        """Let ``dt`` pass, or with ``dt`` 0 fail or recover ``node``."""
        if dt:
            self.engine.run(until=self.engine.now + dt)
        elif not self.server.recover_node(node):
            self.server.handle_node_failure(node, requeue=requeue)

    @rule(discard=st.booleans())
    def drain_for_stats(self, discard: bool) -> None:
        """The scheduler's statistics feed; once ``discard`` is drawn, it
        folds and drops the finished jobs, as a bounded-memory replay does."""
        if discard and not self.server._discard_folded:
            self.server.attach_windows(WindowedMetrics(100.0), fold_and_discard=True)
        self.server.drain_finished_for_stats()

    # -- invariants ----------------------------------------------------------
    @invariant()
    def no_core_held_twice(self) -> None:
        """The active jobs' allocations hold, node by node, exactly the
        cores the cluster counts as used: none twice, none leaked."""
        active = self.server.active_jobs()
        cluster = self.cluster
        held = [sum(j.allocation[n.index] for j in active) for n in cluster.nodes]
        assert all(h <= n.cores for h, n in zip(held, cluster.nodes))
        assert cluster.used_cores == sum(held)
        down = {}
        for n, h in zip(cluster.nodes, held):
            if n.state is NodeState.UP:
                assert n.cores - cluster.node_free[n.index] == h
            elif h:
                down[n.index] = h
        assert cluster._held_down == down

    @invariant()
    def free_plus_used_is_up_capacity(self) -> None:
        cluster = self.cluster
        assert cluster.free_cores + cluster.used_cores == cluster.up_cores

    @invariant()
    def free_list_is_each_nodes_free(self) -> None:
        """Each node's free cores are its capacity less what the active
        allocations hold on it when UP, and 0 when it is not."""
        active = self.server.active_jobs()
        cluster = self.cluster
        assert [cluster.node_free[n.index] for n in cluster.nodes] == [
            n.cores - sum(j.allocation[n.index] for j in active)
            if n.state is NodeState.UP
            else 0
            for n in cluster.nodes
        ]

    @invariant()
    def queue_is_the_queued_jobs(self) -> None:
        queued = {j.job_id for j in self.server.jobs.values() if j.state is Q}
        assert {j.job_id for j in self.server.queue} == queued

    @invariant()
    def active_set_is_the_running_jobs(self) -> None:
        running = {j.job_id for j in self.server.jobs.values() if j.state in ACTIVE}
        assert {j.job_id for j in self.server.active_jobs()} == running
        assert self.server.active_count == len(running)

    @invariant()
    def each_request_belongs_to_a_dynqueued_job(self) -> None:
        server = self.server
        owners = [d.job.job_id for d in server.dyn_queue]
        owners += list(server._pending_deliveries)
        assert len(owners) == len(set(owners))
        dynqueued = {j.job_id for j in server.jobs.values() if j.state is D}
        assert set(owners) == dynqueued
        assert not any(d.resolved for d in server.dyn_queue)

    @invariant()
    def walltime_is_fixed_at_start(self) -> None:
        """A running job's limit never moves, so a kept plan's future
        releases stay valid until the cluster or the queue changes."""
        for job in self.server.active_jobs():
            assert job.walltime_end == self.started_ends[job.job_id]

    @invariant()
    def state_counts_are_a_recount(self) -> None:
        recount = Counter(j.state for j in self.server.jobs.values())
        assert self.server.state_counts == {s: recount[s] for s in JobState}

    @invariant()
    def each_exit_is_recorded_once(self) -> None:
        """Every job that ended, retained or discarded, recorded exactly one
        exit event, of its terminal state's kind."""
        server = self.server
        ended = {j.job_id: j.state for j in server.jobs.values() if j.is_finished}
        ended.update(server._discarded_states)
        recorded = Counter(
            (e.payload["job_id"], e.kind)
            for e in server.trace
            if e.kind in EXIT_EVENT.values()
        )
        assert recorded == Counter((jid, EXIT_EVENT[s]) for jid, s in ended.items())


TestLifecycle = Lifecycle.TestCase
TestLifecycle.settings = settings(
    max_examples=80,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_state_is_written_only_by_the_move_method():
    """Rot guard: ``.state =`` appears only in ``Server._move`` and in the
    cluster's node transitions."""
    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Attribute) and t.attr == "state" for t in targets):
                inside = [f for f in scopes if f.lineno <= node.lineno <= f.end_lineno]
                innermost = max(inside, key=lambda f: f.lineno, default=None)
                name = innermost.name if innermost else "<module>"
                writers.add((path.relative_to(SRC).as_posix(), name))
    assert writers == {
        ("rms/server.py", "_move"),
        ("cluster/machine.py", "fail_node"),
        ("cluster/machine.py", "recover_node"),
    }

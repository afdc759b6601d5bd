"""Tests for backfill, driven through the pass that does it.

The static pass (:mod:`repro.maui.staticpass`) backfills inline: a job that
fits right now without reaching into a protected reservation window starts
out of order and is marked ``backfilled``.  Every case runs the same
machine — 4 nodes x 8 cores, a filler running until t=50 and a blocked wide
job holding the one reservation (``ReservationDepth`` 1) at t=50.
"""

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobFlexibility
from repro.system import BatchSystem


def job(cores, walltime, min_cores=0):
    """A rigid job, or a moldable one down to ``min_cores``."""
    return Job(
        request=ResourceRequest(cores=cores), walltime=walltime,
        flexibility=JobFlexibility.MOLDABLE if min_cores else JobFlexibility.RIGID,
        min_cores=min_cores,
    )


def run_pass(filler_cores, wide_cores, *candidates):
    """Submit the filler, the wide job and one ``(cores, walltime[,
    min_cores])`` candidate after another at t=0 — creation order is
    priority order — and run the one scheduling pass at t=0."""
    system = BatchSystem(num_nodes=4, cores_per_node=8)
    filler, wide = job(filler_cores, 50.0), job(wide_cores, 1000.0)
    jobs = [filler, wide, *(job(*candidate) for candidate in candidates)]
    for j in jobs:
        system.submit(j, FixedRuntimeApp(j.walltime))
    system.run(until=1.0)
    assert filler.start_time == 0.0 and not filler.backfilled
    assert wide.start_time is None  # blocked: reserved at t=50
    return system, wide, *jobs[2:]


class TestSelectBackfill:  # name kept from ``select_backfill``: stable test ids
    def test_fills_idle_gap(self):
        # 24 cores idle until the whole machine is reserved from t=50
        system, wide, short = run_pass(8, 32, (8, 50.0))
        assert short.start_time == 0.0 and short.backfilled
        system.run()
        assert wide.start_time == 50.0

    def test_rejects_job_that_would_delay_reservation(self):
        system, wide, long = run_pass(8, 32, (8, 51.0))  # one second too long
        assert long.start_time is None
        system.run()
        assert wide.start_time == 50.0
        assert long.start_time == 1050.0

    def test_accepts_job_running_beside_reservation(self):
        # the reservation takes only half the machine: a job on the node
        # the filler left free may run across its start
        system, wide, beside = run_pass(24, 16, (8, 500.0))
        assert beside.start_time == 0.0 and beside.backfilled
        system.run()
        assert wide.start_time == 50.0

    def test_candidates_tried_in_order_and_claims_accumulate(self):
        _, _, a, b, c = run_pass(8, 32, (12, 50.0), (12, 50.0), (12, 50.0))
        # only 24 cores are idle: the third candidate no longer fits
        assert (a.start_time, b.start_time, c.start_time) == (0.0, 0.0, None)
        assert a.backfilled and b.backfilled

    def test_skip_then_fit_smaller(self):
        _, _, too_long, fits = run_pass(8, 32, (8, 200.0), (8, 40.0))
        assert too_long.start_time is None
        assert fits.start_time == 0.0 and fits.backfilled

    def test_empty_candidates(self):
        system, _ = run_pass(8, 32)
        assert system.scheduler.stats["jobs_backfilled"] == 0

    def test_moldable_screened_on_its_full_request_still_molds(self):
        # the reservation takes nodes 0-2 from t=50, so a 200 s window at
        # t=0 holds node 3 only: the rigid 16-core probe fails there, and
        # the moldable job asking the same is screened out on that record
        # before molding down to its 8-core floor
        system, _, rigid, moldable = run_pass(16, 24, (16, 200.0), (16, 200.0, 8))
        stats = system.scheduler.stats
        assert rigid.start_time is None
        assert moldable.start_time == 0.0 and moldable.backfilled
        assert moldable.allocation.total_cores == 8
        assert stats["jobs_molded"] == 1
        # the first pass screens the wide job on the free cores and the
        # moldable one on the rigid job's failed probe; the echo pass the
        # molded start causes screens wide and rigid on the 8 cores left
        assert stats["backfill_quick_rejects"] == 4

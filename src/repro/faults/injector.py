"""The engine component that replays a failure trace against the server.

Construct a :class:`FaultInjector` right after the
:class:`~repro.system.BatchSystem` (before ``run()``): it pre-generates
the whole failure trace, schedules one engine event per transition, and
attaches :class:`~repro.faults.transient.TransientFaults` to the server
when the model enables delivery drops.  A disabled model does neither —
the run is bit-identical to one without the injector.

The injector also keeps the resilience books: jobs requeued, core-seconds
of lost work (run time already accrued by affected jobs, which restart
from scratch unless checkpointed), per-node downtime and the *effective*
MTTR actually realised by the sampled repair times.
"""

from __future__ import annotations

import logging

from repro.cluster.node import NodeState
from repro.faults.model import FaultModel
from repro.faults.trace import FAIL, FaultEvent, generate_failure_trace
from repro.faults.transient import TransientFaults
from repro.obs.instruments import FAULT_COUNTERS, mirror_stats

__all__ = ["FaultInjector"]

log = logging.getLogger("repro.faults.injector")


class FaultInjector:
    """Drives ``Server.handle_node_failure``/``recover_node`` from a trace."""

    def __init__(self, system, model: FaultModel) -> None:
        self.model = model
        self.engine = system.engine
        self.server = system.server
        self.cluster = system.cluster
        self.trace: list[FaultEvent] = generate_failure_trace(
            model, [n.index for n in self.cluster.nodes], start=self.engine.now
        )
        self.stats = {
            "node_failures": 0,
            "node_recoveries": 0,
            "jobs_requeued": 0,
            "lost_core_seconds": 0.0,
            "downtime_seconds": 0.0,
        }
        self._down_since: dict[int, float] = {}
        telemetry = getattr(system, "telemetry", None)
        mirror_stats(telemetry, FAULT_COUNTERS, self.stats)
        self.transient: TransientFaults | None = None
        if model.transient_faults_enabled:
            self.transient = TransientFaults(model, telemetry=telemetry)
            self.server.attach_faults(self.transient)
        for ev in self.trace:
            self.engine.at(ev.time, self._fire, ev)
        if self.trace:
            log.info(
                "fault trace: %d events over [%.0f, %.0f]",
                len(self.trace), self.trace[0].time, self.trace[-1].time,
            )

    # ------------------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        now = self.engine.now
        if ev.kind == FAIL:
            if self.cluster.node(ev.node).state is not NodeState.UP:
                return  # merged traces never double-fail; stay safe anyway
            lost = 0.0
            for job in self.server.active_jobs():
                if (
                    job.allocation is not None
                    and ev.node in job.allocation
                    and job.start_time is not None
                ):
                    lost += (now - job.start_time) * job.allocation.total_cores
            affected = self.server.handle_node_failure(ev.node)
            self.stats["node_failures"] += 1
            self.stats["jobs_requeued"] += len(affected)
            self.stats["lost_core_seconds"] += lost
            self._down_since[ev.node] = now
        else:
            if self.cluster.node(ev.node).state is NodeState.UP:
                return
            self.server.recover_node(ev.node)
            self.stats["node_recoveries"] += 1
            went_down = self._down_since.pop(ev.node, None)
            if went_down is not None:
                downtime = now - went_down
                self.stats["downtime_seconds"] += downtime

    # ------------------------------------------------------------------
    @property
    def effective_mttr(self) -> float:
        """Mean realised repair time over completed repairs (0 if none)."""
        repairs = self.stats["node_recoveries"]
        if repairs == 0:
            return 0.0
        return self.stats["downtime_seconds"] / repairs

    def report(self) -> dict:
        """Machine-readable resilience summary (stats + transient stats)."""
        out = dict(self.stats)
        out["effective_mttr"] = self.effective_mttr
        out["trace_events"] = len(self.trace)
        if self.transient is not None:
            out.update(self.transient.stats)
        else:
            out.update(
                {"delivery_drops": 0, "delivery_retries": 0, "delivery_degraded": 0}
            )
        return out

"""The wired policy core, extracted from the simulation facade.

:class:`PolicyCore` owns exactly the components that *decide*: the event
engine, the cluster model, the trace log, the RM server (job lifecycle and
the dynamic-request path) and the Maui scheduler with its DFS policies,
plus the optional telemetry and fault-injection attachments.  It contains
no driving loop of its own — that is the point of the extraction:

* :class:`repro.system.BatchSystem` is a core that drives itself to
  completion in one call (the classic simulate-a-workload path);
* the :mod:`repro.service` backends wrap the *same* core and drive it
  incrementally from a long-lived asyncio service, which is what lets one
  policy implementation serve simulation, dry-run replay and (eventually)
  real resource-manager adapters.

Because both paths construct the stack through this one class, a workload
driven through the service against the simulator backend reproduces the
direct ``BatchSystem`` schedule bit for bit — the contract
``tests/test_service.py`` pins.
"""

from __future__ import annotations

import logging

from repro.cluster.machine import Cluster
from repro.maui.config import MauiConfig
from repro.maui.scheduler import MauiScheduler
from repro.metrics.collector import WorkloadMetrics
from repro.rms.server import Server
from repro.sim.engine import Engine
from repro.sim.events import TraceLog

__all__ = ["PolicyCore"]

log = logging.getLogger("repro.service.core")


class PolicyCore:
    """Engine + cluster + server + scheduler, wired once, driven elsewhere."""

    def __init__(
        self,
        num_nodes: int = 15,
        cores_per_node: int = 8,
        config: MauiConfig | None = None,
        *,
        cluster: Cluster | None = None,
        start_time: float = 0.0,
        telemetry=None,
        trace_maxlen: int | None = None,
        fault_model=None,
    ) -> None:
        self.engine = Engine(start_time=start_time)
        if cluster is None:
            dyn_nodes = 0
            if config is not None and config.use_dynamic_partition:
                # default fence: one node, overridable by passing a cluster
                dyn_nodes = 1
            cluster = Cluster.homogeneous(
                num_nodes, cores_per_node, dynamic_partition_nodes=dyn_nodes
            )
        self.cluster = cluster
        self.trace = TraceLog(maxlen=trace_maxlen)
        #: optional :class:`repro.obs.Telemetry`; None keeps every hook site
        #: a single attribute check (the benchmarked disabled path)
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.ensure_sampler(self.engine)
            if telemetry.ledger is not None:
                # wait timelines follow the lifecycle events
                telemetry.ledger.attach_trace(self.trace)
            if telemetry.profiler is not None:
                # the engine wraps every dispatch; scheduler phases nest
                # inside the owning dispatch automatically
                self.engine.profiler = telemetry.profiler
        self.server = Server(
            self.engine, self.cluster, self.trace, telemetry=telemetry
        )
        if telemetry is not None and telemetry.windows is not None:
            if telemetry.windows.total_cores is None:
                telemetry.windows.set_capacity(self.cluster.total_cores)
            self.server.attach_windows(
                telemetry.windows, fold_and_discard=telemetry.fold_and_discard
            )
        self.scheduler = MauiScheduler(self.engine, self.cluster, self.server, config)
        if telemetry is not None and telemetry.fairness is not None:
            # the observatory's core-seconds are the fairshare tracker's folds
            self.scheduler.fairshare.feed = telemetry.fairness.accrue
        #: optional :class:`repro.faults.FaultInjector`; built last so the
        #: failure trace replays against the fully wired stack.  A model
        #: that injects nothing leaves the run bit-identical to no model.
        self.fault_injector = None
        if fault_model is not None:
            from repro.faults import FaultInjector

            self.fault_injector = FaultInjector(self, fault_model)

    @property
    def config(self) -> MauiConfig:
        return self.scheduler.config

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    # run-cycle hooks (every driver brackets engine work with these)
    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        """Arm telemetry for a stretch of engine work.

        Must be called *after* the initial workload is queued: the periodic
        sampler only re-arms while events are pending, so arming it against
        an empty engine would sample nothing.  Idempotent per cycle.
        """
        if self.telemetry is not None:
            self.telemetry.start_sampling()

    def end_cycle(self) -> None:
        """Close out fairness/SLO state after a stretch of engine work.

        A final share sample, then objective evaluation over still-open
        (trailing) window frames.  Both finalizers are idempotent, so
        drivers may bracket several cycles.
        """
        if self.telemetry is not None:
            if self.telemetry.slo is not None:
                self.telemetry.slo.finalize(self.engine.now)
            elif self.telemetry.fairness is not None:
                self.telemetry.fairness.finalize(self.engine.now)

    # ------------------------------------------------------------------
    def metrics(self) -> WorkloadMetrics:
        """Workload metrics over everything submitted so far."""
        return WorkloadMetrics.from_server(self.server, self.cluster)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} t={self.engine.now:.1f} {self.cluster!r}>"

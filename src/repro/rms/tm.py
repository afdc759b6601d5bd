"""The extended TM (task management) interface.

Real Torque exposes TM to applications for process spawning; the paper adds
two calls (Section III-B):

* ``tm_dynget(request, callback)`` — ask the batch system for additional
  resources.  The request travels through the mother superior to the server,
  the job enters the ``dynqueued`` state, a scheduling cycle is triggered and
  the answer (a hostlist, or a rejection) comes back asynchronously.
* ``tm_dynfree(nodes)`` — release a subset of the current allocation;
  practically always succeeds.

A :class:`TMContext` is handed to the application model when its job starts;
it is the *only* channel through which applications talk to the batch system,
exactly like the real TM API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.jobs.job import Job
from repro.sim.engine import EventHandle

if TYPE_CHECKING:
    from repro.rms.server import Server

__all__ = ["TMContext"]


class TMContext:
    """Per-job runtime handle given to the application model."""

    def __init__(self, server: "Server", job: Job, limit: EventHandle) -> None:
        self._server = server
        self.job = job
        #: the walltime kill switch; None once the job has left its nodes
        self.limit: EventHandle | None = limit
        self._timers: list[EventHandle] = []
        #: registered by malleable applications: ``handler(cores_wanted)``
        #: releases what it can afford via ``tm_dynfree`` and returns the
        #: number of cores actually given up
        self.shrink_handler: Callable[[int], int] | None = None
        #: registered by checkpointable applications: called right before a
        #: preemption tears the job down, so the application can stash its
        #: progress (typically into ``job.metadata``) and resume from it at
        #: the next launch instead of restarting from scratch
        self.checkpoint_handler: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # clock access for application-side events
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._server.engine.now

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule an application-side event; auto-cancelled at job end."""
        handle = self._server.engine.after(delay, callback, *args)
        self._timers.append(handle)
        return handle

    def _cancel_all_timers(self) -> None:
        self.limit.cancel()
        self.limit = None
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # allocation state
    # ------------------------------------------------------------------
    @property
    def allocation(self) -> Allocation:
        if self.job.allocation is None:
            raise RuntimeError(f"{self.job.job_id} holds no allocation")
        return self.job.allocation

    @property
    def cores(self) -> int:
        return self.allocation.total_cores

    def hostlist(self) -> list[str]:
        """Current hostlist as MPI would see it for spawn operations."""
        return self.allocation.hostlist()

    # ------------------------------------------------------------------
    # the extended TM calls
    # ------------------------------------------------------------------
    def tm_dynget(
        self,
        request: ResourceRequest,
        callback: Callable[[Allocation | None], None],
        *,
        timeout: float | None = None,
        on_estimate: Callable[[float], None] | None = None,
    ) -> None:
        """Request additional resources at runtime.

        Only one dynamic request per job may be pending (the mother superior
        serialises them); a second concurrent call raises ``RuntimeError``.
        ``callback`` receives the granted :class:`Allocation` or ``None``.

        Passing ``timeout`` switches to the negotiation protocol (extension
        of the paper's Section III-C outlook): the batch system keeps the
        request until resources arrive or the timeout expires, publishing
        earliest-availability estimates through ``on_estimate``; the
        application continues computing meanwhile.
        """
        self._server.dyn_request(
            self.job, request, callback, timeout=timeout, on_estimate=on_estimate
        )

    def tm_dynfree(self, cores_by_node: Mapping[int, int]) -> bool:
        """Release part of the job's allocation.  Returns True on success.

        Mirrors the paper's semantics: the release "usually returns true";
        the failure modes are protocol errors (releasing cores the job does
        not hold, or stripping the mother superior), which surface as a
        ``False`` return instead of an exception so applications can shrug
        them off like the real call does.
        """
        try:
            released = self.allocation.subset(cores_by_node)
        except ValueError:
            return False
        if released.is_empty:
            return False
        try:
            self._server.dyn_free(self.job, released)
        except RuntimeError:
            return False
        return True

    def register_checkpoint_handler(self, handler: Callable[[], None]) -> None:
        """Declare this job checkpointable under preemption.

        Maui's PREEMPTPOLICY distinguishes REQUEUE (restart from scratch,
        the default here) from CHECKPOINT; applications that register a
        handler get the latter: the handler runs right before teardown and
        the application restores its progress on relaunch.
        """
        self.checkpoint_handler = handler

    def register_shrink_handler(self, handler: Callable[[int], int]) -> None:
        """Declare this job malleable: the scheduler may ask it to shrink.

        The handler receives the number of cores the scheduler would like
        back, releases whatever the application can afford through
        ``tm_dynfree``, and returns the count actually released.
        """
        self.shrink_handler = handler

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """The application has completed; the job exits normally."""
        self._server.complete_job(self.job)

    def __repr__(self) -> str:
        return f"<TMContext {self.job.job_id} cores={self.job.allocation and self.job.allocation.total_cores}>"

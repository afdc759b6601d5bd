"""Synthetic applications used by the ESP workloads.

The dynamic ESP benchmark (paper Section IV-B) assumes a *linear reduction*
of the execution time when an evolving job's dynamic request is granted: a
job that holds ``c`` cores and receives ``+k`` more executes its remaining
work at ``(c+k)/c`` times the base speed.  :class:`EvolvingWorkApp` models
exactly that as a work integral:

* total work ``W`` equals the static execution time (SET) in base-speed
  seconds,
* progress accrues at ``speed = current_cores / base_cores``,
* at the work fractions given by the job's
  :class:`~repro.jobs.evolution.EvolutionProfile` the application calls
  ``tm_dynget``; on rejection it retries at the profile's retry fractions and
  otherwise continues unchanged.

A job granted +4 cores at elapsed fraction *f* therefore finishes at
``f·SET + (1-f)·SET·c/(c+4)`` — and a grant at t=0 would reproduce the
Table I dynamic execution time (DET) column, ``SET·c/(c+4)``.
"""

from __future__ import annotations

from typing import Mapping

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.rms.tm import TMContext
from repro.sim.engine import EventHandle

__all__ = ["FixedRuntimeApp", "EvolvingWorkApp", "MoldableWorkApp", "MalleableWorkApp"]


def _give_back(allocation: Allocation, cores: int) -> dict[int, int]:
    """Up to ``cores`` of ``allocation``'s cores to hand back via
    ``tm_dynfree``: highest node indices first, never the mother superior's
    last core."""
    ms = min(allocation.node_indices)
    give: dict[int, int] = {}
    for node in sorted(allocation.node_indices, reverse=True):
        if cores == 0:
            break
        held = allocation[node]
        take = min(held - 1 if node == ms else held, cores)
        if take > 0:
            give[node] = take
            cores -= take
    return give


class FixedRuntimeApp:
    """A rigid payload: runs for exactly ``runtime`` seconds, then exits.

    This is the original ESP synthetic application — its runtime does not
    depend on the allocation because ESP fixes each job type's execution
    time by construction.
    """

    def __init__(self, runtime: float) -> None:
        if runtime <= 0:
            raise ValueError(f"runtime must be positive: {runtime}")
        self.runtime = runtime

    def launch(self, ctx: TMContext) -> None:
        ctx.after(self.runtime, ctx.finish)

    def __repr__(self) -> str:
        return f"<FixedRuntimeApp {self.runtime:.0f}s>"


class EvolvingWorkApp:
    """Work-integral application honouring the job's evolution profile.

    Restartable: ``launch`` resets all progress, so a preempted job starts
    over (standard requeue semantics).

    :param static_runtime: the SET — seconds of work at base speed.
    :param release_at_fraction: optional work fraction at which the
        application gives back ``release_cores`` via ``tm_dynfree`` (models
        the deallocation workflow of paper Fig. 4; the dynamic ESP jobs do
        not use it).
    """

    def __init__(
        self,
        static_runtime: float,
        *,
        release_at_fraction: float | None = None,
        release_cores: int = 0,
        negotiation_timeout: float | None = None,
        checkpointable: bool = False,
    ) -> None:
        if static_runtime <= 0:
            raise ValueError(f"static_runtime must be positive: {static_runtime}")
        if release_at_fraction is not None and not 0 < release_at_fraction < 1:
            raise ValueError("release_at_fraction must be in (0, 1)")
        if negotiation_timeout is not None and negotiation_timeout <= 0:
            raise ValueError("negotiation_timeout must be positive")
        self.static_runtime = static_runtime
        self.release_at_fraction = release_at_fraction
        self.release_cores = release_cores
        #: when set, requests use the negotiation protocol (extension of the
        #: paper's Section III-C outlook): the batch system holds the request
        #: up to this many seconds instead of the profile's retry fractions,
        #: publishing availability estimates into
        #: ``job.metadata["availability_estimates"]``.
        self.negotiation_timeout = negotiation_timeout
        #: survive preemption with progress intact (Maui PREEMPTPOLICY
        #: CHECKPOINT): completed work is stashed at preemption and restored
        #: on relaunch instead of restarting from zero
        self.checkpointable = checkpointable
        # runtime state, reset by launch()
        self._ctx: TMContext | None = None
        self._work_done = 0.0
        self._last_update = 0.0
        self._base_cores = 0
        self._speed = 1.0
        self._completion: EventHandle | None = None
        self._step_index = 0
        self._attempt_index = 0

    # ------------------------------------------------------------------
    @property
    def speed(self) -> float:
        """Current progress rate relative to the base allocation.

        Tracked explicitly (not read live from the allocation) so progress
        over an elapsed interval is always charged at the speed that held
        *during* the interval — a grant callback fires after the allocation
        already grew, and reading the new width retroactively would credit
        un-earned work.
        """
        return self._speed

    def _sync_speed(self) -> None:
        """Adopt the current allocation width (call only right after _advance)."""
        assert self._ctx is not None
        self._speed = self._ctx.cores / self._base_cores

    @property
    def work_done(self) -> float:
        return self._work_done

    def _advance(self) -> None:
        assert self._ctx is not None
        now = self._ctx.now
        self._work_done += (now - self._last_update) * self.speed
        self._last_update = now

    def _time_to_fraction(self, fraction: float) -> float:
        """Seconds from now until ``work_done`` reaches ``fraction * W``."""
        target = fraction * self.static_runtime
        return max(0.0, (target - self._work_done) / self.speed)

    # ------------------------------------------------------------------
    def launch(self, ctx: TMContext) -> None:
        self._ctx = ctx
        self._work_done = (
            ctx.job.metadata.get("checkpoint_work", 0.0) if self.checkpointable else 0.0
        )
        self._last_update = ctx.now
        self._base_cores = ctx.cores
        self._speed = 1.0
        self._step_index = 0
        self._attempt_index = 0
        if self.checkpointable:
            ctx.register_checkpoint_handler(self._checkpoint)
        self._reschedule_completion()
        self._schedule_next_attempt()
        if self.release_at_fraction is not None:
            ctx.after(
                self._time_to_fraction(self.release_at_fraction), self._do_release
            )

    def _checkpoint(self) -> None:
        assert self._ctx is not None
        self._advance()
        self._ctx.job.metadata["checkpoint_work"] = self._work_done

    def _reschedule_completion(self) -> None:
        assert self._ctx is not None
        if self._completion is not None:
            self._completion.cancel()
        remaining = max(0.0, self.static_runtime - self._work_done)
        self._completion = self._ctx.after(remaining / self.speed, self._complete)

    def _complete(self) -> None:
        assert self._ctx is not None
        self._advance()
        self._ctx.finish()

    # ------------------------------------------------------------------
    # evolution protocol
    # ------------------------------------------------------------------
    def _current_step(self):
        evolution = self._ctx.job.evolution if self._ctx else None
        if evolution is None or self._step_index >= len(evolution.steps):
            return None
        return evolution.steps[self._step_index]

    def _schedule_next_attempt(self) -> None:
        step = self._current_step()
        if step is None:
            return
        fraction = step.attempt_fractions[self._attempt_index]
        assert self._ctx is not None
        self._ctx.after(self._time_to_fraction(fraction), self._issue_request)

    def _issue_request(self) -> None:
        step = self._current_step()
        if step is None:
            return
        assert self._ctx is not None
        if not self._ctx.job.is_active:
            return
        self._advance()
        if self.negotiation_timeout is not None:
            self._ctx.tm_dynget(
                step.request,
                self._on_answer,
                timeout=self.negotiation_timeout,
                on_estimate=self._on_estimate,
            )
        else:
            self._ctx.tm_dynget(step.request, self._on_answer)

    def _on_estimate(self, available_at: float) -> None:
        assert self._ctx is not None
        self._ctx.job.metadata.setdefault("availability_estimates", []).append(
            available_at
        )

    def _on_answer(self, grant: Allocation | None) -> None:
        assert self._ctx is not None
        step = self._current_step()
        assert step is not None
        self._advance()
        if grant is not None:
            self._sync_speed()  # remaining work now runs on the wider set
            self._reschedule_completion()
            self._step_index += 1
            self._attempt_index = 0
            self._schedule_next_attempt()
            return
        if self.negotiation_timeout is not None:
            # the batch system already held the request until the deadline;
            # retry fractions do not apply in negotiation mode
            self._step_index += 1
            self._attempt_index = 0
            self._schedule_next_attempt()
            return
        self._attempt_index += 1
        if self._attempt_index < len(step.attempt_fractions):
            self._schedule_next_attempt()
        else:
            # all attempts exhausted: continue with the current allocation
            self._step_index += 1
            self._attempt_index = 0
            self._schedule_next_attempt()

    # ------------------------------------------------------------------
    def _do_release(self) -> None:
        """Give back ``release_cores``, highest node indices first."""
        assert self._ctx is not None
        if not self._ctx.job.is_active or self.release_cores <= 0:
            return
        self._advance()
        give = _give_back(self._ctx.allocation, self.release_cores)
        if give:
            self._ctx.tm_dynfree(give)
            self._sync_speed()
            self._reschedule_completion()  # speed dropped; completion moves out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} W={self.static_runtime:.0f}s done={self._work_done:.0f}>"


class MoldableWorkApp(EvolvingWorkApp):
    """A moldable payload: accepts any start size within [min_cores, request].

    The *scheduler* decides the size once, before the job starts (paper
    Section I's second job class).  The work integral is normalised to the
    *requested* size: started on fewer cores, the job simply runs
    proportionally longer — so walltimes should cover the worst (floor-sized)
    case.
    """

    def __init__(self, static_runtime: float) -> None:
        super().__init__(static_runtime)

    def launch(self, ctx: TMContext) -> None:
        super().launch(ctx)
        # normalise speed to the requested size rather than the granted one
        self._base_cores = ctx.job.request.total_cores
        self._sync_speed()
        self._reschedule_completion()

    def __repr__(self) -> str:
        return f"<MoldableWorkApp W={self.static_runtime:.0f}s speed={self._speed:.2f}>"


class MalleableWorkApp(EvolvingWorkApp):
    """A malleable payload: the *scheduler* may shrink it at runtime.

    Shares the linear work-integral model of :class:`EvolvingWorkApp` but
    registers a shrink handler with TM: when the batch system asks for cores
    back (to serve a dynamic request — paper Section II-B, resource source
    #3), the application releases everything above ``min_cores``, slows
    down proportionally, and keeps computing.  Its job should be submitted
    with ``flexibility=JobFlexibility.MALLEABLE`` and a walltime that covers
    the worst-case (fully shrunk) runtime.
    """

    def __init__(self, static_runtime: float, *, min_cores: int = 1) -> None:
        super().__init__(static_runtime)
        if min_cores < 1:
            raise ValueError(f"min_cores must be at least 1: {min_cores}")
        self.min_cores = min_cores
        self.shrunk_by = 0

    def launch(self, ctx: TMContext) -> None:
        super().launch(ctx)
        self.shrunk_by = 0
        ctx.register_shrink_handler(self._on_shrink_request)

    def _on_shrink_request(self, cores_wanted: int) -> int:
        assert self._ctx is not None
        if not self._ctx.job.is_active:
            return 0
        self._advance()
        allocation = self._ctx.allocation
        affordable = max(0, allocation.total_cores - self.min_cores)
        target = min(cores_wanted, affordable)
        if target == 0:
            return 0
        give = _give_back(allocation, target)
        if not give or not self._ctx.tm_dynfree(give):
            return 0
        released = sum(give.values())
        self.shrunk_by += released
        self._sync_speed()
        self._reschedule_completion()
        return released

    def __repr__(self) -> str:
        return (
            f"<MalleableWorkApp W={self.static_runtime:.0f}s "
            f"min={self.min_cores} shrunk={self.shrunk_by}>"
        )

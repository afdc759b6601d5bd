"""Job prioritisation and static fairshare.

Maui computes a weighted sum of priority factors per job (queue time,
fairshare, service, …; Jackson et al., JSSPP 2001).  The ESP experiments run
a FIFO-ish policy (queue-time weight only) with the special ESP rule that a
queued Z-type job outranks everything; the static fairshare tracker is
provided for sites that weight historical usage, and for the SLURM-style
baseline which prioritises dynamic requests through *static* fairshare
(paper Section V).

Usage accrues when a job's cores change, not per running job per pass.
The fairshare decay roll is one vectorized multiply per interval instead
of a per-user Python loop; per-user values are independent factor chains, so
elementwise decay reproduces the scalar results exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.jobs.job import Job
from repro.maui.config import PriorityWeightsConfig

__all__ = ["PriorityWeights", "Prioritizer", "FairshareTracker"]

# re-export under the historical name used across the package
PriorityWeights = PriorityWeightsConfig


class FairshareTracker:
    """Decayed per-user historical usage in core-seconds.

    Usage is the integral of the cores a user holds over time, and decays
    by ``fairshare_decay`` every ``fairshare_interval`` — Maui's
    sliding-window fairshare in its simplest faithful form.  The server
    reports every change of a job's cores through :meth:`hold`, which folds
    the user's held cores into usage up to ``clock.now``; reads add the
    unfolded tail since then, so usage costs O(1) per core change, not a
    walk over the running jobs per scheduling pass.  ``clock`` is anything
    with a ``now`` attribute, the simulation engine in a run.
    """

    def __init__(
        self,
        interval: float,
        decay: float,
        start_time: float = 0.0,
        clock=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("fairshare interval must be positive")
        if not 0.0 <= decay <= 1.0:
            raise ValueError("fairshare decay must be in [0, 1]")
        self.interval = interval
        self.decay = decay
        self.window_start = float(start_time)
        self._clock = clock if clock is not None else SimpleNamespace(now=start_time)
        self._usage: dict[str, float] = {}
        #: user -> cores held now, and the time they were last folded
        self._held: dict[str, int] = {}
        self._since: dict[str, float] = {}
        #: told ``(job, core-seconds)`` at every fold :meth:`hold` makes
        #: (the fairness observatory's feed); a no-op by default
        self.feed: Callable[[Job, float], None] = lambda job, used: None

    def add_usage(self, user: str, core_seconds: float) -> None:
        if core_seconds < 0:
            raise ValueError("usage cannot be negative")
        self._usage[user] = self._usage.get(user, 0.0) + core_seconds

    def hold(self, job: Job, cores: int) -> None:
        """``job``'s allocation changed by ``cores`` (negative: released).

        Its user's held cores are folded into usage up to ``clock.now``
        first, so each held core is charged once, from the change that
        took it to the change that gave it back.
        """
        user = job.user
        now = self._clock.now
        held = self._held.get(user, 0)
        used = 0.0
        if held:
            used = held * (now - self._since[user])
            self._usage[user] = self._usage.get(user, 0.0) + used
        self.feed(job, used)
        held += cores
        if held:
            self._held[user] = held
            self._since[user] = now
        else:
            del self._held[user], self._since[user]

    def roll(self, now: float) -> None:
        """Roll accounting windows past ``now``, decaying every user once
        per window.

        Held cores are folded up to ``now`` first, so the decay applies to
        everything used before ``now``.  One elementwise multiply per
        window replaces the per-user loop.
        Users are dropped once their usage decays below 1e-9; since decay
        is ≤ 1, a value below the floor can never rise back above it, so
        filtering once at the end selects exactly the users the per-step
        deletion would have kept — with bit-identical surviving values
        (each survivor's value is the same chain of multiplies).
        """
        interval = self.interval
        if now < self.window_start + interval:
            return
        for user, held in self._held.items():
            self._usage[user] = self._usage.get(user, 0.0) + held * (
                now - self._since[user]
            )
            self._since[user] = now
        usage = self._usage
        if not usage:
            while now >= self.window_start + interval:
                self.window_start += interval
            return
        values = np.fromiter(usage.values(), dtype=np.float64, count=len(usage))
        decay = self.decay
        while now >= self.window_start + interval:
            self.window_start += interval
            values *= decay
        self._usage = {
            user: value
            for user, value in zip(usage, values.tolist())
            if value >= 1e-9
        }

    def usage(self, user: str) -> float:
        """Decayed usage up to ``clock.now``, held cores included."""
        value = self._usage.get(user, 0.0)
        held = self._held.get(user)
        if held:
            value += held * (self._clock.now - self._since[user])
        return value

    @property
    def total_usage(self) -> float:
        now = self._clock.now
        return sum(self._usage.values()) + sum(
            held * (now - self._since[user]) for user, held in self._held.items()
        )

    def normalized_usage(self, user: str) -> float:
        """This user's share of all tracked usage, in [0, 1]."""
        total = self.total_usage
        return self.usage(user) / total if total > 0 else 0.0


class Prioritizer:
    """Orders eligible jobs for the priority-scheduling pass."""

    def __init__(self, weights: PriorityWeightsConfig, fairshare: FairshareTracker) -> None:
        self.weights = weights
        self.fairshare = fairshare

    def priority(self, job: Job, now: float) -> float:
        """Scalar priority; larger runs earlier.

        Z-type (``top_priority``) jobs dominate every other factor, per the
        ESP benchmark definition.
        """
        if job.submit_time is None:
            raise ValueError(f"{job.job_id} was never submitted")
        w = self.weights
        wait = now - job.submit_time
        score = w.queue_time * wait
        if w.expansion_factor:
            score += w.expansion_factor * (wait + job.walltime) / job.walltime
        if w.fairshare:
            score += w.fairshare * (1.0 - self.fairshare.normalized_usage(job.user))
        if w.service:
            score += w.service * job.request.total_cores
        if w.credential:
            score += w.credential * w.user_priorities.get(job.user, 0.0)
        if job.top_priority:
            score += 1e15
        return score

    def order(self, jobs: list[Job], now: float, ranked: bool = False) -> list[Job]:
        """Jobs sorted by descending priority; ties resolve in submit order.

        A ``ranked`` list (:class:`JobQueue` rank order) is returned unscored
        under FIFO weights, whose order it is (proof: docs/PERFORMANCE.md,
        "Rank-ordered queue").
        """
        w = self.weights
        if ranked and not (
            w.expansion_factor or w.fairshare or w.service or w.credential
            or w.queue_time < 0
        ):
            # Z-type jobs are a prefix; every Z score stays at 1e15 or more
            # (no wait is negative) and every other one below it
            top = bisect_left(jobs, True, key=lambda j: not j.top_priority)
            if (top == 0 or jobs[top - 1].submit_time <= now) and (
                top == len(jobs)
                or w.queue_time * (now - jobs[top].submit_time) < 1e15
            ):
                return jobs
        return sorted(
            jobs,
            key=lambda j: (-self.priority(j, now), j.submit_time, j.seq),
        )

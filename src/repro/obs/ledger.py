"""Causal decision ledger with per-job delay attribution.

The paper's headline claim is that DFS policies *bound the delay evolving
grants inflict on queued rigid jobs* (Figs. 8-11).  Aggregate waits cannot
show that causally — this module records a structured, append-only
:class:`Decision` for every scheduler verdict (static start, backfill
placement, reservation create/slide, dynamic grant/deny, throttle
rejection, preemption), each carrying causal
references: blocking job ids, the DFS policy consulted, and a fingerprint
of the availability-profile state ``(server state version, cluster
version, sim time)`` the verdict was computed against.

On top of the decisions sits a **delay-attribution engine**.  While the
ledger is attached, every scheduler pass classifies each queued job into a
wait cause; the per-job :class:`_WaitTimeline` accumulates the time spent
under each cause, so the segments tile ``[submit, start)`` exactly by
construction.  Grant-time delay measurements (``maui/delay.py``) are
recorded as per-grant charges; :meth:`DecisionLedger.attribution` reports
them verbatim as ``dyn_inflicted[grant_id]`` and carves the charged total
out of the time-based components in a fixed order, adding a signed
``plan_drift`` correction when the realized schedule beat the grant-time
plan — the components therefore sum *exactly* to the measured wait, and
the per-grant totals reconcile with what ``measure_delays`` reported when
the grant was made.

Contract (same as the rest of ``repro.obs``): off by default —
``Telemetry(decision_ledger=True)`` opts in, every scheduler hook site is
a single ``self._ledger is not None`` check, and the disabled path stays
inside the benchmarked 5 % overhead budget
(``benchmarks/test_obs_overhead.py``).  The ledger writes nothing into
the trace it follows, so a run's trace is the same bytes with the ledger
on or off; it exports through :meth:`DecisionLedger.export_jsonl`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.sim.events import EventKind, TraceEvent, TraceLog

__all__ = [
    "Decision",
    "DecisionKind",
    "DecisionLedger",
    "load_ledger_jsonl",
    "ATTRIBUTION_EPSILON",
]

#: attribution exactness tolerance (matches the DFS fairness epsilon)
ATTRIBUTION_EPSILON = 1e-9

#: wait-cause buckets the dyn-inflicted total is carved out of, in order:
#: plain queueing first, then reservation waits, then policy blocks — hold
#: and dependency time is never attributable to a dynamic grant
_CARVE_ORDER = ("queued_behind", "reservation_held", "backfill_blocked", "throttled")


class DecisionKind(enum.Enum):
    """Taxonomy of scheduler verdicts the ledger records."""

    STATIC_START = "static_start"
    BACKFILL_START = "backfill_start"
    RESERVATION_CREATE = "reservation_create"
    RESERVATION_SLIDE = "reservation_slide"
    DYN_GRANT = "dyn_grant"
    DYN_DENY = "dyn_deny"
    DYN_DEFER = "dyn_defer"
    THROTTLE_REJECT = "throttle_reject"
    PREEMPTION = "preemption"
    NODE_FAILURE_REQUEUE = "node_failure_requeue"
    SLO_BREACH = "slo_breach"


@dataclass(frozen=True, slots=True)
class Decision:
    """One scheduler verdict: what was decided, about whom, and why.

    ``payload`` is a plain JSON-serialisable dict so the ledger exports
    through the existing JSONL pipeline unchanged.
    """

    seq: int
    time: float
    kind: DecisionKind
    job_id: str | None
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.time,
            "kind": self.kind.value,
            "job_id": self.job_id,
            "payload": self.payload,
        }

    def __repr__(self) -> str:
        return f"<Decision #{self.seq} {self.kind.value} {self.job_id} @{self.time:.1f}>"


class _WaitTimeline:
    """Per-job wait accounting: contiguous cause-labelled segments.

    ``advance(now, cause)`` charges ``[last_time, now)`` to the *previous*
    cause and switches to the new one; ``close`` charges the final segment
    at start.  Preemption folds the lost run into a ``requeued`` segment
    and reopens, so after the final start the segments still telescope to
    ``final_start - submit`` exactly.
    """

    __slots__ = ("submitted", "segments", "last_time", "cause", "started_at", "open")

    def __init__(self, submitted: float) -> None:
        self.submitted = submitted
        self.segments: dict[str, float] = {}
        self.last_time = submitted
        self.cause = "queued_behind"
        self.started_at: float | None = None
        self.open = True

    def _charge(self, upto: float) -> None:
        dt = upto - self.last_time
        if dt > 0:
            self.segments[self.cause] = self.segments.get(self.cause, 0.0) + dt
        self.last_time = upto

    def advance(self, now: float, cause: str) -> None:
        if not self.open:
            return
        self._charge(now)
        self.cause = cause

    def close(self, now: float) -> None:
        if self.open:
            self._charge(now)
            self.open = False
        self.started_at = now

    def reopen(self, now: float, cause: str = "requeued") -> None:
        """Preempted at ``now``: count the lost run as requeue-flavoured wait.

        ``cause`` names *why* the job was requeued — the generic
        ``requeued`` for scheduler-initiated preemptions, or
        ``node_failure_requeued`` when a NODE_FAIL event took the job's
        allocation down.  Either way the segment telescopes into the same
        reconciliation sum.
        """
        if self.started_at is not None:
            dt = now - self.started_at
            if dt > 0:
                self.segments[cause] = self.segments.get(cause, 0.0) + dt
        self.last_time = now
        self.cause = "queued_behind"
        self.started_at = None
        self.open = True


class DecisionLedger:
    """Append-only decision log + per-job wait attribution.

    Created by ``Telemetry(decision_ledger=True)``; ``BatchSystem`` calls
    :meth:`attach_trace` so wait timelines follow the job lifecycle events
    (submit/start/preempt — including server-initiated preemptions that
    never pass through the scheduler).  The ledger is the one record of
    its decisions: nothing is copied into the trace, and its registry
    counters read :meth:`summary`, the grant totals and
    :attr:`waits_closed` when the registry is read.
    """

    def __init__(self, *, registry=None) -> None:
        self._decisions: list[Decision] = []
        self._timelines: dict[str, _WaitTimeline] = {}
        #: per-job list of (grant_id, delay) charges from grant-time measurement
        self._charges: dict[str, list[tuple[str, float]]] = {}
        #: per-grant total delay as measured when the grant was made
        self._grant_totals: dict[str, float] = {}
        #: decisions causally referencing a job (as subject or as victim)
        self._chain: dict[str, list[Decision]] = {}
        self._reservations: dict[str, float] = {}
        self._throttle_state: dict[str, str] = {}
        self._trace: TraceLog | None = None
        #: most recent NODE_FAIL still owed PREEMPT correlations:
        #: (time, node, job ids not yet seen preempting).  The server
        #: records NODE_FAIL *before* the per-job PREEMPT events, all at
        #: the same timestamp, so subscription order correlates them.
        self._node_fail: tuple[float, Any, set[str]] | None = None
        #: wait timelines closed by a start (a requeued job closes twice)
        self.waits_closed = 0
        if registry is not None:
            self._expose(registry)

    def _expose(self, registry) -> None:
        """Read the ledger's own counts into ``registry`` at collect time."""
        inflicted = registry.counter(
            "repro_ledger_dyn_inflicted_seconds_total",
            "Delay inflicted on planned queued jobs by dynamic grants [s]",
        )
        closed = registry.counter(
            "repro_ledger_waits_closed_total",
            "Wait timelines closed (jobs started with full attribution)",
        )

        def refresh() -> None:
            for kind, count in self.summary().items():
                registry.counter(
                    "repro_ledger_decisions_total",
                    "Scheduler verdicts recorded in the decision ledger",
                    labels={"kind": kind},
                ).set_total(count)
            # added up in grant order, one float add per grant, as the
            # delay accrued (``sum`` compensates its rounding on 3.12+)
            total = 0.0
            for delay in self._grant_totals.values():
                total += delay
            inflicted.set_total(total)
            closed.set_total(self.waits_closed)

        registry.on_collect(refresh)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_trace(self, trace: TraceLog) -> None:
        """Subscribe to the trace for the job lifecycle events."""
        if self._trace is trace:
            return
        self._trace = trace
        trace.subscribe(self._on_trace_event)

    def _on_trace_event(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind is EventKind.JOB_SUBMIT:
            self._timelines[event.payload["job_id"]] = _WaitTimeline(event.time)
        elif kind is EventKind.JOB_START or kind is EventKind.BACKFILL_START:
            timeline = self._timelines.get(event.payload["job_id"])
            if timeline is not None:
                timeline.close(event.time)
                self.waits_closed += 1
        elif kind is EventKind.NODE_FAIL:
            affected = event.payload.get("affected") or []
            if affected:
                self._node_fail = (
                    event.time,
                    event.payload.get("node"),
                    set(affected),
                )
        elif kind is EventKind.PREEMPT:
            job_id = event.payload["job_id"]
            cause = "requeued"
            pending = self._node_fail
            if (
                pending is not None
                and pending[0] == event.time
                and job_id in pending[2]
            ):
                # this preemption is the failure fan-out, not a scheduler
                # decision: attribute the renewed wait to the NODE_FAIL
                cause = "node_failure_requeued"
                pending[2].discard(job_id)
                if not pending[2]:
                    self._node_fail = None
            timeline = self._timelines.get(job_id)
            if timeline is not None:
                if cause == "node_failure_requeued":
                    lost = (
                        event.time - timeline.started_at
                        if timeline.started_at is not None
                        else 0.0
                    )
                    self._record(
                        DecisionKind.NODE_FAILURE_REQUEUE,
                        event.time,
                        job_id,
                        {"node": pending[1], "lost_seconds": lost},
                    )
                timeline.reopen(event.time, cause=cause)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(
        self, kind: DecisionKind, time: float, job_id: str | None, payload: dict
    ) -> Decision:
        decision = Decision(len(self._decisions) + 1, time, kind, job_id, payload)
        self._decisions.append(decision)
        if job_id is not None:
            self._chain.setdefault(job_id, []).append(decision)
        return decision

    def observe_queue(
        self, now: float, classification: dict[str, tuple[str, str | None]]
    ) -> None:
        """One scheduler pass classified every still-queued job.

        Advances each job's wait timeline to ``now`` under its new cause and
        records a ``throttle_reject`` decision on each throttle *transition*
        (first block, or the binding limit changing) rather than once per
        iteration.
        """
        for job_id, (cause, detail) in classification.items():
            timeline = self._timelines.get(job_id)
            if timeline is None:
                # ledger attached mid-run: open at first sight (attribution
                # then covers [first observation, start) only)
                timeline = self._timelines[job_id] = _WaitTimeline(now)
            timeline.advance(now, cause)
            if cause == "throttled":
                limit = detail or "throttled"
                if self._throttle_state.get(job_id) != limit:
                    self._throttle_state[job_id] = limit
                    self._record(
                        DecisionKind.THROTTLE_REJECT, now, job_id, {"limit": limit}
                    )
            elif job_id in self._throttle_state:
                del self._throttle_state[job_id]

    def note_start(
        self,
        job,
        now: float,
        *,
        backfilled: bool,
        molded: bool,
        cores: int,
        fingerprint: tuple,
        jumped: list[str] | None = None,
        hole_until: float | None = None,
        shard: int | None = None,
    ) -> None:
        """A queued job starts — by priority order or as backfill."""
        self._reservations.pop(job.job_id, None)
        self._throttle_state.pop(job.job_id, None)
        payload: dict[str, Any] = {
            "user": job.user,
            "cores": cores,
            "wait": now - (job.submit_time if job.submit_time is not None else now),
            "molded": molded,
            "profile_fingerprint": list(fingerprint),
        }
        if shard is not None:
            # which scheduler shard planned the start; the static pass
            # passes None where there is one shard and the label says nothing
            payload["shard"] = shard
        if backfilled:
            # the hole: which higher-priority jobs were jumped, and until
            # when the backfilled job provably stays out of their way
            payload["jumped"] = list(jumped or [])
            payload["hole_until"] = hole_until
        self._record(
            DecisionKind.BACKFILL_START if backfilled else DecisionKind.STATIC_START,
            now,
            job.job_id,
            payload,
        )

    def note_reservation(
        self,
        job,
        now: float,
        start: float,
        cores: int,
        waiting_on: Callable[[], list[str]],
        fingerprint: tuple,
        shard: int | None = None,
    ) -> None:
        """A blocked job received a reservation; dedup create vs slide.

        ``waiting_on`` is called only when a record is written: most
        reservations are re-plans at an unchanged start, and listing what
        they wait on walks every active job.
        """
        previous = self._reservations.get(job.job_id)
        self._reservations[job.job_id] = start
        if previous is not None and abs(previous - start) <= ATTRIBUTION_EPSILON:
            return
        payload: dict[str, Any] = {
            "user": job.user,
            "start": start,
            "cores": cores,
            "waiting_on": waiting_on(),
            "profile_fingerprint": list(fingerprint),
        }
        if shard is not None:
            payload["shard"] = shard
        if previous is None:
            self._record(DecisionKind.RESERVATION_CREATE, now, job.job_id, payload)
        else:
            payload["previous_start"] = previous
            payload["slide"] = start - previous
            self._record(DecisionKind.RESERVATION_SLIDE, now, job.job_id, payload)

    def note_dyn_grant(
        self,
        dreq,
        now: float,
        *,
        cores: int,
        victims,
        charged: float,
        policy: str,
        reason: str,
        fingerprint: tuple,
        preempted: list[str] | None = None,
    ) -> str:
        """A dynamic request was granted.

        Records the grant decision with the rigid jobs it displaces and
        charges each victim's measured delay under a fresh ``grant_id`` —
        the unit :meth:`attribution` later reports ``dyn_inflicted`` by.
        """
        from repro.jobs.job import JobFlexibility

        grant_id = f"grant.{len(self._grant_totals) + 1}"
        delayed = [v for v in victims if v.delay > ATTRIBUTION_EPSILON]
        total_delay = sum(v.delay for v in delayed)
        payload: dict[str, Any] = {
            "grant_id": grant_id,
            "user": dreq.job.user,
            "cores": cores,
            "policy": policy,
            "reason": reason,
            "charged": charged,
            "total_delay": total_delay,
            "victims": [
                {
                    "job_id": v.job.job_id,
                    "user": v.job.user,
                    "delay": v.delay,
                    "rigid": v.job.flexibility is JobFlexibility.RIGID,
                    "planned_start": v.planned_start,
                    "delayed_start": v.delayed_start,
                }
                for v in delayed
            ],
            "displaced_rigid": [
                v.job.job_id
                for v in delayed
                if v.job.flexibility is JobFlexibility.RIGID
            ],
            "profile_fingerprint": list(fingerprint),
        }
        if preempted:
            payload["preempted"] = list(preempted)
        decision = self._record(DecisionKind.DYN_GRANT, now, dreq.job.job_id, payload)
        self._grant_totals[grant_id] = total_delay
        for victim in delayed:
            self._charges.setdefault(victim.job.job_id, []).append(
                (grant_id, victim.delay)
            )
            self._chain.setdefault(victim.job.job_id, []).append(decision)
        return grant_id

    def note_dyn_deny(
        self,
        dreq,
        now: float,
        *,
        reason: str,
        deny_kind: str,
        victims,
        policy: str,
        fingerprint: tuple,
    ) -> None:
        """A dynamic request was rejected."""
        delayed = [v for v in victims if v.delay > ATTRIBUTION_EPSILON]
        payload: dict[str, Any] = {
            "user": dreq.job.user,
            "reason": reason,
            "deny_kind": deny_kind,
            "policy": policy,
            "would_delay": [
                {"job_id": v.job.job_id, "delay": v.delay} for v in delayed
            ],
            "profile_fingerprint": list(fingerprint),
        }
        self._record(DecisionKind.DYN_DENY, now, dreq.job.job_id, payload)

    def note_dyn_defer(self, dreq, now: float, *, estimate: float) -> None:
        """A negotiated request was deferred with an availability estimate."""
        self._record(
            DecisionKind.DYN_DEFER,
            now,
            dreq.job.job_id,
            {"user": dreq.job.user, "estimate": estimate, "deadline": dreq.deadline},
        )

    def note_slo_breach(
        self, now: float, job_id: str | None, payload: dict
    ) -> Decision:
        """A declared SLO failed for a closed window (repro.obs.slo).

        ``job_id`` anchors the breach causally — the window's worst-wait
        job for latency objectives, None for fairness-level ones — so
        ``causal_chain``/``why`` can explain a breach the same way they
        explain a wait.
        """
        return self._record(DecisionKind.SLO_BREACH, now, job_id, payload)

    def note_preemption(self, victim, displaced_by, now: float, cores: int) -> None:
        """A backfilled job is preempted to serve a dynamic request."""
        self._record(
            DecisionKind.PREEMPTION,
            now,
            victim.job_id,
            {
                "user": victim.user,
                "cores": cores,
                "displaced_by": displaced_by.job_id,
                "displaced_by_user": displaced_by.user,
            },
        )

    # ------------------------------------------------------------------
    # attribution & causal chains
    # ------------------------------------------------------------------
    def attribution(self, job_id: str, upto: float | None = None) -> dict | None:
        """Decompose a job's wait into named components summing to the wait.

        Components: the timeline buckets (``queued_behind``,
        ``reservation_held``, ``backfill_blocked``, ``throttled``, holds,
        ``dependency_held``, ``requeued``, ``node_failure_requeued``)
        with the dyn-inflicted total
        carved out in ``_CARVE_ORDER``, plus ``dyn_inflicted[grant_id]``
        entries echoing the grant-time measurements, plus a signed
        ``plan_drift`` correction when the measured plan delay exceeds the
        carveable realized wait.  ``sum(components) + sum(dyn_inflicted)``
        equals the measured wait exactly (up to float associativity,
        well inside 1e-9).  Returns None for unknown jobs; for still-queued
        jobs pass ``upto=now`` to attribute the wait so far.
        """
        timeline = self._timelines.get(job_id)
        if timeline is None:
            return None
        segments = dict(timeline.segments)
        if timeline.open:
            if upto is None:
                return None  # job never started and no horizon given
            extra = upto - timeline.last_time
            if extra > 0:
                segments[timeline.cause] = segments.get(timeline.cause, 0.0) + extra
        dyn: dict[str, float] = {}
        for grant_id, delay in self._charges.get(job_id, ()):
            dyn[grant_id] = dyn.get(grant_id, 0.0) + delay
        inflicted = sum(dyn.values())
        remaining = inflicted
        for bucket in _CARVE_ORDER:
            if remaining <= 0:
                break
            take = min(segments.get(bucket, 0.0), remaining)
            if take > 0:
                segments[bucket] -= take
                remaining -= take
        components = {name: value for name, value in segments.items() if value != 0.0}
        if remaining > 0:
            # the realized schedule beat the grant-time plan: the measured
            # plan delay exceeds the job's attributable wait, so a signed
            # correction keeps the components summing to the real wait
            components["plan_drift"] = -remaining
        wait = sum(components.values()) + inflicted
        return {
            "job_id": job_id,
            "submitted": timeline.submitted,
            "started": timeline.started_at,
            "wait": wait,
            "components": components,
            "dyn_inflicted": dyn,
        }

    def causal_chain(self, job_id: str) -> list[dict]:
        """Every decision causally involving the job, in decision order.

        Includes verdicts *about* the job (its start, its reservations,
        throttle blocks, its preemption) and dynamic grants that listed the
        job as a delay victim.
        """
        return [d.to_dict() for d in self._chain.get(job_id, [])]

    def decisions_for(self, job_id: str) -> list[Decision]:
        """Decisions whose subject is the job (victim links excluded)."""
        return [d for d in self._chain.get(job_id, []) if d.job_id == job_id]

    # ------------------------------------------------------------------
    # queries & export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._decisions)

    def of_kind(self, kind: DecisionKind) -> list[Decision]:
        return [d for d in self._decisions if d.kind is kind]

    def grants(self) -> list[Decision]:
        """All grant decisions."""
        return self.of_kind(DecisionKind.DYN_GRANT)

    def grant_total(self, grant_id: str) -> float:
        """Total delay measured for a grant when it was made."""
        return self._grant_totals[grant_id]

    def summary(self) -> dict[str, int]:
        """Decision counts per kind (only kinds that occurred)."""
        counts: dict[str, int] = {}
        for decision in self._decisions:
            counts[decision.kind.value] = counts.get(decision.kind.value, 0) + 1
        return counts

    def most_delayed_job(self) -> str | None:
        """The job with the largest dyn-inflicted total; falls back to the
        worst closed wait when no grant ever delayed anyone."""
        best_id, best_delay = None, 0.0
        for job_id, charges in self._charges.items():
            total = sum(delay for _, delay in charges)
            if total > best_delay:
                best_id, best_delay = job_id, total
        if best_id is not None:
            return best_id
        best_wait = -1.0
        for job_id, timeline in self._timelines.items():
            if timeline.started_at is None:
                continue
            wait = timeline.started_at - timeline.submitted
            if wait > best_wait:
                best_id, best_wait = job_id, wait
        return best_id

    def export_jsonl(self, path: str | Path) -> int:
        """One JSON object per decision; returns the decision count."""
        path = Path(path)
        with path.open("w") as fh:
            for decision in self._decisions:
                fh.write(json.dumps(decision.to_dict()) + "\n")
        return len(self._decisions)

    def __repr__(self) -> str:
        return (
            f"<DecisionLedger {len(self._decisions)} decisions, "
            f"{len(self._grant_totals)} grants, {len(self._timelines)} timelines>"
        )


def load_ledger_jsonl(source: str | Path) -> DecisionLedger:
    """Rebuild a ledger from its :meth:`DecisionLedger.export_jsonl` dump.

    Decisions, causal chains (subject *and* victim links) and the
    per-grant delay charges are all reconstructed, so ``summary()``,
    ``causal_chain()``, ``grants()`` and ``most_delayed_job()`` work
    offline exactly as they do live.  Wait *timelines* are not in the
    dump — they follow the lifecycle trace — so :meth:`attribution`
    returns None for every job; pair the ledger with its trace export
    when attribution is needed.

    Raises :class:`ValueError` (with the offending line number) on a
    malformed row, and whatever ``open`` raises on an unreadable path.
    """
    path = Path(source)
    ledger = DecisionLedger()
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                decision = Decision(
                    seq=int(row["seq"]),
                    time=float(row["t"]),
                    kind=DecisionKind(row["kind"]),
                    job_id=row.get("job_id"),
                    payload=dict(row.get("payload") or {}),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed ledger row ({exc})") from exc
            ledger._decisions.append(decision)
            if decision.job_id is not None:
                ledger._chain.setdefault(decision.job_id, []).append(decision)
            if decision.kind is DecisionKind.DYN_GRANT:
                grant_id = decision.payload.get("grant_id")
                if grant_id is not None:
                    ledger._grant_totals[grant_id] = float(
                        decision.payload.get("total_delay", 0.0)
                    )
                    for victim in decision.payload.get("victims", ()):
                        victim_id = victim.get("job_id")
                        if victim_id is None:
                            continue
                        ledger._charges.setdefault(victim_id, []).append(
                            (grant_id, float(victim.get("delay", 0.0)))
                        )
                        if victim_id != decision.job_id:
                            ledger._chain.setdefault(victim_id, []).append(decision)
    return ledger

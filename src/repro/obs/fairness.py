"""Fairness observatory: per-account share trajectories and Jain's index.

The paper's headline claim is *fair* scheduling, yet the rest of
``repro.obs`` measures speed and causality only.  This module closes that
gap by sampling the fairshare state the scheduler already maintains
incrementally (:class:`repro.maui.priority.FairshareTracker`) into
per-account share-usage time series, and deriving from them:

* **Jain's fairness index** over target-normalized shares,
  ``J = (sum x)^2 / (n * sum x^2)`` with ``x_p = share_p / target_p`` —
  1.0 means every account sits exactly on its target share;
* **max share error**: the worst ``|actual share - target share|``
  across accounts at each sample;
* exact (undecayed) per-account **used core-seconds**, accrued from the
  fairshare tracker's folds (one per change of a job's cores).

Jobs are keyed by :func:`principal_of`: the job's account unless it is
the ``"default"`` placeholder, else its user — the standard
fairshare-tree defaulting, which makes the observatory meaningful on
workloads that never set accounts (ESP's ``user01``..``user10``, SWF's
``swf_userNNN``) without touching them.

Memory is bounded: the sample series decimates itself (drop every other
point, double the stride) once it reaches ``max_points``, so a 100k-job
replay holds O(accounts + max_points) fairness state — the same
fold-and-discard contract as :mod:`repro.obs.windows`.

Contract (same as the rest of ``repro.obs``): off by default —
``Telemetry(fairness=True)`` opts in, the scheduler hook sites are a
single ``self._fair is not None`` check, and an instrumented run is
bit-identical to a disabled one on ``(submit, start, end, state)``.
"""

from __future__ import annotations

import json
from functools import partial
from typing import IO

__all__ = ["FairnessObservatory", "principal_of", "jain_index"]

#: default sim-seconds between share samples (gated on the scheduler's
#: statistics updates, so actual spacing is at least this)
DEFAULT_SAMPLE_INTERVAL = 300.0


def principal_of(job) -> str:
    """The fairness principal a job charges: account, else user.

    ``Job.account`` defaults to the ``"default"`` placeholder; standard
    fairshare-tree semantics fall back to the user in that case (and for
    an empty or unset account), so existing workloads group per-user
    without modification.  ``job`` may also be a
    :class:`~repro.workloads.spec.JobSpec`: the scheduler service throttles
    admission by this same principal.
    """
    account = job.account
    if account and account != "default":
        return account
    return job.user


def jain_index(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` of non-negative
    values: 1.0 when all are equal, empty or all zero, 1/n when one value
    holds everything."""
    total = 0.0
    square = 0.0
    n = 0
    for x in values:
        if x < 0:
            raise ValueError("fairness index needs non-negative values")
        total += x
        square += x * x
        n += 1
    if n == 0 or square == 0.0:
        return 1.0
    return (total * total) / (n * square)


class FairnessObservatory:
    """Per-account share tracking fed by the scheduler's fairshare tracker.

    The tracker calls :meth:`accrue` at every fold it makes — one per
    change of a job's cores (exact core-seconds, no decay) — and the
    scheduler calls :meth:`sample` after each tracker roll; sampling is
    gated by ``sample_interval`` in sim-time so hot statistics updates
    stay cheap.
    """

    def __init__(
        self,
        *,
        registry=None,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
        max_points: int = 2048,
        share_targets: dict[str, float] | None = None,
    ) -> None:
        if sample_interval <= 0:
            raise ValueError(f"sample interval must be positive: {sample_interval}")
        if max_points < 2:
            raise ValueError(f"max_points must be at least 2: {max_points}")
        self.sample_interval = float(sample_interval)
        self.max_points = int(max_points)
        #: explicit share weights per principal (normalized over the
        #: principals actually seen); unnamed principals weigh 1.0
        self.share_targets = dict(share_targets) if share_targets else {}
        #: user -> principal mapping learned from accrued jobs
        self._principals: dict[str, str] = {}
        #: (sorted users, sorted distinct principals) of ``_principals``;
        #: dropped when a new user appears, so samples do not re-sort
        self._order: tuple[list[str], list[str]] | None = None
        #: exact per-principal core-seconds (no decay — the audit number)
        self.core_seconds: dict[str, float] = {}
        self.accruals = 0
        #: share samples: {"t", "jain", "max_share_error", "shares"} dicts
        #: in sim-time order, self-decimating at ``max_points``
        self.samples: list[dict] = []
        self.decimations = 0
        self._next_sample = 0.0
        self._tracker = None
        self._windows = None
        self.latest: dict | None = None
        if registry is not None:
            self._expose(registry)

    def _expose(self, registry) -> None:
        """Read the latest sample into ``registry`` at collect time."""
        for name, key, help_text in (
            ("repro_fairness_jain_index", "jain",
             "Jain's fairness index over target-normalized account shares"),
            ("repro_fairness_max_share_error", "max_share_error",
             "Worst |actual - target| share across accounts"),
        ):
            registry.gauge(name, help_text, callback=partial(self._latest, key))
        samples = registry.counter(
            "repro_fairness_samples_total", "Fairness share samples taken"
        )

        def refresh() -> None:
            # each decimation dropped max_points // 2 of the samples taken
            samples.set_total(
                len(self.samples) + self.decimations * (self.max_points // 2)
            )
            # a principal, once sampled, is in every later sample; its
            # target is the one that sample measured it against
            for p in self.latest["shares"] if self.latest is not None else ():
                labels = {"account": p}
                registry.gauge(
                    "repro_fairness_share", "Account share of decayed fairshare usage",
                    labels=labels, callback=lambda p=p: self.latest["shares"][p],
                )
                registry.gauge(
                    "repro_fairness_share_target", "Normalized target share for the account",
                    labels=labels,
                    callback=lambda p=p: self._normalized(self.latest["shares"])[p],
                )

        registry.on_collect(refresh)

    def _latest(self, key: str) -> float:
        return self.latest[key] if self.latest is not None else 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_windows(self, windows) -> None:
        """Adopt a grouped WindowedMetrics for per-account job statistics."""
        self._windows = windows

    # ------------------------------------------------------------------
    # scheduler feed
    # ------------------------------------------------------------------
    def accrue(self, job, core_seconds: float) -> None:
        """The tracker folded ``core_seconds`` of ``job``'s user (0.0 when
        the user held no cores; its first start is where its principal is
        learned)."""
        principal = self._principals.get(job.user)
        if principal is None:
            principal = self._principals[job.user] = principal_of(job)
            self._order = None
        self.core_seconds[principal] = (
            self.core_seconds.get(principal, 0.0) + core_seconds
        )
        self.accruals += 1

    def _sorted(self) -> tuple[list[str], list[str]]:
        order = self._order
        if order is None:
            order = self._order = (
                sorted(self._principals),
                sorted(set(self._principals.values())),
            )
        return order

    def targets(self) -> dict[str, float]:
        """Normalized target share per principal seen so far."""
        return self._normalized(self._sorted()[1])

    def _normalized(self, principals) -> dict[str, float]:
        if not principals:
            return {}
        weights = {p: float(self.share_targets.get(p, 1.0)) for p in principals}
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("share targets must have positive total weight")
        return {p: w / total for p, w in weights.items()}

    def compute(self, tracker) -> dict[str, float] | None:
        """Decayed usage share per principal from the fairshare tracker;
        None until some usage has accrued (a principal is learned at its
        first start, before it has used anything)."""
        if not self._principals:
            return None
        users, principals = self._sorted()
        usage: dict[str, float] = {}
        for user in users:
            principal = self._principals[user]
            usage[principal] = usage.get(principal, 0.0) + tracker.usage(user)
        total = sum(usage.values())
        if total > 0:
            return {p: usage[p] / total for p in principals}
        return None

    def sample(self, now: float, tracker, *, force: bool = False) -> bool:
        """Take a share sample at sim-time ``now`` (interval-gated)."""
        self._tracker = tracker
        if not force and now < self._next_sample:
            return False
        shares = self.compute(tracker)
        if shares is None:
            return False
        self._next_sample = now + self.sample_interval
        targets = self.targets()
        jain = jain_index(
            shares[p] / targets[p] for p in shares if targets[p] > 0
        )
        max_error = max(abs(shares[p] - targets[p]) for p in shares)
        self.latest = {
            "t": now,
            "jain": jain,
            "max_share_error": max_error,
            "shares": shares,
        }
        self.samples.append(self.latest)
        if len(self.samples) >= self.max_points:
            # fold-and-discard: halve the series, double the stride —
            # deterministic in sim time, memory stays O(max_points)
            del self.samples[1::2]
            self.sample_interval *= 2.0
            self.decimations += 1
        return True

    def finalize(self, now: float) -> None:
        """Force a final sample at run end (no-op before any accrual)."""
        if self._tracker is not None:
            self.sample(now, self._tracker, force=True)

    # ------------------------------------------------------------------
    # queries & export
    # ------------------------------------------------------------------
    @property
    def principals(self) -> list[str]:
        """All principals seen, sorted."""
        return list(self._sorted()[1])

    def account_rows(self) -> list[dict]:
        """Per-account summary rows (the `metrics` CLI table).

        Merges exact core-seconds and the latest share/target with the
        grouped window statistics when a grouped
        :class:`~repro.obs.windows.WindowedMetrics` is attached.
        """
        targets = self.targets()
        shares = (self.latest or {}).get("shares", {})
        groups = self._windows.groups if self._windows is not None else {}
        rows = []
        for principal in self.principals:
            row = {
                "account": principal,
                "core_seconds": self.core_seconds.get(principal, 0.0),
                "share": shares.get(principal),
                "target": targets.get(principal),
            }
            if row["share"] is not None and row["target"] is not None:
                row["share_error"] = abs(row["share"] - row["target"])
            group = groups.get(principal)
            if group is not None:
                row["jobs"] = group.jobs
                row["completed"] = group.completed
                row["mean_wait"] = group.wait.mean
                row["mean_stretch"] = group.stretch.mean
            rows.append(row)
        return rows

    def summary(self) -> dict:
        """Whole-run fairness summary (from the latest sample)."""
        latest = self.latest or {}
        return {
            "accounts": len(self.principals),
            "accruals": self.accruals,
            "samples": len(self.samples),
            "decimations": self.decimations,
            "jain": latest.get("jain"),
            "max_share_error": latest.get("max_share_error"),
            "total_core_seconds": sum(self.core_seconds.values()),
        }

    def export_jsonl(self, fp: IO[str]) -> int:
        """Dump meta + summary + per-account rows + share samples."""
        lines = [
            {
                "kind": "meta",
                "schema": "repro-fairness/1",
                "sample_interval": self.sample_interval,
                "max_points": self.max_points,
                "targets": {
                    k: self.share_targets[k] for k in sorted(self.share_targets)
                },
            },
            {"kind": "summary", **self.summary()},
        ]
        lines.extend({"kind": "account", **row} for row in self.account_rows())
        lines.extend({"kind": "sample", **sample} for sample in self.samples)
        for line in lines:
            fp.write(json.dumps(line, separators=(",", ":")) + "\n")
        return len(lines)

    def __repr__(self) -> str:
        return (
            f"<FairnessObservatory accounts={len(self.principals)} "
            f"samples={len(self.samples)} accruals={self.accruals}>"
        )

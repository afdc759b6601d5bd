"""Transient TM-layer faults: grant delivery drops.

The server consults an attached :class:`TransientFaults` at every grant
delivery attempt (initial and retries); the object owns its own seeded
RNG stream — consumption order equals grant order, which the engine
makes deterministic — and the retry policy parameters.
"""

from __future__ import annotations

import random

from repro.faults.model import FaultModel
from repro.obs.instruments import DELIVERY_COUNTERS, mirror_stats

__all__ = ["TransientFaults"]


class TransientFaults:
    """Seeded drop decisions plus the retry/backoff policy.

    ``stats`` counts drops, scheduled retries and degraded requests; with
    telemetry enabled the ``repro_faults_delivery_*`` counters read it.
    """

    def __init__(self, model: FaultModel, *, telemetry=None) -> None:
        self.model = model
        self._rng = random.Random(f"{model.seed}:delivery")
        self.max_retries = model.delivery_max_retries
        self.backoff = model.delivery_retry_backoff
        self.stats = {
            "delivery_drops": 0,
            "delivery_retries": 0,
            "delivery_degraded": 0,
        }
        mirror_stats(telemetry, DELIVERY_COUNTERS, self.stats)

    def drop_delivery(self, job_id: str, attempt: int) -> bool:
        """Should this delivery attempt be dropped?  (Consumes one draw.)"""
        if self.model.grant_delivery_failure_rate <= 0.0:
            return False
        drop = self._rng.random() < self.model.grant_delivery_failure_rate
        if drop:
            self.stats["delivery_drops"] += 1
        return drop

    def retry_delay(self, attempt: int) -> float:
        """Backoff before the attempt after ``attempt`` (1-based) failed."""
        return self.backoff * (2.0 ** (attempt - 1))

    def note_retry(self) -> None:
        self.stats["delivery_retries"] += 1

    def note_degraded(self) -> None:
        self.stats["delivery_degraded"] += 1

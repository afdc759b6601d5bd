"""The always-on scheduler service (ROADMAP item 2).

The policy core that ``BatchSystem`` used to own lives here now
(:class:`PolicyCore`), behind a pluggable :class:`Backend` and an
asyncio-driven :class:`SchedulerService` front-end: submit, cancel, query
and negotiate dynamic grants from many concurrent tenants, with
per-account admission throttling.  The discrete-event simulator is the
first backend (:class:`SimBackend`, bit-identical to direct
``BatchSystem`` runs); :class:`ReplayBackend` shadow-schedules recorded
event streams on the road to digital-twin mode.  See ``docs/SERVICE.md``.
"""

from repro.service.api import (
    AdmissionError,
    AdmissionPolicy,
    GrowResult,
    JobInfo,
    QueueInfo,
    ServiceClosed,
    ServiceError,
    UnknownJob,
)
from repro.obs.fairness import principal_of
from repro.service.backend import (
    Backend,
    ReplayBackend,
    SimBackend,
    parse_request,
)
from repro.service.core import PolicyCore
from repro.service.service import SchedulerService

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "Backend",
    "GrowResult",
    "JobInfo",
    "PolicyCore",
    "QueueInfo",
    "ReplayBackend",
    "SchedulerService",
    "ServiceClosed",
    "ServiceError",
    "SimBackend",
    "UnknownJob",
    "parse_request",
    "principal_of",
]

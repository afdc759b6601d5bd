"""The Maui-style scheduler with the paper's dynamic extensions.

* :mod:`repro.maui.scheduler` — Algorithm 1 (static iteration) and
  Algorithm 2 (extended iteration with dynamic requests)
* :mod:`repro.maui.staticpass` — static starts, reservations and the
  inline backfill, per shard (:mod:`repro.maui.shards`) on cached
  availability profiles (:mod:`repro.maui.profiles`)
* :mod:`repro.maui.fairness` — the dynamic fairness (DFS) policies
* :mod:`repro.maui.delay` — delay measurement against hypothetical grants
* :mod:`repro.maui.reservations` — priority scheduling plan,
  StartNow/StartLater classification
* :mod:`repro.maui.priority` — job prioritisation and static fairshare
* :mod:`repro.maui.config` — configuration model + Maui config-file parser
* :mod:`repro.maui.preemption`, :mod:`repro.maui.partition` — optional
  resource sources for dynamic requests (paper Section II-B)
"""

from repro.maui.config import (
    DFSConfig,
    DFSPolicy,
    MauiConfig,
    PrincipalLimits,
    parse_maui_config,
)
from repro.maui.fairness import DFSLedger
from repro.maui.priority import FairshareTracker, PriorityWeights, Prioritizer
from repro.maui.reservations import AdminReservation, PlannedJob, StaticPlan, plan_static
from repro.maui.scheduler import MauiScheduler

__all__ = [
    "AdminReservation",
    "DFSConfig",
    "DFSLedger",
    "DFSPolicy",
    "FairshareTracker",
    "MauiConfig",
    "MauiScheduler",
    "PlannedJob",
    "PrincipalLimits",
    "Prioritizer",
    "PriorityWeights",
    "StaticPlan",
    "parse_maui_config",
    "plan_static",
]

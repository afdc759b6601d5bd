"""The paper's four evaluation configurations (Section IV-B).

* **Static** — F-J jobs acquire no dynamic resources (plain Algorithm 1);
* **Dyn-HP** — dynamic allocation with fairness disabled: dynamic requests
  effectively have the highest priority;
* **Dyn-500** — cumulative delay per static user capped at 500 s per 1 h
  interval (``DFSTargetDelay``);
* **Dyn-600** — same with a 600 s cap.

All four use ``ReservationDepth = ReservationDelayDepth = 5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.maui.config import DFSConfig, MauiConfig

__all__ = [
    "ESPConfiguration",
    "STATIC",
    "DYN_HP",
    "DYN_500",
    "DYN_600",
    "all_configurations",
    "configuration",
    "dynamic_target_config",
]


@dataclass(frozen=True)
class ESPConfiguration:
    """A named (scheduler config, workload variant) pair."""

    name: str
    maui: MauiConfig
    #: True → types F-J evolve (issue dynamic requests); False → all rigid
    dynamic_workload: bool
    paper_reference: dict[str, float] = field(default_factory=dict)


def _base_maui(**overrides) -> MauiConfig:
    return MauiConfig(reservation_depth=5, reservation_delay_depth=5, **overrides)


def dynamic_target_config(limit_seconds: float) -> MauiConfig:
    """Dyn-<limit>: cumulative per-user delay cap per one-hour interval."""
    return _base_maui(
        dfs=DFSConfig.target_delay_for_all(limit_seconds, interval=3600.0, decay=0.0)
    )


STATIC = ESPConfiguration(
    name="Static",
    maui=_base_maui(dynamic_enabled=False),
    dynamic_workload=False,
    paper_reference={
        "time_min": 265.78,
        "satisfied": 0,
        "util_pct": 77.45,
        "throughput": 0.86,
    },
)

DYN_HP = ESPConfiguration(
    name="Dyn-HP",
    maui=_base_maui(),  # DFSPolicy defaults to NONE: highest priority
    dynamic_workload=True,
    paper_reference={
        "time_min": 238.78,
        "satisfied": 43,
        "util_pct": 85.02,
        "throughput": 0.96,
        "tp_increase_pct": 11.3,
    },
)

DYN_500 = ESPConfiguration(
    name="Dyn-500",
    maui=dynamic_target_config(500.0),
    dynamic_workload=True,
    paper_reference={
        "time_min": 248.85,
        "satisfied": 20,
        "util_pct": 82.26,
        "throughput": 0.92,
        "tp_increase_pct": 6.8,
    },
)

DYN_600 = ESPConfiguration(
    name="Dyn-600",
    maui=dynamic_target_config(600.0),
    dynamic_workload=True,
    paper_reference={
        "time_min": 241.06,
        "satisfied": 27,
        "util_pct": 83.57,
        "throughput": 0.95,
        "tp_increase_pct": 10.2,
    },
)


def all_configurations() -> list[ESPConfiguration]:
    """Table II rows in paper order."""
    return [STATIC, DYN_HP, DYN_500, DYN_600]


def configuration(name: str) -> ESPConfiguration:
    """The configuration whose Table II row label is ``name``."""
    configurations = all_configurations()
    for candidate in configurations:
        if candidate.name == name:
            return candidate
    valid = ", ".join(c.name for c in configurations)
    raise ValueError(f"unknown ESP configuration {name!r}; expected one of {valid}")

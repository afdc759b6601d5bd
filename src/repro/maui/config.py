"""Scheduler configuration, including the paper's dynamic fairness parameters.

Two entry points:

* build a :class:`MauiConfig` programmatically (what the experiment harness
  does), or
* parse Maui's configuration-file dialect with :func:`parse_maui_config` —
  the exact format of the paper's Fig. 6, with ``USERCFG[...]`` /
  ``GROUPCFG[...]`` lines, ``HH:MM:SS`` durations, ``\\`` line continuations
  and ``#`` comments.

Limit semantics follow Fig. 6: a configured delay-time of **0 means
unlimited** (user01 may be delayed arbitrarily long per job; user03 has no
cumulative cap).  Internally we normalise that to ``UNLIMITED`` so arithmetic
can't confuse "zero seconds allowed" with "no cap".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.units import UNLIMITED, parse_duration

__all__ = [
    "DFSPolicy",
    "PrincipalLimits",
    "DFSConfig",
    "MauiConfig",
    "parse_maui_config",
]


class DFSPolicy(enum.Enum):
    """The ``DFSPolicy`` parameter (paper Section III-D)."""

    NONE = "NONE"
    SINGLE_JOB_DELAY = "DFSSINGLEJOBDELAY"
    TARGET_DELAY = "DFSTARGETDELAY"
    SINGLE_AND_TARGET_DELAY = "DFSSINGLEANDTARGETDELAY"

    @classmethod
    def parse(cls, text: str) -> "DFSPolicy":
        token = text.strip().upper()
        aliases = {
            "DFSSINGLETARGETDELAY": cls.SINGLE_AND_TARGET_DELAY,  # paper's alt name
        }
        if token in aliases:
            return aliases[token]
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown DFSPolicy: {text!r}")

    @property
    def checks_single(self) -> bool:
        return self in (DFSPolicy.SINGLE_JOB_DELAY, DFSPolicy.SINGLE_AND_TARGET_DELAY)

    @property
    def checks_target(self) -> bool:
        return self in (DFSPolicy.TARGET_DELAY, DFSPolicy.SINGLE_AND_TARGET_DELAY)


@dataclass(frozen=True, slots=True)
class PrincipalLimits:
    """DFS limits for one principal (user, group, account, class or QoS).

    :param dyn_delay_perm: may this principal's jobs be delayed by dynamic
        allocations at all (``DFSDYNDELAYPERM``, default allow)?
    :param target_delay_time: cumulative delay cap per DFS interval
        (``DFSTARGETDELAYTIME``); :data:`~repro.units.UNLIMITED` = no cap.
    :param single_delay_time: per-job delay cap (``DFSSINGLEDELAYTIME``).
    """

    dyn_delay_perm: bool = True
    target_delay_time: float = UNLIMITED
    single_delay_time: float = UNLIMITED


def _normalise_limit(value: float) -> float:
    """Fig. 6 semantics: a configured 0 disables the limit."""
    return UNLIMITED if value == 0 else value


@dataclass
class DFSConfig:
    """The dynamic fairness configuration block."""

    policy: DFSPolicy = DFSPolicy.NONE
    #: ``DFSINTERVAL`` — accounting interval for cumulative (target) delays.
    interval: float = 3600.0
    #: ``DFSDECAY`` — fraction of the accumulated delay carried into the next
    #: interval (paper example: 3600 s × 0.2 → 720 s carried over).
    decay: float = 0.0
    users: dict[str, PrincipalLimits] = field(default_factory=dict)
    groups: dict[str, PrincipalLimits] = field(default_factory=dict)
    accounts: dict[str, PrincipalLimits] = field(default_factory=dict)
    classes: dict[str, PrincipalLimits] = field(default_factory=dict)
    qos: dict[str, PrincipalLimits] = field(default_factory=dict)
    #: applied to users with no explicit USERCFG entry
    default_user: PrincipalLimits = field(default_factory=PrincipalLimits)

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"DFSInterval must be positive: {self.interval}")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"DFSDecay must be in [0, 1]: {self.decay}")

    @classmethod
    def target_delay_for_all(
        cls, limit_seconds: float, interval: float = 3600.0, decay: float = 0.0
    ) -> "DFSConfig":
        """The paper's Dyn-500 / Dyn-600 setup: one cumulative cap for every
        static user per interval."""
        return cls(
            policy=DFSPolicy.TARGET_DELAY,
            interval=interval,
            decay=decay,
            default_user=PrincipalLimits(target_delay_time=limit_seconds),
        )

    def limits_for(
        self,
        *,
        user: str,
        group: str | None = None,
        account: str | None = None,
        job_class: str | None = None,
        qos: str | None = None,
    ) -> list[tuple[str, str, PrincipalLimits]]:
        """All configured limit records applying to a job, most-specific first.

        Each entry is ``(kind, name, limits)``.  The user entry always exists
        (falling back to ``default_user``); group/account/class/qos entries
        appear only when explicitly configured — "when user and group limits
        are specified …, the most restrictive limits are used" (Section III-D).
        """
        records: list[tuple[str, str, PrincipalLimits]] = [
            ("user", user, self.users.get(user, self.default_user))
        ]
        for kind, name, table in (
            ("group", group, self.groups),
            ("account", account, self.accounts),
            ("class", job_class, self.classes),
            ("qos", qos, self.qos),
        ):
            if name is not None and name in table:
                records.append((kind, name, table[name]))
        return records


@dataclass
class MauiConfig:
    """Full scheduler configuration."""

    #: number of StartLater jobs that receive reservations (backfill control)
    reservation_depth: int = 1
    #: number of StartLater jobs whose delays are measured (paper's new knob)
    reservation_delay_depth: int = 1
    dfs: DFSConfig = field(default_factory=DFSConfig)
    #: False → plain Maui (Algorithm 1): every dynamic request is rejected.
    dynamic_enabled: bool = True
    backfill_enabled: bool = True
    #: preempt backfilled jobs to serve dynamic requests (Section II-B)
    preemption_for_dynamic: bool = False
    #: shrink running malleable jobs to serve dynamic requests (Section
    #: II-B resource source #3); tried after idle resources, before
    #: preemption
    malleable_steal_for_dynamic: bool = False
    #: reserve the "dynamic" partition for dynamic requests (Section II-B)
    use_dynamic_partition: bool = False
    #: throttling policies (Maui MAXJOB / MAXIJOB, the "minimum scheduling
    #: criterion" of Algorithm 1 step 6): caps per user on running jobs and
    #: on queued jobs considered for scheduling; None = unlimited
    max_running_jobs_per_user: int | None = None
    max_eligible_jobs_per_user: int | None = None
    #: ordering of pending dynamic requests: "fifo" (the paper's choice),
    #: "fairshare" (users with the least decayed usage first — the outlook's
    #: "fair prioritization mechanism between dynamic requests"), or
    #: "smallest_first" (cheapest requests first, maximising grant count)
    dynamic_request_order: str = "fifo"
    weights: "PriorityWeightsConfig" = field(default_factory=lambda: PriorityWeightsConfig())
    #: per-partition scheduler sharding: number of shards each static
    #: partition is split into (``repro.maui.shards``).  Every shard plans
    #: independently and keeps its plan between passes, at 1 (the default)
    #: as at N; a job no single shard can host plans on their merge.
    scheduler_shards: int = 1
    #: optional periodic wake-up (Maui's polling timer); None = purely
    #: event-driven, which is sufficient for deterministic simulation.
    timer_interval: float | None = None
    #: standing administrative reservations (maintenance windows); static
    #: scheduling plans around them and dynamic grants avoid their nodes
    admin_reservations: tuple = ()

    def __post_init__(self) -> None:
        if self.reservation_depth < 0 or self.reservation_delay_depth < 0:
            raise ValueError("depths must be non-negative")
        if self.scheduler_shards < 1:
            raise ValueError(
                f"scheduler_shards must be >= 1: {self.scheduler_shards}"
            )
        for cap in (self.max_running_jobs_per_user, self.max_eligible_jobs_per_user):
            if cap is not None and cap < 1:
                raise ValueError(f"throttling caps must be >= 1: {cap}")
        if self.dynamic_request_order not in ("fifo", "fairshare", "smallest_first"):
            raise ValueError(
                f"unknown dynamic_request_order: {self.dynamic_request_order!r}"
            )

    @property
    def plan_depth(self) -> int:
        """StartLater jobs to plan: max(ReservationDepth, ReservationDelayDepth)."""
        return max(self.reservation_depth, self.reservation_delay_depth)


@dataclass(frozen=True)
class PriorityWeightsConfig:
    """Weights for the static priority factors (after Maui's factor model).

    * ``queue_time`` — seconds waited (FIFO pressure);
    * ``expansion_factor`` — Maui's XFactor, ``(wait + walltime)/walltime``:
      boosts short jobs that have waited disproportionately long;
    * ``fairshare`` — bonus for users with little recent decayed usage;
    * ``service`` — size-proportional boost (favours wide jobs);
    * ``credential`` — scales per-user weights from ``user_priorities``.
    """

    queue_time: float = 1.0
    expansion_factor: float = 0.0
    fairshare: float = 0.0
    service: float = 0.0
    credential: float = 0.0
    user_priorities: dict = field(default_factory=dict)
    fairshare_interval: float = 24 * 3600.0
    fairshare_decay: float = 0.5


# ----------------------------------------------------------------------
# Maui configuration-file dialect (Fig. 6)
# ----------------------------------------------------------------------

_CFG_TABLES = {
    "USERCFG": "users",
    "GROUPCFG": "groups",
    "ACCOUNTCFG": "accounts",
    "CLASSCFG": "classes",
    "QOSCFG": "qos",
}


def _parse_principal_tokens(tokens: list[str], base: PrincipalLimits) -> PrincipalLimits:
    limits = base
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected KEY=VALUE, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip().upper()
        value = value.strip()
        if key == "DFSDYNDELAYPERM":
            if value not in ("0", "1"):
                raise ValueError(f"DFSDYNDELAYPERM must be 0 or 1, got {value!r}")
            limits = replace(limits, dyn_delay_perm=value == "1")
        elif key == "DFSTARGETDELAYTIME":
            limits = replace(
                limits, target_delay_time=_normalise_limit(parse_duration(value))
            )
        elif key == "DFSSINGLEDELAYTIME":
            limits = replace(
                limits, single_delay_time=_normalise_limit(parse_duration(value))
            )
        else:
            raise ValueError(f"unknown principal parameter: {key}")
    return limits


def parse_maui_config(text: str, base: MauiConfig | None = None) -> MauiConfig:
    """Parse Maui-dialect configuration text into a :class:`MauiConfig`.

    Supports the parameters used in the paper: ``DFSPOLICY``,
    ``DFSINTERVAL``, ``DFSDECAY``, ``RESERVATIONDEPTH``,
    ``RESERVATIONDELAYDEPTH``, ``BACKFILLPOLICY`` (``FIRSTFIT``/``NONE``) and
    the per-principal ``USERCFG[...]`` / ``GROUPCFG[...]`` /
    ``ACCOUNTCFG[...]`` / ``CLASSCFG[...]`` / ``QOSCFG[...]`` tables.
    Unknown top-level parameters raise ``ValueError`` — silent typos in
    fairness configuration are how starvation bugs ship.
    """
    config = base if base is not None else MauiConfig()
    dfs = config.dfs

    # join continuation lines, strip comments
    logical_lines: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not pending:
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        logical_lines.append((pending + line).strip())
        pending = ""
    if pending.strip():
        logical_lines.append(pending.strip())

    for line in logical_lines:
        if not line:
            continue
        parts = line.split()
        keyword = parts[0].upper()
        rest = parts[1:]
        # principal names keep their original case; only the prefix folds
        table_match = next(
            (
                (attr, parts[0][len(prefix) + 1 : -1])
                for prefix, attr in _CFG_TABLES.items()
                if keyword.startswith(prefix + "[") and keyword.endswith("]")
            ),
            None,
        )
        if table_match is not None:
            attr, name = table_match
            if not name:
                raise ValueError(f"empty principal name in {line!r}")
            table: dict[str, PrincipalLimits] = getattr(dfs, attr)
            table[name] = _parse_principal_tokens(rest, table.get(name, PrincipalLimits()))
            continue
        if len(rest) != 1:
            raise ValueError(f"expected one value for {keyword}: {line!r}")
        value = rest[0]
        if keyword == "DFSPOLICY":
            dfs.policy = DFSPolicy.parse(value)
        elif keyword == "DFSINTERVAL":
            dfs.interval = parse_duration(value)
        elif keyword == "DFSDECAY":
            dfs.decay = float(value)
        elif keyword == "RESERVATIONDEPTH":
            config.reservation_depth = int(value)
        elif keyword == "RESERVATIONDELAYDEPTH":
            config.reservation_delay_depth = int(value)
        elif keyword == "SCHEDULERSHARDS":
            config.scheduler_shards = int(value)
        elif keyword == "BACKFILLPOLICY":
            policy = value.upper()
            if policy not in ("FIRSTFIT", "NONE"):
                raise ValueError(f"unsupported BACKFILLPOLICY: {value!r}")
            config.backfill_enabled = policy != "NONE"
        else:
            raise ValueError(f"unknown configuration parameter: {keyword}")
    # re-validate mutated dataclasses
    DFSConfig.__post_init__(dfs)
    MauiConfig.__post_init__(config)
    return config

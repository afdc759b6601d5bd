"""Evolution profiles: when and what an evolving job asks for at runtime.

The dynamic ESP workload (paper Section IV-B) models evolution after the
Quadflow Cylinder case: each evolving job requests 4 extra cores once 16 % of
its static execution time has elapsed, retries once at 25 % if rejected, and
otherwise carries on with its original allocation.  The profile below
generalises that: any number of steps, each with its own request, trigger
point and retry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cluster.allocation import ResourceRequest

__all__ = [
    "ESP_EXTRA_CORES",
    "ESP_REQUEST_FRACTION",
    "ESP_RETRY_FRACTION",
    "EvolutionStep",
    "EvolutionProfile",
]

#: the dynamic-ESP growth shape, the one definition every ESP variant,
#: random workload and trace transform reads: "4 additional cores each",
#: first asked for after 16 % of the SET, retried once after 25 %
ESP_EXTRA_CORES = 4
ESP_REQUEST_FRACTION = 0.16
ESP_RETRY_FRACTION = 0.25


@dataclass(frozen=True, slots=True)
class EvolutionStep:
    """One growth step of an evolving application.

    :param at_fraction: fraction of the *static* execution time after which
        the application issues the dynamic request (0 < f < 1).
    :param request: the additional resources requested.
    :param retry_fractions: later fractions at which the request is retried
        if rejected; after the last rejection the application continues with
        its current allocation (paper Section IV-B).
    """

    at_fraction: float
    request: ResourceRequest
    retry_fractions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ValueError(f"at_fraction must be in (0, 1): {self.at_fraction}")
        previous = self.at_fraction
        for frac in self.retry_fractions:
            if not previous < frac < 1.0:
                raise ValueError(
                    f"retry fractions must be increasing within (at_fraction, 1): "
                    f"{self.retry_fractions}"
                )
            previous = frac

    @property
    def attempt_fractions(self) -> tuple[float, ...]:
        """First attempt plus retries, in order."""
        return (self.at_fraction, *self.retry_fractions)


@dataclass(frozen=True)
class EvolutionProfile:
    """The full runtime-growth plan of an evolving job.

    ``steps`` are processed strictly in order: the application does not issue
    step *k+1*'s request until step *k* has been resolved (granted, or all
    retries rejected).  This mirrors the paper's protocol in which at most
    one dynamic request per job is pending at the server at a time
    (Section III-B).
    """

    steps: tuple[EvolutionStep, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        previous_end = 0.0
        for step in self.steps:
            if step.at_fraction <= previous_end:
                raise ValueError("evolution steps must occur at increasing fractions")
            previous_end = step.attempt_fractions[-1]

    @classmethod
    def esp_default(cls, extra_cores: int = ESP_EXTRA_CORES) -> "EvolutionProfile":
        """The dynamic-ESP profile: +4 cores at 16 %, retry at 25 %."""
        return cls.single(
            ESP_REQUEST_FRACTION,
            ResourceRequest(cores=extra_cores),
            (ESP_RETRY_FRACTION,),
        )

    @classmethod
    def single(
        cls,
        at_fraction: float,
        request: ResourceRequest,
        retries: Iterable[float] = (),
    ) -> "EvolutionProfile":
        """Convenience constructor for a one-step profile."""
        return cls(
            steps=(
                EvolutionStep(
                    at_fraction=at_fraction,
                    request=request,
                    retry_fractions=tuple(retries),
                ),
            )
        )

    @property
    def total_extra_cores(self) -> int:
        """Cores added if every step is granted."""
        return sum(step.request.total_cores for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

"""Reference availability profile — the retained pre-vectorization kernel.

This is the original list-of-vectors implementation of
:class:`~repro.cluster.profile.AvailabilityProfile`, kept verbatim (modulo
the class name and the ``add_release`` atomicity fix) as the *oracle* for
the vectorized matrix kernel: ``tests/test_profile_equivalence.py`` drives
randomized interleaved operation sequences through both implementations and
asserts byte-identical results — breakpoints, free vectors, fit decisions
and chosen ``(start, allocation)`` pairs.

Do not optimise this module.  Its value is being obviously correct and
structurally independent from the production kernel; every clever trick
added here weakens the oracle.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.profile import NoFitError

__all__ = ["ReferenceAvailabilityProfile"]


class ReferenceAvailabilityProfile:
    """Per-node free-core timelines: one Python list of vectors per interval."""

    def __init__(
        self,
        node_indices: Sequence[int],
        initial_free: dict[int, int],
        now: float,
        capacity: dict[int, int] | None = None,
    ) -> None:
        self._nodes: tuple[int, ...] = tuple(node_indices)
        self._pos = {idx: i for i, idx in enumerate(self._nodes)}
        self.now = float(now)
        free0 = np.array([initial_free.get(i, 0) for i in self._nodes], dtype=np.int64)
        if (free0 < 0).any():
            raise ValueError("negative initial free cores")
        self._times: list[float] = [self.now]
        self._free: list[np.ndarray] = [free0]
        if capacity is not None:
            self._capacity = np.array(
                [capacity.get(i, 0) for i in self._nodes], dtype=np.int64
            )
        else:
            self._capacity = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "ReferenceAvailabilityProfile":
        clone = object.__new__(ReferenceAvailabilityProfile)
        clone._nodes = self._nodes
        clone._pos = self._pos
        clone.now = self.now
        clone._times = list(self._times)
        clone._free = [vec.copy() for vec in self._free]
        clone._capacity = self._capacity
        return clone

    def _vector(self, allocation: Allocation) -> np.ndarray:
        vec = np.zeros(len(self._nodes), dtype=np.int64)
        for idx, count in allocation.items():
            pos = self._pos.get(idx)
            if pos is None:
                raise ValueError(f"node {idx} not part of this profile")
            vec[pos] = count
        return vec

    def _ensure_breakpoint(self, time: float) -> int:
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile start {self._times[0]}")
        i = bisect.bisect_right(self._times, time) - 1
        if self._times[i] == time:
            return i
        self._times.insert(i + 1, time)
        self._free.insert(i + 1, self._free[i].copy())
        return i + 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Move the profile start forward to ``time``, dropping history."""
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile start {self._times[0]}")
        i = bisect.bisect_right(self._times, time) - 1
        del self._times[:i]
        del self._free[:i]
        self._times[0] = time
        self.now = float(time)

    def add_release(self, time: float, allocation: Allocation) -> None:
        """Cores become free from ``time`` onward.

        Atomic: the capacity check runs against the *would-be* values before
        any interval is mutated, so a rejected release leaves the profile
        untouched (the historic implementation mutated first and raised
        without rolling back).
        """
        vec = self._vector(allocation)
        start = self._ensure_breakpoint(max(time, self._times[0]))
        if self._capacity is not None:
            for i in range(start, len(self._free)):
                if (self._free[i] + vec > self._capacity).any():
                    raise ValueError("release exceeds node capacity in profile")
        for i in range(start, len(self._free)):
            self._free[i] += vec

    def add_claim(self, start: float, end: float, allocation: Allocation) -> None:
        if end <= start:
            raise ValueError(f"empty claim interval [{start}, {end})")
        vec = self._vector(allocation)
        i0 = self._ensure_breakpoint(max(start, self._times[0]))
        if math.isinf(end):
            i1 = len(self._times)
        else:
            i1 = self._ensure_breakpoint(end)
        for i in range(i0, i1):
            self._free[i] -= vec
            if (self._free[i] < 0).any():
                # roll back for exception safety
                for j in range(i0, i + 1):
                    self._free[j] += vec
                raise ValueError(
                    f"claim of {allocation!r} oversubscribes profile at "
                    f"t={self._times[i]}"
                )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self._times)

    def free_at(self, time: float) -> dict[int, int]:
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile start")
        i = bisect.bisect_right(self._times, time) - 1
        return {idx: int(self._free[i][pos]) for idx, pos in self._pos.items()}

    def _window_min(self, start: float, duration: float) -> np.ndarray:
        i0 = bisect.bisect_right(self._times, start) - 1
        if i0 < 0:
            raise ValueError(f"window start {start} precedes profile start")
        if math.isinf(duration):
            i1 = len(self._times)
        else:
            end = start + duration
            i1 = bisect.bisect_left(self._times, end)
            i1 = max(i1, i0 + 1)
        window = self._free[i0:i1]
        return np.minimum.reduce(window)

    @staticmethod
    def _fit_from_min(free_min: np.ndarray, request: ResourceRequest,
                      nodes: tuple[int, ...]) -> Allocation | None:
        if request.is_shaped:
            eligible = [i for i, f in enumerate(free_min) if f >= request.ppn]
            if len(eligible) < request.nodes:
                return None
            # emptiest-first keeps busy nodes for flexible fills
            eligible.sort(key=lambda i: (-int(free_min[i]), i))
            chosen = sorted(eligible[: request.nodes])
            return Allocation({nodes[i]: request.ppn for i in chosen})
        if int(free_min.sum()) < request.cores:
            return None
        remaining = request.cores
        picks: dict[int, int] = {}
        order = sorted(range(len(nodes)), key=lambda i: (int(free_min[i]), i))
        for i in order:
            avail = int(free_min[i])
            if avail <= 0:
                continue
            take = min(avail, remaining)
            picks[nodes[i]] = take
            remaining -= take
            if remaining == 0:
                break
        assert remaining == 0
        return Allocation(picks)

    def fits_at(
        self, start: float, duration: float, request: ResourceRequest
    ) -> Allocation | None:
        free_min = self._window_min(start, duration)
        return self._fit_from_min(free_min, request, self._nodes)

    def earliest_fit(
        self,
        request: ResourceRequest,
        duration: float,
        after: float | None = None,
    ) -> tuple[float, Allocation]:
        lo = self._times[0] if after is None else max(after, self._times[0])
        candidates = [lo] + [t for t in self._times if t > lo]
        for t in candidates:
            alloc = self.fits_at(t, duration, request)
            if alloc is not None:
                return t, alloc
        raise NoFitError(f"{request} never fits (cluster too small or fragmented)")

    def __repr__(self) -> str:
        return (
            f"<ReferenceAvailabilityProfile {len(self._nodes)} nodes, "
            f"{len(self._times)} breakpoints from t={self._times[0]:.1f}>"
        )

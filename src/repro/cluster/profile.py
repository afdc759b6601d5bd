"""Future resource availability as per-node step functions.

An :class:`AvailabilityProfile` answers "when, at the earliest, can a request
for X cores run for D seconds?" — the primitive underneath Maui-style
reservations, backfill, and this paper's delay measurement (Algorithm 2).

Representation: a sorted list of breakpoint times and one contiguous 2-D
``int64`` matrix of shape ``(breakpoints, nodes)`` holding the free cores of
every interval between consecutive breakpoints (the last interval extends to
+infinity).  Free cores change only at breakpoints, so the earliest feasible
start of any request is always at a breakpoint (or at the query's ``after``
bound): shifting a feasible window left within an interval only relaxes
constraints.

The matrix layout is what makes the kernel fast:

* ``add_claim``/``add_release`` are single vectorized slice operations —
  validity is checked against the *would-be* values before anything is
  written, so failures are atomic without rollback loops;
* ``earliest_fit`` is a first-feasible scan: one reduction over the
  candidate rows marks the rows that are feasible *on their own* (a
  necessary condition for every window holding them), and only starts
  whose window passes that test are probed, in order, with a window
  minimum — stopping at the first that yields an allocation.  On
  scheduler traffic most reservations land on the first or second such
  candidate, so a query costs what its answer costs instead of a table
  over every candidate;
* allocation picking (``_fit_from_min``) and claim scatter (``_vector``)
  run on plain Python ints — the vectors are a shard's worth of nodes,
  where numpy call overhead exceeds the arithmetic.

``tests/test_profile_equivalence.py`` pins this kernel byte-for-byte to the
retained reference implementation (``ReferenceAvailabilityProfile``, kept
with the tests).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.cluster.allocation import Allocation, ResourceRequest

__all__ = ["AvailabilityProfile", "NoFitError"]

#: spare matrix rows allocated beyond the current breakpoint count, so the
#: first few claims on a fresh copy insert without reallocating
_HEADROOM = 8


class NoFitError(Exception):
    """The request can never fit in this profile (exceeds capacity)."""


class AvailabilityProfile:
    """Per-node free-core timelines supporting claims, releases and queries."""

    def __init__(
        self,
        node_indices: Sequence[int],
        initial_free: dict[int, int],
        now: float,
        capacity: dict[int, int] | None = None,
    ) -> None:
        """
        :param node_indices: the eligible nodes, in a fixed order.
        :param initial_free: free cores on each eligible node at time ``now``.
        :param capacity: full core count per node; used to sanity-check that
            releases never push free cores above physical capacity.  Defaults
            to "unknown" (no upper check).
        """
        self._nodes: tuple[int, ...] = tuple(int(i) for i in node_indices)
        self._pos = {idx: i for i, idx in enumerate(self._nodes)}
        self.now = float(now)
        free0 = np.array([initial_free.get(i, 0) for i in self._nodes], dtype=np.int64)
        if (free0 < 0).any():
            raise ValueError("negative initial free cores")
        self._times: list[float] = [self.now]
        # row i of the matrix is the free-core vector of interval
        # [times[i], times[i+1]); rows beyond len(_times) are spare capacity
        self._mat = np.empty((1 + _HEADROOM, len(self._nodes)), dtype=np.int64)
        self._mat[0] = free0
        if capacity is not None:
            self._capacity = np.array(
                [capacity.get(i, 0) for i in self._nodes], dtype=np.int64
            )
        else:
            self._capacity = None
        # step-function generation counter + memo for quick_reject: the
        # backfill scan probes the same instant for every queued job, so
        # the sorted free vector at that instant is derived once per
        # profile state and each probe is a pure-Python bisect
        self._gen = 0
        self._qr_memo: tuple[int, float, list[int], int] | None = None
        # (generation, start, [(cores, nodes, ppn, duration), ...]): the
        # fits_at probes that failed on this step function at that start
        self._fails: tuple[int, float, list[tuple]] | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "AvailabilityProfile":
        """Deep copy for hypothetical what-if scheduling (one memcpy)."""
        clone = object.__new__(AvailabilityProfile)
        clone._nodes = self._nodes
        clone._pos = self._pos
        clone.now = self.now
        clone._times = list(self._times)
        n = len(self._times)
        clone._mat = np.empty((n + _HEADROOM, len(self._nodes)), dtype=np.int64)
        clone._mat[:n] = self._mat[:n]
        clone._capacity = self._capacity
        clone._gen = 0
        clone._qr_memo = None
        clone._fails = None
        return clone

    @classmethod
    def merge(cls, profiles: Sequence["AvailabilityProfile"]) -> "AvailabilityProfile":
        """Gather disjoint per-shard profiles into one full-machine view.

        The cross-shard merge step of the sharded scheduler: shard
        profiles cover disjoint node sets and start at the same time, so
        the merged step function is the union of their breakpoints with
        each shard's rows resampled onto it (``searchsorted`` per shard)
        and the node columns concatenated in shard order.  Shards are
        contiguous runs of the ascending node order, so the concatenation
        is the global node order: the order of a single build of the same
        state and the tie-breaking order of every pick.  Shards that come
        out of node order (partitions whose names do not follow it) have
        their columns put back in it.  Either way every query on the
        merged view answers exactly as on that single build.  Cost:
        O(B_union · nodes), about one profile copy.
        """
        if not profiles:
            raise ValueError("merge needs at least one profile")
        if len(profiles) == 1:
            return profiles[0].copy()
        clone = object.__new__(cls)
        nodes: list[int] = []
        for p in profiles:
            nodes.extend(p._nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("merged profiles must cover disjoint node sets")
        clone._nodes = tuple(nodes)
        clone._pos = {idx: i for i, idx in enumerate(clone._nodes)}
        times = sorted({t for p in profiles for t in p._times})
        clone.now = times[0]
        clone._times = list(times)
        n = len(times)
        times_arr = np.array(times)
        clone._mat = np.empty((n + _HEADROOM, len(clone._nodes)), dtype=np.int64)
        col = 0
        for p in profiles:
            pn = len(p._times)
            rows = np.searchsorted(np.array(p._times), times_arr, side="right") - 1
            np.clip(rows, 0, pn - 1, out=rows)
            width = len(p._nodes)
            clone._mat[:n, col : col + width] = p._mat[:pn][rows]
            col += width
        if any(p._capacity is None for p in profiles):
            clone._capacity = None
        else:
            clone._capacity = np.concatenate([p._capacity for p in profiles])
        if nodes != sorted(nodes):
            order = sorted(range(len(nodes)), key=nodes.__getitem__)
            clone._mat[:n] = clone._mat[:n, order]
            if clone._capacity is not None:
                clone._capacity = clone._capacity[order]
            clone._nodes = tuple(nodes[i] for i in order)
            clone._pos = {idx: i for i, idx in enumerate(clone._nodes)}
        clone._gen = 0
        clone._qr_memo = None
        clone._fails = None
        return clone

    def _vector(self, allocation: Allocation) -> np.ndarray:
        vec = np.zeros(len(self._nodes), dtype=np.int64)
        pos = self._pos
        for node, count in allocation.items():
            col = pos.get(node)
            if col is None:
                raise ValueError(f"node {node} not part of this profile")
            vec[col] = count
        return vec

    def _ensure_breakpoint(self, time: float) -> int:
        """Insert a breakpoint at ``time`` (if new) and return its index."""
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile start {self._times[0]}")
        i = bisect.bisect_right(self._times, time) - 1
        if self._times[i] == time:
            return i
        n = len(self._times)
        if n == self._mat.shape[0]:
            grown = np.empty((2 * n, len(self._nodes)), dtype=np.int64)
            grown[:n] = self._mat[:n]
            self._mat = grown
        # shift rows i+1..n-1 up by one and duplicate row i into the gap
        self._mat[i + 2 : n + 1] = self._mat[i + 1 : n]
        self._mat[i + 1] = self._mat[i]
        self._times.insert(i + 1, time)
        return i + 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Move the profile start forward to ``time``, dropping history.

        Intervals entirely before ``time`` are discarded and the first
        surviving interval is clipped to start at ``time``; the step
        function on ``[time, ∞)`` is untouched, so every query at or after
        ``time`` answers exactly as before.  The scheduler's incremental
        profile maintenance advances a cached profile to the current sim
        time and then applies claim/release deltas, instead of rebuilding
        the matrix from scratch each iteration.
        """
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile start {self._times[0]}")
        i = bisect.bisect_right(self._times, time) - 1
        if i > 0:
            n = len(self._times)
            self._mat[: n - i] = self._mat[i:n].copy()
            del self._times[:i]
        self._times[0] = time
        self.now = float(time)
        self._gen += 1

    def add_release(self, time: float, allocation: Allocation) -> None:
        """Cores become free from ``time`` onward (a running job's expected end).

        Atomic: the capacity check runs against the would-be values, so a
        rejected release leaves every interval untouched.
        """
        vec = self._vector(allocation)
        start = self._ensure_breakpoint(max(time, self._times[0]))
        block = self._mat[start : len(self._times)]
        if self._capacity is not None and (block + vec > self._capacity).any():
            raise ValueError("release exceeds node capacity in profile")
        block += vec
        self._gen += 1

    def add_claim(self, start: float, end: float, allocation: Allocation) -> None:
        """Cores are taken during ``[start, end)`` (a reservation).

        Raises ``ValueError`` if the claim would drive any node's free count
        negative — reservations must only be placed where the profile says
        the resources exist.  The check precedes the subtraction, so a
        failed claim is a no-op (modulo semantically-neutral breakpoint
        insertions, as in the historic rollback path).
        """
        if end <= start:
            raise ValueError(f"empty claim interval [{start}, {end})")
        vec = self._vector(allocation)
        i0 = self._ensure_breakpoint(max(start, self._times[0]))
        if math.isinf(end):
            i1 = len(self._times)
        else:
            i1 = self._ensure_breakpoint(end)
        block = self._mat[i0:i1]
        short = block < vec
        if short.any():
            first_bad = i0 + int(np.argmax(short.any(axis=1)))
            raise ValueError(
                f"claim of {allocation!r} oversubscribes profile at "
                f"t={self._times[first_bad]}"
            )
        block -= vec
        self._gen += 1

    def cancel_claim(self, start: float, end: float, allocation: Allocation) -> None:
        """Undo :meth:`add_claim` of the same window: the cores are free
        again during ``[start, end)``.  Atomic like :meth:`add_release`;
        the two breakpoints stay, neutral."""
        vec = self._vector(allocation)
        i0 = self._ensure_breakpoint(max(start, self._times[0]))
        i1 = self._ensure_breakpoint(end)
        block = self._mat[i0:i1]
        if self._capacity is not None and (block + vec > self._capacity).any():
            raise ValueError("cancelled claim exceeds node capacity in profile")
        block += vec
        self._gen += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self._times)

    @property
    def nodes(self) -> tuple[int, ...]:
        """The profile's nodes, in its column order."""
        return self._nodes

    def free_at(self, time: float) -> dict[int, int]:
        """Free cores per node at the given instant."""
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile start")
        i = bisect.bisect_right(self._times, time) - 1
        row = self._mat[i]
        return {idx: int(row[pos]) for idx, pos in self._pos.items()}

    def free_now(self) -> list[int]:
        """Free cores at the profile start, one entry per node in node order."""
        return self._mat[0].tolist()

    def quick_reject(
        self, start: float, request: ResourceRequest, duration: float
    ) -> bool:
        """Cheap sufficient test for failure: True means :meth:`fits_at`
        ``(start, duration, request)`` would answer None.

        Two screens, neither a window scan.  Free cores at the window start
        bound every node's window minimum from above, so a request that
        fails against the instantaneous free vector fails the window too.
        And a request is implied by a probe that already failed here on
        this step function if it asks no fewer cores (or nodes and ppn) for
        no shorter a time: a longer window's per-node minima are no larger,
        and a larger request needs more.  The two kinds never imply each
        other — a flexible request has no nodes, a shaped one no cores.
        Backfill uses this to prune hopeless candidates on a packed cluster.
        """
        if start < self._times[0]:
            raise ValueError(f"time {start} precedes profile start")
        gen = self._gen
        memo = self._qr_memo
        if memo is None or memo[0] != gen or memo[1] != start:
            row = self._mat[bisect.bisect_right(self._times, start) - 1]
            memo = (gen, start, np.sort(row).tolist(), int(row.sum()))
            self._qr_memo = memo
        if request.is_shaped:
            # entries >= ppn occupy the sorted tail; counting them via
            # bisect is exactly the (row >= ppn).sum() reduction
            free = memo[2]
            if len(free) - bisect.bisect_left(free, request.ppn) < request.nodes:
                return True
        elif memo[3] < request.cores:
            return True
        fails = self._fails
        if fails is not None and fails[0] == gen and fails[1] == start:
            cores, nodes, ppn = request.cores, request.nodes, request.ppn
            for c, n, p, d in fails[2]:
                if cores >= c and nodes >= n and ppn >= p and duration >= d:
                    return True
        return False

    def can_ever_fit(self, request: ResourceRequest) -> bool:
        """False when no instant in the profile offers enough resources —
        i.e. :meth:`earliest_fit` is guaranteed to raise :class:`NoFitError`
        for any duration.  One vectorized sweep over all intervals; window
        minima only shrink below the per-interval free vectors, so an
        instant-infeasible profile is window-infeasible everywhere.
        """
        supply, need = self._supply(self._mat[: len(self._times)], request)
        return bool(supply.max() >= need)

    def _window_min(self, start: float, duration: float) -> np.ndarray:
        """Element-wise minimum free cores over ``[start, start+duration)``."""
        i0 = bisect.bisect_right(self._times, start) - 1
        if i0 < 0:
            raise ValueError(f"window start {start} precedes profile start")
        if math.isinf(duration):
            i1 = len(self._times)
        else:
            end = start + duration
            i1 = bisect.bisect_left(self._times, end)
            # interval i covers [times[i], times[i+1]); the window touches
            # interval i1-1 at most.
            i1 = max(i1, i0 + 1)
        return self._mat[i0:i1].min(axis=0)

    @staticmethod
    def _supply(rows: np.ndarray, request: ResourceRequest) -> tuple[np.ndarray, int]:
        """``(supply, need)``: what each row (a free-core vector) offers of
        the quantity ``request`` is measured in, and how much it needs —
        wide-enough nodes for a shaped request, cores for a flexible one.
        :meth:`_fit_from_min` succeeds on a row iff its supply ≥ need."""
        if request.is_shaped:
            return (rows >= request.ppn).sum(axis=1), request.nodes
        return rows.sum(axis=1), request.cores

    @staticmethod
    def _fit_from_min(free: list[int], request: ResourceRequest,
                      nodes: Sequence[int]) -> Allocation | None:
        """Pick a concrete allocation out of a per-node free-core list.

        Works on plain ints (callers ``tolist`` a matrix row), so what it
        hands :meth:`Allocation._trusted` is in normal form by
        construction: profile nodes are ints, counts come from the list or
        the request size coerced below, and the picks are sorted by node.
        """
        if request.is_shaped:
            ppn = request.ppn
            eligible = [i for i, f in enumerate(free) if f >= ppn]
            if len(eligible) < request.nodes:
                return None
            # emptiest-first keeps busy nodes for flexible fills; the sort
            # is stable (also reversed), so ties stay in index order
            eligible.sort(key=free.__getitem__, reverse=True)
            chosen = sorted(nodes[i] for i in eligible[: request.nodes])
            return Allocation._trusted(dict.fromkeys(chosen, int(ppn)))
        if sum(free) < request.cores:
            return None
        remaining = int(request.cores)
        picks: dict[int, int] = {}
        # fullest-first over the nodes with anything free; stable, so ties
        # stay in index order
        order = [i for i, f in enumerate(free) if f > 0]
        order.sort(key=free.__getitem__)
        for i in order:
            avail = free[i]
            if avail >= remaining:
                picks[nodes[i]] = remaining
                remaining = 0
                break
            picks[nodes[i]] = avail
            remaining -= avail
        assert remaining == 0
        return Allocation._trusted(dict(sorted(picks.items())))

    def fits_at(
        self, start: float, duration: float, request: ResourceRequest
    ) -> Allocation | None:
        """A concrete allocation if ``request`` fits throughout the window.
        A failure is remembered for :meth:`quick_reject` until the next
        claim, release or advance."""
        free_min = self._window_min(start, duration)
        alloc = self._fit_from_min(free_min.tolist(), request, self._nodes)
        if alloc is None:
            fails = self._fails
            if fails is None or fails[0] != self._gen or fails[1] != start:
                fails = self._fails = (self._gen, start, [])
            fails[2].append((request.cores, request.nodes, request.ppn, duration))
        return alloc

    @classmethod
    def fit_free(
        cls, free: dict[int, int], request: ResourceRequest
    ) -> Allocation | None:
        """What :meth:`fits_at` answers, for a window of any length from
        its start, on a profile built over the free map ``free`` that holds
        no claim: such a profile is release-only (free cores never fall),
        so every window minimum from its start *is* ``free``."""
        nodes = sorted(free)
        return cls._fit_from_min([free[n] for n in nodes], request, nodes)

    def earliest_fit(
        self,
        request: ResourceRequest,
        duration: float,
        after: float | None = None,
        *,
        probe_start: bool = True,
    ) -> tuple[float, Allocation]:
        """Earliest start ≥ ``after`` at which ``request`` fits for ``duration``.

        First-feasible scan over the candidate breakpoints.  A window
        minimum never exceeds any single row of the window, so a window
        holding a row that is infeasible on its own is infeasible: one
        reduction over the candidate rows (:meth:`_supply`) rules those
        windows out, the remaining candidates are probed in order with
        their window minimum, and the first that yields an allocation
        wins.  Raises :class:`NoFitError` when no candidate does — so a
        request for which :meth:`can_ever_fit` is false costs that one
        reduction, no scan.

        ``probe_start=False`` skips the initial window query at the bound
        itself — for callers that already proved :meth:`fits_at` fails
        there (the scheduler reserves only for jobs it just failed to
        start); the bound is the one candidate that is not a breakpoint,
        so the remaining scan is unaffected.
        """
        times = self._times
        lo = times[0] if after is None else max(after, times[0])
        if probe_start:
            # the query bound itself is the one candidate that need not be
            # a breakpoint; probe it with a plain window query first
            alloc = self.fits_at(lo, duration, request)
            if alloc is not None:
                return lo, alloc
        k0 = bisect.bisect_right(times, lo)
        n = len(times)
        if k0 < n:
            mat = self._mat
            supply, need = self._supply(mat[k0:n], request)
            supply = supply.tolist()
            unbounded = math.isinf(duration)
            for j, have in enumerate(supply):
                if have < need:
                    continue
                k = k0 + j
                # as _window_min: the window touches intervals k .. end-1
                end = n if unbounded else bisect.bisect_left(
                    times, times[k] + duration, k + 1
                )
                if end - k == 1:
                    free_min = mat[k]
                elif min(supply[j + 1 : end - k0]) < need:
                    continue  # a later row of the window is short on its own
                else:
                    free_min = mat[k:end].min(axis=0)
                alloc = self._fit_from_min(free_min.tolist(), request, self._nodes)
                if alloc is not None:
                    return times[k], alloc
        raise NoFitError(f"{request} never fits (cluster too small or fragmented)")

    def __repr__(self) -> str:
        return (
            f"<AvailabilityProfile {len(self._nodes)} nodes, "
            f"{len(self._times)} breakpoints from t={self._times[0]:.1f}>"
        )

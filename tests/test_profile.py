"""Tests for the availability profile (reservations' core data structure)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.profile import AvailabilityProfile, NoFitError


def make_profile(free=8, nodes=4, now=0.0):
    indices = list(range(nodes))
    return AvailabilityProfile(
        indices, {i: free for i in indices}, now, capacity={i: 8 for i in indices}
    )


class TestConstruction:
    def test_initial_free(self):
        prof = make_profile()
        assert prof.free_at(0.0) == {0: 8, 1: 8, 2: 8, 3: 8}

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityProfile([0], {0: -1}, 0.0)

    def test_query_before_start_rejected(self):
        prof = make_profile(now=100.0)
        with pytest.raises(ValueError):
            prof.free_at(50.0)


class TestClaimsAndReleases:
    def test_claim_reduces_window(self):
        prof = make_profile()
        prof.add_claim(10.0, 20.0, Allocation({0: 8}))
        assert prof.free_at(5.0)[0] == 8
        assert prof.free_at(10.0)[0] == 0
        assert prof.free_at(19.9)[0] == 0
        assert prof.free_at(20.0)[0] == 8

    def test_claim_to_infinity(self):
        prof = make_profile()
        prof.add_claim(5.0, math.inf, Allocation({1: 4}))
        assert prof.free_at(1e9)[1] == 4

    def test_release_adds_from_time(self):
        prof = make_profile(free=0)
        prof.add_release(30.0, Allocation({2: 8}))
        assert prof.free_at(29.0)[2] == 0
        assert prof.free_at(30.0)[2] == 8

    def test_release_beyond_capacity_rejected(self):
        prof = make_profile(free=8)
        with pytest.raises(ValueError):
            prof.add_release(10.0, Allocation({0: 1}))  # 8 + 1 > capacity

    def test_oversubscribing_claim_rejected_and_rolled_back(self):
        prof = make_profile()
        prof.add_claim(0.0, 10.0, Allocation({0: 8}))
        with pytest.raises(ValueError):
            prof.add_claim(5.0, 15.0, Allocation({0: 1}))
        # the failed claim must not leave partial subtraction behind
        assert prof.free_at(12.0)[0] == 8

    def test_empty_interval_rejected(self):
        prof = make_profile()
        with pytest.raises(ValueError):
            prof.add_claim(10.0, 10.0, Allocation({0: 1}))

    def test_unknown_node_rejected(self):
        prof = make_profile()
        with pytest.raises(ValueError):
            prof.add_claim(0.0, 1.0, Allocation({42: 1}))

    def test_copy_is_independent(self):
        prof = make_profile()
        clone = prof.copy()
        clone.add_claim(0.0, 10.0, Allocation({0: 8}))
        assert prof.free_at(5.0)[0] == 8
        assert clone.free_at(5.0)[0] == 0


class TestFitsAt:
    def test_fits_now(self):
        prof = make_profile()
        alloc = prof.fits_at(0.0, 100.0, ResourceRequest(cores=32))
        assert alloc is not None and alloc.total_cores == 32

    def test_does_not_fit_through_window(self):
        prof = make_profile()
        prof.add_claim(50.0, 60.0, Allocation({0: 8, 1: 8, 2: 8, 3: 8}))
        assert prof.fits_at(0.0, 100.0, ResourceRequest(cores=1)) is None
        assert prof.fits_at(0.0, 50.0, ResourceRequest(cores=32)) is not None

    def test_shaped_fit(self):
        prof = make_profile()
        prof.add_claim(0.0, 100.0, Allocation({0: 4, 1: 4, 2: 4}))
        alloc = prof.fits_at(0.0, 50.0, ResourceRequest(nodes=2, ppn=8))
        assert alloc is None  # only node 3 has 8 free
        alloc = prof.fits_at(0.0, 50.0, ResourceRequest(nodes=1, ppn=8))
        assert alloc is not None and alloc[3] == 8

    def test_infinite_duration_window(self):
        prof = make_profile()
        prof.add_claim(5.0, math.inf, Allocation({0: 8, 1: 8, 2: 8, 3: 8}))
        assert prof.fits_at(0.0, math.inf, ResourceRequest(cores=1)) is None


class TestQuickReject:
    """The backfill screen: the free cores at the window start, and the
    window probes that already failed on the same step function."""

    WIDE = ResourceRequest(cores=24)

    def failed_probe(self, start=0.0):
        """Nodes 0 and 1 go DOWN at t=10: 32 cores free at ``start`` pass
        the row-0 test, but a 100 s window holds only 16 — the probe fails
        and is recorded."""
        prof = make_profile()
        prof.add_claim(10.0, math.inf, Allocation({0: 8, 1: 8}))
        assert not prof.quick_reject(start, self.WIDE, 100.0)
        assert prof.fits_at(start, 100.0, self.WIDE) is None
        assert prof.quick_reject(start, self.WIDE, 100.0)
        return prof

    def test_row_zero_rejects_what_the_free_cores_at_start_cannot_hold(self):
        prof = make_profile()
        prof.add_claim(0.0, 50.0, Allocation({0: 8, 1: 8, 2: 4}))
        assert prof.quick_reject(0.0, ResourceRequest(cores=13), 1.0)
        assert not prof.quick_reject(0.0, ResourceRequest(cores=12), 1.0)
        assert prof.quick_reject(0.0, ResourceRequest(nodes=2, ppn=8), 1.0)
        assert not prof.quick_reject(0.0, ResourceRequest(nodes=2, ppn=4), 1.0)

    def test_failure_implies_larger_and_longer_requests_only(self):
        prof = self.failed_probe()
        for cores, duration in ((25, 100.0), (24, 101.0), (32, math.inf)):
            assert prof.quick_reject(0.0, ResourceRequest(cores=cores), duration)
        # smaller or shorter is not implied: these fit
        for cores, duration in ((16, 100.0), (24, 10.0)):
            request = ResourceRequest(cores=cores)
            assert not prof.quick_reject(0.0, request, duration)
            assert prof.fits_at(0.0, duration, request) is not None
        # ... and another instant is another question
        assert not prof.quick_reject(5.0, self.WIDE, 100.0)

    def test_release_on_the_probed_nodes_forgets_the_failure(self):
        prof = self.failed_probe()
        prof.add_release(10.0, Allocation({0: 8, 1: 8}))  # the nodes recover
        assert not prof.quick_reject(0.0, self.WIDE, 100.0)
        assert prof.fits_at(0.0, 100.0, self.WIDE) is not None

    def test_advance_forgets_the_failure(self):
        prof = self.failed_probe(start=5.0)
        prof.advance_to(5.0)
        assert not prof.quick_reject(5.0, self.WIDE, 100.0)
        assert prof.fits_at(5.0, 100.0, self.WIDE) is None  # still true

    def test_copy_and_merge_inherit_no_failure(self):
        prof = self.failed_probe()
        assert not prof.copy().quick_reject(0.0, self.WIDE, 100.0)
        assert not AvailabilityProfile.merge([prof]).quick_reject(
            0.0, self.WIDE, 100.0
        )
        other = AvailabilityProfile([7], {7: 0}, 0.0)
        assert not AvailabilityProfile.merge([prof, other]).quick_reject(
            0.0, self.WIDE, 100.0
        )
        assert prof.quick_reject(0.0, self.WIDE, 100.0)  # the original keeps it

    def test_rejected_claim_leaves_the_failure_valid(self):
        prof = self.failed_probe()
        with pytest.raises(ValueError, match="oversubscribes"):
            prof.add_claim(5.0, 15.0, Allocation({0: 8, 2: 8}))
        assert prof.quick_reject(0.0, self.WIDE, 100.0)
        assert prof.fits_at(0.0, 100.0, self.WIDE) is None

    def test_flexible_and_shaped_never_imply_each_other(self):
        prof = self.failed_probe()
        # 3 nodes x 8 also fails here (2 nodes stay up), but no flexible
        # failure says so
        shaped = ResourceRequest(nodes=3, ppn=8)
        assert not prof.quick_reject(0.0, shaped, 100.0)
        assert prof.fits_at(0.0, 100.0, shaped) is None
        assert prof.quick_reject(0.0, shaped, 100.0)
        # a shaped failure says nothing of a flexible request, however large
        prof = make_profile()
        prof.add_claim(10.0, math.inf, Allocation({0: 8, 1: 8}))
        assert prof.fits_at(0.0, 100.0, shaped) is None
        assert prof.quick_reject(0.0, ResourceRequest(nodes=4, ppn=8), 100.0)
        assert not prof.quick_reject(0.0, self.WIDE, 100.0)
        assert not prof.quick_reject(0.0, ResourceRequest(cores=16), 100.0)


class TestEarliestFit:
    def test_immediate(self):
        prof = make_profile()
        t, alloc = prof.earliest_fit(ResourceRequest(cores=8), 10.0)
        assert t == 0.0 and alloc.total_cores == 8

    def test_waits_for_release(self):
        prof = make_profile(free=0)
        prof.add_release(40.0, Allocation({0: 8}))
        t, alloc = prof.earliest_fit(ResourceRequest(cores=8), 10.0)
        assert t == 40.0 and alloc[0] == 8

    def test_respects_after(self):
        prof = make_profile()
        t, _ = prof.earliest_fit(ResourceRequest(cores=8), 10.0, after=25.0)
        assert t == 25.0

    def test_skips_busy_window(self):
        prof = make_profile()
        # everything busy between 10 and 30
        prof.add_claim(10.0, 30.0, Allocation({i: 8 for i in range(4)}))
        t, _ = prof.earliest_fit(ResourceRequest(cores=4), 15.0, after=0.0)
        # cannot start in (0, 10) because the 15s-window would cross the claim
        assert t == 30.0

    def test_fits_into_gap_exactly(self):
        prof = make_profile()
        prof.add_claim(10.0, 30.0, Allocation({i: 8 for i in range(4)}))
        t, _ = prof.earliest_fit(ResourceRequest(cores=4), 10.0, after=0.0)
        assert t == 0.0  # the [0, 10) gap is exactly long enough

    def test_never_fits_raises(self):
        prof = make_profile()
        with pytest.raises(NoFitError):
            prof.earliest_fit(ResourceRequest(cores=33), 10.0)

    def test_shaped_earliest(self):
        prof = make_profile()
        prof.add_claim(0.0, 20.0, Allocation({0: 1, 1: 1, 2: 1, 3: 1}))
        t, alloc = prof.earliest_fit(ResourceRequest(nodes=4, ppn=8), 5.0)
        assert t == 20.0
        assert alloc.total_cores == 32


claims_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),          # node
        st.integers(min_value=1, max_value=4),          # cores
        st.floats(min_value=0.0, max_value=100.0),      # start
        st.floats(min_value=0.1, max_value=100.0),      # duration
    ),
    max_size=12,
)


@settings(max_examples=60)
@given(claims_strategy, st.integers(min_value=1, max_value=32), st.floats(min_value=0.1, max_value=50.0))
def test_property_earliest_fit_result_actually_fits(claims, cores, duration):
    """earliest_fit's returned slot must satisfy fits_at at that time."""
    prof = make_profile()
    for node, c, start, dur in claims:
        try:
            prof.add_claim(start, start + dur, Allocation({node: c}))
        except ValueError:
            pass  # oversubscribed attempt: legitimately rejected
    try:
        t, alloc = prof.earliest_fit(ResourceRequest(cores=cores), duration)
    except NoFitError:
        assert cores > 32
        return
    assert alloc.total_cores == cores
    # and the window really is free: claiming it must not raise
    prof.add_claim(t, t + duration, alloc)


@settings(max_examples=60)
@given(claims_strategy)
def test_property_free_never_negative_nor_above_capacity(claims):
    prof = make_profile()
    applied = []
    for node, c, start, dur in claims:
        try:
            prof.add_claim(start, start + dur, Allocation({node: c}))
            applied.append((node, c, start, dur))
        except ValueError:
            pass
    for bp in prof.breakpoints:
        free = prof.free_at(bp)
        assert all(0 <= f <= 8 for f in free.values())


@settings(max_examples=40)
@given(claims_strategy, st.floats(min_value=0.0, max_value=200.0))
def test_property_window_min_consistent_with_point_queries(claims, probe):
    """free_at at any time inside a window is >= the window minimum."""
    prof = make_profile()
    for node, c, start, dur in claims:
        try:
            prof.add_claim(start, start + dur, Allocation({node: c}))
        except ValueError:
            pass
    window_min = prof._window_min(0.0, 200.0)
    free = prof.free_at(probe)
    for pos, idx in enumerate(sorted(free)):
        assert free[idx] >= window_min[pos]


# ----------------------------------------------------------------------
# brute-force cross-validation: the profile's earliest_fit must agree with
# a naive reference that scans a discretised timeline
# ----------------------------------------------------------------------


def _naive_earliest_fit(claims, cores, duration, nodes=4, capacity=8, horizon=400.0):
    """Reference implementation: test every candidate time on a fine grid."""

    def free_at(t):
        free = [capacity] * nodes
        for node, c, start, dur in claims:
            if start <= t < start + dur:
                free[node] -= c
        return free

    # candidate starts: 0 plus all claim boundaries (the only change points)
    candidates = sorted({0.0} | {s for _, _, s, _ in claims} | {s + d for _, _, s, d in claims})
    for t in candidates:
        if t > horizon:
            break
        # a job holds a FIXED core set for its whole duration, so a node
        # contributes only the cores free at EVERY instant of the window
        probes = [t] + [b for b in candidates if t < b < t + duration]
        per_node_min = [
            min(free_at(p)[n] for p in probes) for n in range(nodes)
        ]
        if sum(per_node_min) >= cores:
            return t
    return None


@settings(max_examples=80)
@given(claims_strategy, st.integers(min_value=1, max_value=32),
       st.floats(min_value=0.5, max_value=60.0))
def test_property_earliest_fit_matches_brute_force(claims, cores, duration):
    prof = make_profile()
    applied = []
    for node, c, start, dur in claims:
        try:
            prof.add_claim(start, start + dur, Allocation({node: c}))
            applied.append((node, c, start, dur))
        except ValueError:
            pass
    try:
        t, _ = prof.earliest_fit(ResourceRequest(cores=cores), duration)
    except NoFitError:
        t = None
    expected = _naive_earliest_fit(applied, cores, duration)
    assert t == expected

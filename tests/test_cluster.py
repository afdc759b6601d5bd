"""Tests for Node and Cluster."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.node import Node, NodeState


class TestNode:
    def test_name_format(self):
        assert Node(index=7, cores=8).name == "node007"

    def test_free_and_idle(self):
        # a node holds only static facts: its free cores are the cluster's
        cluster = Cluster([Node(index=0, cores=8)])
        assert cluster.node_free == [8] and cluster.used_cores == 0
        cluster.claim(Allocation({0: 3}))
        assert cluster.node_free == [5] and cluster.used_cores == 3

    def test_down_node_has_no_free_cores(self):
        cluster = Cluster([Node(index=0, cores=8, state=NodeState.DOWN)])
        assert cluster.node_free == [0] and cluster.free_by_node() == {}
        cluster.recover_node(0)
        assert cluster.node_free == [8]


class TestClusterConstruction:
    def test_homogeneous(self):
        cluster = Cluster.homogeneous(15, 8)
        assert len(cluster.nodes) == 15
        assert cluster.total_cores == 120
        assert cluster.free_cores == 120

    def test_dynamic_partition_fencing(self):
        cluster = Cluster.homogeneous(6, 8, dynamic_partition_nodes=2)
        partitions = [n.partition for n in cluster.nodes]
        assert partitions == ["batch"] * 4 + ["dynamic"] * 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            Cluster([Node(index=0, cores=8), Node(index=0, cores=8)])

    def test_invalid_homogeneous_params(self):
        with pytest.raises(ValueError):
            Cluster.homogeneous(0, 8)
        with pytest.raises(ValueError):
            Cluster.homogeneous(4, 8, dynamic_partition_nodes=5)


class TestClaimRelease:
    def test_claim_updates_usage(self, small_cluster):
        small_cluster.claim(Allocation({0: 4, 1: 8}))
        assert small_cluster.used_cores == 12
        assert small_cluster.node_free == [4, 0, 8, 8]

    def test_release_returns_cores(self, small_cluster):
        alloc = Allocation({0: 4})
        small_cluster.claim(alloc)
        small_cluster.release(alloc)
        assert small_cluster.used_cores == 0

    def test_oversubscription_rejected_atomically(self, small_cluster):
        small_cluster.claim(Allocation({0: 8}))
        with pytest.raises(ValueError):
            small_cluster.claim(Allocation({1: 4, 0: 1}))
        # the valid part of the failed claim must not have been applied
        assert small_cluster.node_free[1] == 8

    def test_claim_unknown_node_rejected(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.claim(Allocation({99: 1}))

    def test_claim_down_node_rejected(self, small_cluster):
        small_cluster.fail_node(2)
        with pytest.raises(ValueError):
            small_cluster.claim(Allocation({2: 1}))

    def test_over_release_rejected(self, small_cluster):
        small_cluster.claim(Allocation({0: 2}))
        with pytest.raises(ValueError):
            small_cluster.release(Allocation({0: 3}))

    def test_busy_node_keeps_its_held_cores_while_down(self, small_cluster):
        small_cluster.claim(Allocation({0: 6, 1: 2}))
        small_cluster.fail_node(0)
        assert small_cluster.node_free[0] == 0 and small_cluster.used_cores == 8
        # an over-release on the down node is refused with nothing changed
        with pytest.raises(ValueError):
            small_cluster.release(Allocation({1: 1, 0: 7}))
        assert small_cluster.node_free[:2] == [0, 6]
        small_cluster.release(Allocation({0: 4}))
        assert small_cluster.node_free[0] == 0 and small_cluster.used_cores == 4
        small_cluster.recover_node(0)
        assert small_cluster.node_free[0] == 6


class TestFindAllocation:
    def test_flexible_fits(self, small_cluster):
        alloc = small_cluster.find_allocation(ResourceRequest(cores=12))
        assert alloc is not None and alloc.total_cores == 12
        small_cluster.claim(alloc)  # must be claimable

    def test_flexible_prefers_loaded_nodes(self, small_cluster):
        small_cluster.claim(Allocation({0: 6}))
        alloc = small_cluster.find_allocation(ResourceRequest(cores=2))
        # anti-fragmentation: tops up the partially-used node first
        assert alloc == Allocation({0: 2})

    def test_flexible_too_big(self, small_cluster):
        assert small_cluster.find_allocation(ResourceRequest(cores=33)) is None

    def test_shaped_fits_whole_nodes(self, small_cluster):
        alloc = small_cluster.find_allocation(ResourceRequest(nodes=2, ppn=8))
        assert alloc is not None
        assert sorted(alloc.items()) == [(0, 8), (1, 8)]

    def test_shaped_respects_ppn(self, small_cluster):
        small_cluster.claim(Allocation({0: 1, 1: 1, 2: 1}))
        alloc = small_cluster.find_allocation(ResourceRequest(nodes=2, ppn=8))
        assert alloc is None  # only node 3 still has 8 free cores

    def test_shaped_prefers_emptiest(self, small_cluster):
        small_cluster.claim(Allocation({0: 4}))
        alloc = small_cluster.find_allocation(ResourceRequest(nodes=1, ppn=4))
        assert alloc is not None
        assert list(alloc.keys()) != [0]  # picks an idle node, not the loaded one

    def test_partition_filter(self):
        cluster = Cluster.homogeneous(4, 8, dynamic_partition_nodes=1)
        alloc = cluster.find_allocation(
            ResourceRequest(cores=8), partitions=("dynamic",)
        )
        assert alloc is not None and list(alloc.keys()) == [3]
        assert cluster.find_allocation(
            ResourceRequest(cores=9), partitions=("dynamic",)
        ) is None

    def test_exclude_nodes(self, small_cluster):
        alloc = small_cluster.find_allocation(
            ResourceRequest(cores=8), exclude_nodes=[0, 1, 2]
        )
        assert alloc is not None and list(alloc.keys()) == [3]

    def test_down_nodes_excluded(self, small_cluster):
        small_cluster.fail_node(0)
        small_cluster.fail_node(1)
        assert small_cluster.find_allocation(ResourceRequest(cores=24)) is None
        small_cluster.recover_node(0)
        assert small_cluster.find_allocation(ResourceRequest(cores=24)) is not None


class TestFailures:
    def test_up_cores_tracks_state(self, small_cluster):
        assert small_cluster.up_cores == 32
        small_cluster.fail_node(1)
        assert small_cluster.up_cores == 24
        small_cluster.recover_node(1)
        assert small_cluster.up_cores == 32

    def test_transitions_report_state_change(self, small_cluster):
        assert small_cluster.fail_node(1) is True
        assert small_cluster.recover_node(1) is True

    def test_repeat_fail_is_noop(self, small_cluster):
        """Failing a DOWN node must not bump ``version``.

        A spurious bump invalidates the scheduler's availability-profile
        cache and defeats its quiescence fingerprint — repeat transition
        reports (e.g. a flapping health check) would silently disable
        both optimisations.
        """
        small_cluster.fail_node(1)
        version = small_cluster.version
        assert small_cluster.fail_node(1) is False
        assert small_cluster.version == version
        assert small_cluster.up_cores == 24

    def test_repeat_recover_is_noop(self, small_cluster):
        version = small_cluster.version
        assert small_cluster.recover_node(1) is False  # already UP
        assert small_cluster.version == version
        small_cluster.fail_node(1)
        small_cluster.recover_node(1)
        version = small_cluster.version
        assert small_cluster.recover_node(1) is False
        assert small_cluster.version == version

    def test_real_transitions_still_bump_version(self, small_cluster):
        version = small_cluster.version
        small_cluster.fail_node(2)
        assert small_cluster.version == version + 1
        small_cluster.recover_node(2)
        assert small_cluster.version == version + 2


@given(
    st.lists(
        st.integers(min_value=1, max_value=8), min_size=1, max_size=20
    ),
    st.integers(min_value=1, max_value=64),
)
def test_property_find_allocation_is_claimable_and_exact(used_cores, want):
    """Whatever find_allocation returns always fits and matches the request."""
    cluster = Cluster.homogeneous(8, 8)
    # pre-load some nodes
    for i, used in enumerate(used_cores[:8]):
        cluster.claim(Allocation({i: used}))
    alloc = cluster.find_allocation(ResourceRequest(cores=want))
    if alloc is None:
        assert cluster.free_cores < want
    else:
        assert alloc.total_cores == want
        cluster.claim(alloc)  # must not raise
        assert cluster.used_cores == sum(used_cores[:8]) + want


class _BusySpy:
    """Stands in for the telemetry busy integral behind the cluster's
    busy-change hook: keeps what ``on_busy_change`` got."""

    def __init__(self):
        self.seen = []

    def on_busy_change(self, busy):
        self.seen.append(busy)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["claim", "release", "fail", "recover"]),
            st.integers(min_value=0, max_value=4),  # node (4 = unknown)
            st.integers(min_value=1, max_value=9),  # cores (9 = oversized)
            st.integers(min_value=0, max_value=3),  # second node of the claim
        ),
        max_size=40,
    )
)
def test_property_used_cores_counter_tracks_the_nodes(ops):
    """The cluster's free list and ``used_cores`` counter match a per-node
    held model kept here after any mix of accepted and rejected
    operations (releases on DOWN nodes and recoveries of busy ones
    included), a rejected one leaves both untouched, and
    ``on_busy_change`` is handed exactly the counter's value."""
    cluster = Cluster.homogeneous(4, 8)
    spy = _BusySpy()
    cluster._on_busy_change = spy.on_busy_change
    held, up = [0] * 4, [True] * 4
    for op, node, cores, other in ops:
        before, reported = cluster.used_cores, len(spy.seen)
        if op in ("claim", "release"):
            # two-node allocations: a failing second entry must not leave
            # the first one counted
            alloc = Allocation({other: 1, node: cores})
            if op == "claim":
                ok = all(i < 4 and up[i] and held[i] + c <= 8 for i, c in alloc.items())
            else:
                ok = all(i < 4 and held[i] >= c for i, c in alloc.items())
            try:
                getattr(cluster, op)(alloc)
            except ValueError:
                assert not ok
                assert cluster.used_cores == before
                assert len(spy.seen) == reported
            else:
                assert ok
                sign = 1 if op == "claim" else -1
                for i, c in alloc.items():
                    held[i] += sign * c
                assert cluster.used_cores == before + sign * alloc.total_cores
                assert spy.seen[reported:] == [cluster.used_cores]
        elif node < 4:
            (cluster.fail_node if op == "fail" else cluster.recover_node)(node)
            up[node] = op == "recover"
            assert cluster.used_cores == before
        assert cluster.node_free == [8 - h if u else 0 for h, u in zip(held, up)]
        assert cluster.used_cores == sum(held)

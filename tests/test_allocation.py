"""Tests for ResourceRequest and Allocation."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation, ResourceRequest


class TestResourceRequest:
    def test_flexible_cores(self):
        req = ResourceRequest(cores=12)
        assert not req.is_shaped
        assert req.total_cores == 12
        assert str(req) == "procs=12"

    def test_shaped_nodes_ppn(self):
        req = ResourceRequest(nodes=3, ppn=8)
        assert req.is_shaped
        assert req.total_cores == 24
        assert str(req) == "nodes=3:ppn=8"

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequest(cores=0)

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequest(cores=-4)

    def test_mixing_forms_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequest(cores=4, nodes=1, ppn=4)

    def test_nodes_without_ppn_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequest(nodes=2)

    def test_ppn_without_nodes_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequest(ppn=8)

    def test_rejection_messages_name_the_request(self):
        with pytest.raises(ValueError, match="at least one core: procs=0$"):
            ResourceRequest(cores=0)
        with pytest.raises(ValueError, match="both be positive: procs=0$"):
            ResourceRequest(ppn=8)
        with pytest.raises(ValueError, match="both be positive: nodes=2:ppn=0$"):
            ResourceRequest(nodes=2)

    @pytest.mark.parametrize(
        "req, to_30",
        [(ResourceRequest(cores=12), {"cores": 30}),
         (ResourceRequest(nodes=3, ppn=8), {"ppn": 10})],
        ids=["procs", "shaped"],
    )
    def test_derived_totals_are_not_part_of_the_value(self, req, to_30):
        """``total_cores`` and ``is_shaped`` are derived once at
        construction; equality, hash, repr, ``replace`` and pickling (the
        ``-j`` worker path) see only the three fields."""
        fields = (req.cores, req.nodes, req.ppn)
        assert req == ResourceRequest(*fields) and hash(req) == hash(fields)
        assert req != ResourceRequest(cores=5)
        assert repr(req) == "ResourceRequest(cores=%d, nodes=%d, ppn=%d)" % fields
        wider = dataclasses.replace(req, **to_30)
        assert wider.total_cores == 30 and wider.is_shaped == req.is_shaped
        back = pickle.loads(pickle.dumps(req))
        assert back == req and hash(back) == hash(req)
        assert (back.total_cores, back.is_shaped) == (req.total_cores, req.is_shaped)
        with pytest.raises(TypeError):
            ResourceRequest(cores=4, total_cores=4)


class TestAllocation:
    def test_mapping_protocol(self):
        alloc = Allocation({0: 4, 2: 8})
        assert alloc[0] == 4
        assert alloc[1] == 0
        assert 2 in alloc and 1 not in alloc
        assert len(alloc) == 2
        assert list(alloc) == [0, 2]

    def test_total_cores(self):
        assert Allocation({0: 4, 1: 8}).total_cores == 12

    def test_total_cores_follows_every_constructor(self):
        """The total is summed once at construction: every way of making an
        allocation must leave it equal to the sum over the mapping."""
        a = Allocation({0: 6, 1: 8})
        made = [
            a,
            a + Allocation({1: 2, 3: 4}),
            a - Allocation({0: 6, 1: 3}),
            a.subset({1: 5}),
            Allocation._trusted({2: 3, 5: 1}),
            Allocation.empty(),
            pickle.loads(pickle.dumps(a)),
        ]
        for alloc in made:
            assert alloc.total_cores == sum(count for _, count in alloc.items())
        assert [alloc.total_cores for alloc in made] == [14, 20, 5, 5, 4, 0, 14]
        assert pickle.loads(pickle.dumps(a)) == a

    def test_zero_entries_dropped(self):
        alloc = Allocation({0: 4, 1: 0})
        assert 1 not in alloc
        assert len(alloc) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Allocation({0: -1})

    def test_empty(self):
        assert Allocation.empty().is_empty
        assert Allocation.empty().total_cores == 0

    def test_add(self):
        combined = Allocation({0: 4}) + Allocation({0: 2, 1: 8})
        assert combined[0] == 6 and combined[1] == 8

    def test_sub(self):
        rest = Allocation({0: 6, 1: 8}) - Allocation({0: 2})
        assert rest[0] == 4 and rest[1] == 8

    def test_sub_to_zero_removes_node(self):
        rest = Allocation({0: 4, 1: 2}) - Allocation({1: 2})
        assert 1 not in rest

    def test_over_subtraction_rejected(self):
        with pytest.raises(ValueError):
            Allocation({0: 2}) - Allocation({0: 3})

    def test_sub_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            Allocation({0: 2}) - Allocation({5: 1})

    def test_equality_and_hash(self):
        a = Allocation({0: 4, 1: 2})
        b = Allocation({1: 2, 0: 4})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Allocation({0: 4})

    def test_node_indices_sorted(self):
        assert Allocation({5: 1, 2: 1, 9: 1}).node_indices == (2, 5, 9)

    def test_hostlist_torque_style(self):
        alloc = Allocation({7: 2})
        assert alloc.hostlist() == ["node007/0", "node007/1"]

    def test_subset_valid(self):
        alloc = Allocation({0: 4, 1: 4})
        sub = alloc.subset({1: 2})
        assert sub == Allocation({1: 2})

    def test_subset_not_contained_rejected(self):
        with pytest.raises(ValueError):
            Allocation({0: 4}).subset({0: 5})

    def test_immutability(self):
        alloc = Allocation({0: 4})
        with pytest.raises(AttributeError):
            alloc.new_attr = 1  # __slots__ blocks it


node_core_maps = st.dictionaries(
    st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=16), max_size=8
)


@given(node_core_maps, node_core_maps)
def test_property_add_then_sub_roundtrip(a_map, b_map):
    a, b = Allocation(a_map), Allocation(b_map)
    assert (a + b) - b == a


@given(node_core_maps, node_core_maps)
def test_property_add_commutative_total(a_map, b_map):
    a, b = Allocation(a_map), Allocation(b_map)
    assert (a + b).total_cores == a.total_cores + b.total_cores
    assert a + b == b + a


@given(node_core_maps)
def test_property_hostlist_length_matches_total(core_map):
    alloc = Allocation(core_map)
    assert len(alloc.hostlist()) == alloc.total_cores

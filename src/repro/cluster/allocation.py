"""Resource requests and concrete allocations.

A :class:`ResourceRequest` is *what a job asks for* — either a flexible total
core count (ESP-style "fraction of the machine") or a Torque-style
``nodes=N:ppn=P`` shape.  An :class:`Allocation` is *what it got*: a concrete
mapping of node index to core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


@dataclass(frozen=True, slots=True)
class ResourceRequest:
    """A resource requirement.

    Exactly one of the two forms must be used:

    * ``cores`` — a flexible total; the scheduler may spread it over any
      nodes (Torque ``procs=N`` semantics, used by the ESP jobs).
    * ``nodes`` + ``ppn`` — P cores on each of N distinct nodes (Torque
      ``nodes=N:ppn=P``, used by Quadflow and the Fig. 12 overhead study).
    """

    cores: int = 0
    nodes: int = 0
    ppn: int = 0
    #: True for ``nodes=N:ppn=P`` requests
    is_shaped: bool = field(init=False, repr=False, compare=False)
    #: total number of cores the request represents
    total_cores: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # derived once, and before the messages below format ``self``
        shaped = self.nodes > 0
        object.__setattr__(self, "is_shaped", shaped)
        object.__setattr__(
            self, "total_cores", self.nodes * self.ppn if shaped else self.cores
        )
        if shaped or self.ppn > 0:
            if self.cores:
                raise ValueError("specify either cores= or nodes=/ppn=, not both")
            if self.nodes <= 0 or self.ppn <= 0:
                raise ValueError(f"nodes and ppn must both be positive: {self}")
        elif self.cores <= 0:
            raise ValueError(f"request must ask for at least one core: {self}")

    def __str__(self) -> str:
        if self.is_shaped:
            return f"nodes={self.nodes}:ppn={self.ppn}"
        return f"procs={self.cores}"


class Allocation:
    """An immutable concrete assignment of cores on nodes.

    Behaves like a read-only mapping ``{node_index: core_count}`` and
    supports union (``+``) and subtraction (``-``) so dynamic expansion and
    partial release compose naturally::

        expanded = original + grant
        shrunk   = expanded - released
    """

    __slots__ = ("_cores_by_node", "_total_cores")

    def __init__(self, cores_by_node: Mapping[int, int]) -> None:
        cleaned = {int(n): int(c) for n, c in cores_by_node.items() if c}
        for node, count in cleaned.items():
            if count < 0:
                raise ValueError(f"negative core count {count} on node {node}")
        self._cores_by_node = dict(sorted(cleaned.items()))
        self._total_cores = sum(cleaned.values())

    @classmethod
    def _trusted(cls, cores_by_node: dict[int, int]) -> "Allocation":
        """Wrap a mapping that is already in normal form — plain-int nodes
        in ascending order, positive plain-int counts — without re-deriving
        it.  For allocations the availability profile picks out of its own
        integer vectors; anything assembled from caller data goes through
        the validating constructor."""
        self = object.__new__(cls)
        self._cores_by_node = cores_by_node
        self._total_cores = sum(cores_by_node.values())
        return self

    @classmethod
    def empty(cls) -> "Allocation":
        return cls({})

    # -- mapping protocol ------------------------------------------------
    def __getitem__(self, node: int) -> int:
        return self._cores_by_node.get(node, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cores_by_node)

    def __len__(self) -> int:
        return len(self._cores_by_node)

    def __contains__(self, node: int) -> bool:
        return node in self._cores_by_node

    def items(self):
        return self._cores_by_node.items()

    def keys(self):
        return self._cores_by_node.keys()

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Allocation") -> "Allocation":
        merged = dict(self._cores_by_node)
        for node, count in other.items():
            merged[node] = merged.get(node, 0) + count
        return Allocation(merged)

    def __sub__(self, other: "Allocation") -> "Allocation":
        result = dict(self._cores_by_node)
        for node, count in other.items():
            have = result.get(node, 0)
            if count > have:
                raise ValueError(
                    f"cannot release {count} cores on node {node}: only {have} held"
                )
            result[node] = have - count
        return Allocation(result)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._cores_by_node == other._cores_by_node

    def __hash__(self) -> int:
        return hash(tuple(self._cores_by_node.items()))

    # -- queries ---------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Total cores across all nodes (summed once, at construction)."""
        return self._total_cores

    @property
    def node_indices(self) -> tuple[int, ...]:
        """Sorted node indices with at least one core allocated."""
        return tuple(self._cores_by_node)

    @property
    def is_empty(self) -> bool:
        return not self._cores_by_node

    def hostlist(self) -> list[str]:
        """Torque-style ``node007/0+node007/1`` host naming, one per core."""
        hosts: list[str] = []
        for node, count in self._cores_by_node.items():
            hosts.extend(f"node{node:03d}/{slot}" for slot in range(count))
        return hosts

    def subset(self, nodes: Mapping[int, int]) -> "Allocation":
        """The portion of this allocation covering the given node→cores map.

        Raises ``ValueError`` if the requested portion is not contained in
        this allocation (a job may only release cores it actually holds).
        """
        portion = Allocation(nodes)
        _ = self - portion  # containment check; raises if not contained
        return portion

    def __repr__(self) -> str:
        body = "+".join(f"n{n}:{c}" for n, c in self._cores_by_node.items())
        return f"<Allocation {self.total_cores}c {body or '(empty)'}>"

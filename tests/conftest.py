"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import pytest

import repro.jobs.job as jobmod
from repro.cluster.machine import Cluster
from repro.maui.config import MauiConfig
from repro.sim.engine import Engine
from repro.system import BatchSystem


def reset_job_ids() -> None:
    """Job ids are process-global; identical runs need identical ids."""
    jobmod._job_counter = itertools.count(1)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def small_cluster() -> Cluster:
    """4 nodes x 8 cores: big enough for interesting packing, small enough
    to reason about by hand."""
    return Cluster.homogeneous(4, 8)


@pytest.fixture
def system() -> BatchSystem:
    """A default 4x8 batch system (dynamic allocation on, no fairness)."""
    return BatchSystem(num_nodes=4, cores_per_node=8, config=MauiConfig())


@pytest.fixture
def paper_system() -> BatchSystem:
    """The paper's 15x8 testbed with ReservationDepth=ReservationDelayDepth=5."""
    return BatchSystem(
        num_nodes=15,
        cores_per_node=8,
        config=MauiConfig(reservation_depth=5, reservation_delay_depth=5),
    )

"""repro — a batch system with fair scheduling for evolving applications.

A faithful, laptop-scale reproduction of Prabhakaran et al., *"A Batch
System with Fair Scheduling for Evolving Applications"* (ICPP 2014): a
Torque/Maui-style batch stack (server, TM interface, scheduler) as a
deterministic discrete-event simulation, extended with the paper's dynamic
allocation facilities (``tm_dynget``/``tm_dynfree``), the extended scheduling
iteration (Algorithm 2) and the dynamic fairness (DFS) policies.

Quickstart
----------
>>> from repro import BatchSystem, MauiConfig
>>> from repro.workloads import make_esp_workload
>>> system = BatchSystem(num_nodes=15, cores_per_node=8, config=MauiConfig())
>>> make_esp_workload(total_cores=120, dynamic=True).submit_to(system)
>>> system.run()
>>> jobs = list(system.server.jobs.values())
>>> print(system.metrics())
"""

from repro.cluster import Allocation, Cluster, Node, ResourceRequest
from repro.jobs import EvolutionProfile, EvolutionStep, Job, JobFlexibility, JobState
from repro.maui import (
    DFSConfig,
    DFSPolicy,
    MauiConfig,
    MauiScheduler,
    PrincipalLimits,
    parse_maui_config,
)
from repro.metrics import WorkloadMetrics
from repro.rms import Server, TMContext
from repro.sim import Engine, EventKind, TraceLog
from repro.system import BatchSystem

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "BatchSystem",
    "Cluster",
    "DFSConfig",
    "DFSPolicy",
    "Engine",
    "EvolutionProfile",
    "EvolutionStep",
    "EventKind",
    "Job",
    "JobFlexibility",
    "JobState",
    "MauiConfig",
    "MauiScheduler",
    "Node",
    "PrincipalLimits",
    "ResourceRequest",
    "Server",
    "TMContext",
    "TraceLog",
    "WorkloadMetrics",
    "parse_maui_config",
    "__version__",
]

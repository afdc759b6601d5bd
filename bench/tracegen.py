"""The benchmark's frozen synthetic SWF trace generator.

A copy of ``benchmarks/test_replay_stream.py::_synthetic_swf`` taken when
the benchmark was defined.  It lives here so that editing the kernel suite
can never change the benchmark's inputs: the same ``(num_jobs, seed, load)``
must give the same bytes on every commit the benchmark is run against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NUM_NODES", "CORES_PER_NODE", "synthetic_swf"]

#: the replay machine: 32 nodes x 8 cores
NUM_NODES = 32
CORES_PER_NODE = 8


def synthetic_swf(num_jobs: int, seed: int, *, load: float) -> str:
    """A seeded SWF trace at the target offered load.

    Log-uniform sizes (1-64 cores) and runtimes (5 min - 2 h), exponential
    arrivals with the rate chosen so mean offered work equals ``load`` of
    the machine, 32 users — the shape of production archive traces,
    deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    sizes = np.exp(rng.uniform(np.log(1), np.log(64), num_jobs)).round().astype(int)
    sizes = np.clip(sizes, 1, 64)
    runtimes = (
        np.exp(rng.uniform(np.log(300), np.log(7200), num_jobs)).round().astype(int)
    )
    cores = NUM_NODES * CORES_PER_NODE
    rate = load * cores / (float(sizes.mean()) * float(runtimes.mean()))
    arrivals = np.cumsum(rng.exponential(1.0 / rate, num_jobs)).round().astype(int)
    users = rng.integers(1, 33, num_jobs)
    lines = [
        f"{i + 1} {arrivals[i]} -1 {runtimes[i]} {sizes[i]} -1 -1 "
        f"{sizes[i]} {int(runtimes[i] * 1.2)} -1 1 {users[i]} {users[i]} "
        "-1 -1 -1 -1 -1"
        for i in range(num_jobs)
    ]
    return "\n".join(lines) + "\n"

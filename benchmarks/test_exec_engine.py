"""Exec engine — sweep wall-clock, serial vs process-parallel.

Runs a reduced seed sweep (one configuration slice of the grid per seed)
both in-process and through a 2-worker process pool, recording honest wall
clocks into the bench snapshot.  There is deliberately no speedup
assertion: on a single-CPU container the pool *cannot* win (it pays fork +
pickle overhead for zero extra parallelism), and the snapshot's
``cpu_count`` field — the affinity-mask count, not the installed count —
is what makes the two numbers comparable across machines.  Determinism —
the part that must hold everywhere — is asserted here and, exhaustively,
in ``tests/test_exec_determinism.py``.
"""

import pytest

from benchmarks.conftest import record_timed, usable_cpu_count
from repro.experiments.sweep import run_seed_sweep

SEEDS = [1, 2014]


@pytest.mark.slow
@pytest.mark.benchmark(group="exec")
@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "2-workers"])
def test_sweep_wall_clock(benchmark, workers):
    result = benchmark.pedantic(
        run_seed_sweep, args=(SEEDS,), kwargs={"workers": workers},
        rounds=1, iterations=1,
    )
    assert sorted(result.samples) == ["Dyn-500", "Dyn-600", "Dyn-HP", "Static"]
    assert all(len(rows) == len(SEEDS) for rows in result.samples.values())
    usable = usable_cpu_count()
    values = dict(
        runs=4 * len(SEEDS),
        workers=workers,
        usable_cpus=usable,
    )
    if workers > usable:
        # make the snapshot self-explanatory: this row measured pool
        # overhead, not parallel speedup
        values["note"] = (
            f"only {usable} usable CPU(s): {workers} workers cannot "
            "run concurrently, wall clock includes fork+pickle overhead"
        )
    record_timed("exec", f"seed_sweep_workers_{workers}", benchmark, **values)

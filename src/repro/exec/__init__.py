"""Process-parallel experiment execution (``repro.exec``).

The paper's headline artifacts are *ensembles* of independent simulations —
configurations × seeds × ablations.  Every run is hermetic (a fresh
:class:`~repro.system.BatchSystem` driven by a seed), so campaigns
parallelise perfectly across processes.  This package provides the one
engine all experiment drivers share:

* :func:`map_specs` — ordered parallel map of a module-level function over
  picklable arguments, with a graceful in-process fallback, so
  ``workers=1`` output is *bit-identical* to ``workers=N``;
* :func:`resolve_workers` — the ``--jobs`` contract (``0`` → every CPU the
  process may run on, ``< 1`` otherwise rejected).

Each campaign keeps its worker function in its own module
(:mod:`repro.experiments.table2`, :mod:`~repro.experiments.sweep`,
:mod:`~repro.experiments.resilience`, :mod:`repro.workloads.random_workload`)
and maps it over configurations, seeds or ``(configuration, seed)`` cells,
binding the fixed arguments with :func:`functools.partial`.
"""

from repro.exec.engine import ExecProgress, map_specs, resolve_workers

__all__ = ["ExecProgress", "map_specs", "resolve_workers"]

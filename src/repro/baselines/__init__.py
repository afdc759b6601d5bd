"""Comparison baselines from the paper's related-work discussion.

* :mod:`repro.baselines.guaranteeing` — the CooRMv2-style *guaranteeing*
  approach (Klein & Pérez, CLUSTER 2011): every evolving job preallocates its
  maximum resource need at submission (paper Section II-B).
* :mod:`repro.baselines.slurm_style` — the SLURM expand idiom (Section V):
  a running job submits a dependent helper job and merges its allocation,
  so dynamic requests compete through the *static* fairshare machinery.
"""

from repro.baselines.guaranteeing import (
    make_guaranteeing_esp_workload,
    run_guaranteeing_esp,
)
from repro.baselines.slurm_style import SlurmEvolvingApp, make_slurm_esp_workload, run_slurm_esp

__all__ = [
    "SlurmEvolvingApp",
    "make_guaranteeing_esp_workload",
    "make_slurm_esp_workload",
    "run_guaranteeing_esp",
    "run_slurm_esp",
]

"""Experiment harness: one runner per table/figure of the paper.

========  ==========================================================
artifact  runner
========  ==========================================================
Table I   :func:`repro.experiments.table1.table1_rows`
Table II  :func:`repro.experiments.table2.run_table2`
Fig. 7    :func:`repro.experiments.fig7.run_fig7`
Fig. 8    :func:`repro.experiments.fig8.run_fig8`
Fig. 9    :func:`repro.experiments.fig9.run_fig9`
Fig. 10   :func:`repro.experiments.fig10.run_fig10`
Fig. 11   :func:`repro.experiments.fig11.run_fig11`
Fig. 12   :func:`repro.experiments.fig12.run_fig12`
========  ==========================================================

Beyond the paper's artifacts, :func:`repro.experiments.resilience.run_resilience`
reruns the Table II configurations under seeded fault injection
(``repro.faults``); see ``docs/RESILIENCE.md``.
"""

from repro.experiments.configs import (
    DYN_500,
    DYN_600,
    DYN_HP,
    STATIC,
    ESPConfiguration,
    all_configurations,
    configuration,
)
from repro.experiments.runner import ESPResult, run_esp_configuration

__all__ = [
    "DYN_500",
    "DYN_600",
    "DYN_HP",
    "ESPConfiguration",
    "ESPResult",
    "STATIC",
    "all_configurations",
    "configuration",
    "run_esp_configuration",
]

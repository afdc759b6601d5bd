"""Byte-for-byte pins of every workload builder at fixed seeds.

Each digest covers every :class:`~repro.workloads.spec.JobSpec` field of
every spec in order, plus the class, run time and growth knobs of the
application each ``app_factory`` builds.  A refactor of the builders must
leave these digests alone: a changed digest means a changed workload, and
so a changed schedule behind every table the workload feeds.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.baselines import make_guaranteeing_esp_workload, make_slurm_esp_workload
from repro.system import BatchSystem
from repro.workloads import (
    evolving_ify,
    from_swf,
    make_diurnal_workload,
    make_esp_workload,
    make_random_workload,
)
from repro.workloads.spec import JobSpec

_APP_KNOBS = ("negotiation_timeout", "extra_cores")


def _app_row(spec: JobSpec) -> tuple:
    if spec.app_factory is None:
        return (None,)
    app = spec.app_factory()
    runtime = getattr(app, "runtime", None)
    if runtime is None:
        runtime = getattr(app, "static_runtime", None)
    knobs = tuple(getattr(app, name, None) for name in _APP_KNOBS)
    return (type(app).__qualname__, runtime, *knobs)


def _digest(workload) -> str:
    h = hashlib.sha256(workload.name.encode())
    for spec in workload.specs:
        row = tuple(
            getattr(spec, f.name)
            for f in dataclasses.fields(JobSpec)
            if f.name != "app_factory"
        )
        h.update(repr((row, _app_row(spec))).encode())
        h.update(b"\n")
    return h.hexdigest()


def _swf_text(n: int = 40) -> str:
    """A small deterministic SWF trace: some rows without a requested
    time (walltime from the factor) and one unusable row (skipped)."""
    lines = ["; synthetic trace"]
    for i in range(1, n + 1):
        runtime = 60 + 37 * i
        req_time = -1 if i % 5 == 0 else runtime + 120
        procs = 1 + (7 * i) % 16
        lines.append(
            f"{i} {30 * i} 0 {runtime} {procs} -1 -1 {procs} {req_time} "
            f"-1 1 {1 + i % 4} {1 + i % 2} -1 1 -1 -1 -1"
        )
    lines.append(f"{n + 1} {30 * (n + 1)} 0 -1 4 -1 -1 4 100 -1 0 1 1 -1 1 -1 -1 -1")
    return "\n".join(lines) + "\n"


BUILDERS = {
    "esp_dynamic": lambda: make_esp_workload(),
    "esp_static": lambda: make_esp_workload(dynamic=False, seed=7),
    "esp_negotiation": lambda: make_esp_workload(seed=3, negotiation_timeout=120.0),
    "esp_small_machine": lambda: make_esp_workload(
        32, seed=11, burst=10, interval=15.0, walltime_factor=1.5
    ),
    "guaranteeing": lambda: make_guaranteeing_esp_workload(),
    "guaranteeing_small": lambda: make_guaranteeing_esp_workload(
        64, seed=5, walltime_factor=1.25
    ),
    "slurm": lambda: make_slurm_esp_workload(BatchSystem(15, 8)),
    "slurm_padded": lambda: make_slurm_esp_workload(
        BatchSystem(8, 8), seed=9, walltime_factor=1.5
    ),
    "random": lambda: make_random_workload(200, 120, seed=1),
    "random_half_evolving": lambda: make_random_workload(
        150, 64, evolving_share=0.5, extra_cores=2, num_users=3, seed=8
    ),
    "diurnal": lambda: make_diurnal_workload(2, 120, jobs_per_day=60, seed=4),
    "evolving_ify": lambda: evolving_ify(from_swf(_swf_text()), 0.5, seed=3),
    "evolving_ify_shape": lambda: evolving_ify(
        from_swf(_swf_text()), 0.25, seed=6,
        extra_cores=2, at_fraction=0.3, retry_fraction=0.5,
    ),
}

#: recorded at the commit before the ESP builders were merged
DIGESTS = {
    "esp_dynamic": (
        "3edad877e0ab5cdff0155511a275ae20"
        "f9cdde5beb9685449af8696ee14549db"
    ),
    "esp_static": (
        "60650e623eff981dba7723a41fc6172a"
        "b836543a7f5c1d177e339889d6adf082"
    ),
    "esp_negotiation": (
        "a3b7001c719c0fcdebf06a4ec548d5cd"
        "9aad71275585dc0013c464b285824bba"
    ),
    "esp_small_machine": (
        "c884a8980ab6d5c14fe2636d5ef80b82"
        "ee9d45f66b40f54486bc96bf3d0a757b"
    ),
    "guaranteeing": (
        "fd5d527d8cd2db58332d4442c3f029ff"
        "8e2f51d95ee829f0a716e872d0aebc39"
    ),
    "guaranteeing_small": (
        "b70f20b4a07da0a3de534a23c804bd68"
        "0c767bc8af6399fff96db3ced7b516b2"
    ),
    "slurm": (
        "8aebea9cd2cf31dab77e150e46f884e9"
        "68efc067d24b9073e7a7dc4afaa4ec0d"
    ),
    "slurm_padded": (
        "e28e885017bd4b3778dca231fa0cefef"
        "6f38cdf5790b64c8d5f69ad78d7733db"
    ),
    "random": (
        "6cdfd135816e8b77c9d904597d16bbbc"
        "3e81bc375080f631e143249b4aba77be"
    ),
    "random_half_evolving": (
        "df9ca39ba1b7d451fe0d8888a06e1db5"
        "ddcdeb96a8f309afa8a17ba4edf255cd"
    ),
    "diurnal": (
        "92eb53c84885b29df511975c391210f0"
        "58b4d791ae496616c955ae4fe167862c"
    ),
    "evolving_ify": (
        "cb9af25fa69581dc1171f94749f89439"
        "676de2b24fff3551fbc5d59510f0180f"
    ),
    "evolving_ify_shape": (
        "17027eb16d45164c0ea6b2f49f696030"
        "a7d47a19f9bfb68d30f7319fbf0870dd"
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_workload_bytes_pinned(name):
    assert _digest(BUILDERS[name]()) == DIGESTS[name]


def test_every_builder_is_pinned():
    assert set(BUILDERS) == set(DIGESTS)

"""The benchmark's patch table still finds the program.

``bench/spans.py`` wraps callables by dotted name for the traced pass and
*skips* the ones a refactor has moved, so a rename does not break the
benchmark — it silently zeroes a per-layer metric (``maui.delay_pct``
rests on two names the scheduler module must keep looking up through its
globals).  Only ``bench/test_smoke.py`` would notice, and tier-1 does not
collect it; this guard does the same check from inside ``tests/``.  The
benchmark file is loaded by path and only read.
"""

import types
from collections import Counter
from pathlib import Path

from repro.experiments.configs import all_configurations
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    # compiled from source here: an import would leave a .pyc under bench/
    module = types.ModuleType("bench_spans_under_test")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_resolves():
    spans = _load_spans()
    unresolved = []
    for module, dotted, _span in spans._TARGETS:
        try:
            spans._resolve(module, dotted)
        except (ImportError, AttributeError, KeyError):
            unresolved.append(f"{module}:{dotted}")
    assert unresolved == []


def test_dynamic_pass_calls_the_patched_names(monkeypatch):
    """A wrapper set on the scheduler module's ``measure_delays`` and
    ``plan_static`` — what ``install`` does — is what the dynamic-request
    pass calls."""
    import repro.maui.scheduler as scheduler

    spans = _load_spans()
    patched = [
        dotted for module, dotted, _ in spans._TARGETS
        if module == "repro.maui.scheduler"
    ]
    assert sorted(patched) == ["measure_delays", "plan_static"]
    calls = Counter()
    for name in patched:
        def counting(*args, _name=name, _original=getattr(scheduler, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scheduler, name, counting)
    config = next(c for c in all_configurations() if c.name == "Dyn-HP")
    system = BatchSystem(num_nodes=8, cores_per_node=4, config=config.maui)
    make_esp_workload(32, dynamic=True, seed=2014).submit_to(system)
    system.run(max_events=5_000_000)
    assert system.scheduler.stats["dyn_granted"] > 0
    assert calls["measure_delays"] > 0 and calls["plan_static"] > 0

"""SLO engine: objective parsing, windowed evaluation, breach causality.

The unit layer drives a :class:`WindowedMetrics` by hand and checks that
objectives evaluate exactly at frame close — breaches anchored to the
window's worst-wait job and handed to the decision ledger, never written
into the trace.  The end-to-end layer runs a real workload and checks the
deterministic export contract.
"""

import io
from types import SimpleNamespace

import numpy as np
import pytest

from repro.maui.config import MauiConfig
from repro.metrics.validate import validate_trace
from repro.obs import SLOEngine, Telemetry, parse_slo
from repro.obs.ledger import DecisionKind, DecisionLedger
from repro.obs.windows import WindowedMetrics
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload
from repro.workloads.random_workload import make_random_workload


class TestParse:
    def test_plain_threshold(self):
        obj = parse_slo("mean_wait < 120")
        assert (obj.metric, obj.op, obj.threshold) == ("mean_wait", "<", 120.0)
        assert obj.quantile is None

    @pytest.mark.parametrize(
        "text,seconds",
        [("p99_wait < 4h", 14400.0), ("p90_wait <= 30m", 1800.0),
         ("max_wait < 45s", 45.0)],
    )
    def test_duration_suffixes(self, text, seconds):
        assert parse_slo(text).threshold == seconds

    def test_quantile_metrics(self):
        assert parse_slo("p99_wait < 1h").quantile == 0.99
        assert parse_slo("p50_slowdown <= 3").quantile == 0.5

    def test_lower_bound_objectives(self):
        obj = parse_slo("jain >= 0.9")
        assert obj.holds(0.95)
        assert not obj.holds(0.5)

    @pytest.mark.parametrize(
        "bad",
        ["p99_wait", "wait < 10", "p99_memory < 10", "mean_wait < ten",
         "p00_wait < 10", "mean_wait ~ 10"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    def test_engine_requires_objectives(self):
        with pytest.raises(ValueError):
            SLOEngine([])


def _job(job_id, user, submit, start, end):
    return SimpleNamespace(
        job_id=job_id,
        user=user,
        account="default",
        submit_time=submit,
        start_time=start,
        end_time=end,
        state=SimpleNamespace(value="completed"),
        is_evolving=False,
        dyn_granted=0,
    )


def _advance(windows, t):
    """Push every lagging integral feed past ``t`` so frames close."""
    windows.on_busy_change(t, 0)
    windows.observe_queue_depth(t, 0)


class TestEngine:
    def _engine(self, objectives, *, ledger=None):
        windows = WindowedMetrics(10.0, total_cores=8)
        engine = SLOEngine(objectives, ledger=ledger)
        engine.attach_windows(windows)
        return windows, engine

    def test_quantile_must_be_sketched(self):
        windows = WindowedMetrics(10.0)
        with pytest.raises(ValueError, match="p75"):
            SLOEngine(["p75_wait < 10"]).attach_windows(windows)

    def test_breach_fires_at_frame_close_with_anchor(self):
        windows, engine = self._engine(["max_wait < 5"])
        windows.fold_job(_job("job.1", "alice", 0.0, 2.0, 3.0))
        windows.fold_job(_job("job.2", "bob", 0.0, 8.0, 9.0))
        assert engine.breaches == []  # nothing closed yet
        _advance(windows, 20.0)
        (breach,) = engine.breaches
        assert breach["objective"] == "max_wait < 5"
        assert breach["value"] == pytest.approx(8.0)
        assert breach["window"] == 0
        # anchored to the worst-wait job of the window
        assert breach["job_id"] == "job.2"
        assert breach["job_user"] == "bob"
        assert breach["job_submit"] == 0.0

    def test_holding_objective_does_not_breach(self):
        windows, engine = self._engine(["max_wait < 5"])
        windows.fold_job(_job("job.1", "alice", 0.0, 2.0, 3.0))
        _advance(windows, 20.0)
        assert engine.breaches == []
        (row,) = engine.summary()
        assert row["ok"] and row["evaluations"] == 1
        assert row["worst_value"] == pytest.approx(2.0)

    def test_empty_window_is_skipped_not_breached(self):
        windows, engine = self._engine(["mean_wait < 1"])
        windows.fold_job(_job("job.1", "alice", 0.0, 6.0, 7.0))
        # advancing to t=40 closes empty frames 1 and 2 alongside frame 0
        _advance(windows, 40.0)
        (row,) = engine.summary()
        assert row["evaluations"] == 1
        assert row["breaches"] == 1

    def test_exact_p90_breaches_where_p2_read_under_the_bound(self):
        # 90 % zeros / 10 % thousands: the p90 wait is 1000 s, which breaches
        # "p90_wait < 15m"; the P² sketch read 617 s here and held it
        rng = np.random.default_rng(21)
        waits = np.where(rng.uniform(size=2000) < 0.9, 0.0, 1000.0)
        windows = WindowedMetrics(3600.0)
        engine = SLOEngine(["p90_wait < 15m"])
        engine.attach_windows(windows)
        for i, wait in enumerate(waits):
            windows.fold_job(_job(f"job.{i}", "u", 0.0, wait, wait + 10.0))
        _advance(windows, 4000.0)
        (breach,) = engine.breaches
        assert breach["value"] == 1000.0
        assert breach["value"] == float(np.quantile(waits, 0.9))

    def test_worst_value_direction_per_bound(self):
        windows, engine = self._engine(["mean_wait < 100", "p90_wait > 0"])
        windows.fold_job(_job("job.1", "a", 0.0, 2.0, 3.0))
        windows.fold_job(_job("job.2", "b", 10.0, 18.0, 19.0))
        _advance(windows, 40.0)
        upper, lower = engine.summary()
        assert upper["worst_value"] == pytest.approx(8.0)  # max for <
        assert lower["worst_value"] == pytest.approx(2.0)  # min for >

    def test_breach_mirrors_into_trace_and_ledger(self):
        """The ledger receives each breach, anchored on the worst-wait job
        and dated at the window's end; the engine holds no trace."""
        ledger = DecisionLedger()
        windows, engine = self._engine(["max_wait < 5"], ledger=ledger)
        windows.fold_job(_job("job.9", "alice", 0.0, 8.0, 9.0))
        _advance(windows, 20.0)
        (breach,) = engine.breaches
        (decision,) = ledger.of_kind(DecisionKind.SLO_BREACH)
        assert decision.job_id == "job.9"
        assert decision.time == breach["end"] == 10.0
        assert decision.payload["objective"] == "max_wait < 5"
        assert decision.payload["value"] == breach["value"]
        chain = ledger.causal_chain("job.9")
        assert [d["kind"] for d in chain] == ["slo_breach"]
        assert not hasattr(engine, "attach_trace")

    def test_finalize_evaluates_open_frames_once(self):
        windows, engine = self._engine(["max_wait < 5"])
        windows.fold_job(_job("job.1", "alice", 0.0, 8.0, 9.0))
        engine.finalize()
        assert len(engine.breaches) == 1
        engine.finalize()  # idempotent: the frame is already evaluated
        _advance(windows, 20.0)  # ... also when it properly closes later
        assert len(engine.breaches) == 1

    def test_fairness_metrics_read_latest_sample(self):
        fairness = SimpleNamespace(
            latest={"jain": 0.4, "max_share_error": 0.3}, finalize=lambda now: None
        )
        windows = WindowedMetrics(10.0)
        engine = SLOEngine(["jain >= 0.9", "share_error < 0.1"], fairness=fairness)
        engine.attach_windows(windows)
        windows.fold_job(_job("job.1", "a", 0.0, 1.0, 2.0))
        _advance(windows, 20.0)
        assert len(engine.breaches) == 2
        # fairness breaches carry no job anchor
        assert all(b["job_id"] is None for b in engine.breaches)

    def test_export_strips_job_id_and_is_deterministic(self):
        def build():
            windows, engine = self._engine(["max_wait < 5"])
            windows.fold_job(_job("job.7", "alice", 0.0, 8.0, 9.0))
            _advance(windows, 20.0)
            buf = io.StringIO()
            engine.export_jsonl(buf)
            return buf.getvalue()

        text = build()
        assert text == build()
        assert '"schema":"repro-slo/1"' in text
        assert '"job_user":"alice"' in text
        assert '"job_id"' not in text


class TestEndToEnd:
    def _run(self):
        telemetry = Telemetry(
            windows=300.0, slo=["p90_wait < 60", "jain >= 0.99"]
        )
        system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
        make_random_workload(
            80, system.cluster.total_cores, seed=7, mean_interarrival=30.0
        ).submit_to(system)
        system.run(max_events=1_000_000)
        return telemetry

    def test_slo_requires_windows(self):
        with pytest.raises(ValueError):
            Telemetry(slo=["mean_wait < 10"])

    def test_slo_implies_fairness(self):
        telemetry = self._run()
        assert telemetry.fairness is not None
        assert telemetry.slo.fairness is telemetry.fairness

    def test_evaluations_cover_every_materialised_window(self):
        telemetry = self._run()
        windows = telemetry.windows
        assert not windows._open or all(
            f.index in telemetry.slo._evaluated for f in windows._open.values()
        )
        for row in telemetry.slo.summary():
            assert row["evaluations"] > 0

    def test_registry_reads_the_engine_tallies(self):
        telemetry = self._run()
        summary = telemetry.slo.summary()
        registry = telemetry.registry
        assert any(row["breaches"] for row in summary)
        assert registry.value("repro_slo_evaluations_total") == sum(
            row["evaluations"] for row in summary
        )
        for row in summary:
            assert registry.value(
                "repro_slo_breaches_total", {"objective": row["objective"]}
            ) == row["breaches"]

    def test_export_round_trip_is_stable(self):
        first, second = (io.StringIO(), io.StringIO())
        self._run().slo.export_jsonl(first)
        self._run().slo.export_jsonl(second)
        assert first.getvalue() == second.getvalue()

    def test_breach_records_keep_the_trace_in_time_order(self):
        """A breach is known only once a later event closes its window, so
        a trace record of it would sit behind its neighbours, and
        ``validate_trace`` would report time going backwards
        (bench/README.md, defect 4).  Neither the engine nor the ledger
        writes one: with both on, the trace stays in time order, and the
        ledger keeps every breach at its window's end."""
        telemetry = Telemetry(
            windows=3600, slo=["max_wait < 1s"], decision_ledger=True
        )
        system = BatchSystem(15, 8, MauiConfig(), telemetry=telemetry)
        make_esp_workload(system.cluster.total_cores, seed=2014).submit_to(system)
        system.run(max_events=5_000_000)
        assert system.trace.count(EventKind.SLO_BREACH) == 0
        assert validate_trace(system.trace, system.cluster) == []
        decisions = telemetry.ledger.of_kind(DecisionKind.SLO_BREACH)
        assert len(decisions) == len(telemetry.slo.breaches) > 1
        for decision, breach in zip(decisions, telemetry.slo.breaches):
            assert decision.time == breach["end"]
            assert decision.payload["window"] == breach["window"]

"""Tests for the Gantt renderer and SWF import/export."""

import pytest

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import MauiConfig
from repro.metrics.gantt import render_gantt
from repro.system import BatchSystem
from repro.workloads.swf import from_swf, to_swf


def run_small_system():
    system = BatchSystem(2, 8, MauiConfig())
    a = system.submit(
        Job(request=ResourceRequest(cores=8), walltime=100.0, user="a"),
        FixedRuntimeApp(100.0),
    )
    b = system.submit(
        Job(request=ResourceRequest(cores=16), walltime=50.0, user="b"),
        FixedRuntimeApp(50.0),
    )
    system.run()
    return system, a, b


class TestGantt:
    def test_rows_per_node(self):
        system, *_ = run_small_system()
        text = render_gantt(system.trace, system.cluster, width=40)
        lines = text.splitlines()
        node_rows = [l for l in lines if l.startswith("node")]
        assert len(node_rows) == 2
        assert all(len(l.split("|")[1]) == 40 for l in node_rows)

    def test_legend_lists_jobs(self):
        system, a, b = run_small_system()
        text = render_gantt(system.trace, system.cluster)
        assert a.job_id in text and b.job_id in text

    def test_idle_dots_after_jobs_end(self):
        system, *_ = run_small_system()
        text = render_gantt(system.trace, system.cluster, until=200.0, width=20)
        # a runs 0-100, b runs 100-150 (needs all 16 cores): idle after t=150
        row = next(l for l in text.splitlines() if l.startswith("node000"))
        cells = row.split("|")[1]
        assert set(cells[16:]) == {"."}
        assert cells[0] != "."

    def test_expansion_visible(self):
        system = BatchSystem(2, 8, MauiConfig())
        evo = system.submit(
            Job(
                request=ResourceRequest(nodes=1, ppn=8),
                walltime=1000.0,
                user="evo",
                flexibility=JobFlexibility.EVOLVING,
                evolution=EvolutionProfile.single(0.5, ResourceRequest(nodes=1, ppn=8)),
            ),
            EvolvingWorkApp(1000.0),
        )
        system.run()
        text = render_gantt(system.trace, system.cluster, width=20, labels={evo.job_id: "E"})
        rows = {l.split(" |")[0]: l.split("|")[1] for l in text.splitlines() if l.startswith("node")}
        # node 0 busy from the start; node 1 only after the mid-run expansion
        assert rows["node000"][0] == "E"
        assert rows["node001"][0] == "."
        assert "E" in rows["node001"]

    def test_empty_trace(self):
        system = BatchSystem(2, 8, MauiConfig())
        assert "empty schedule" in render_gantt(system.trace, system.cluster)


class TestSWFExport:
    def test_roundtrip_fields(self):
        system, a, b = run_small_system()
        text = to_swf(system.metrics())
        lines = [l for l in text.splitlines() if l and not l.startswith(";")]
        assert len(lines) == 2
        first = lines[0].split()
        assert len(first) == 18
        assert int(first[0]) == 1          # job number
        assert int(first[3]) == 100        # runtime of job a
        assert int(first[4]) == 8          # processors
        assert int(first[10]) == 1         # completed status

    def test_header_comments(self):
        system, *_ = run_small_system()
        text = to_swf(system.metrics())
        assert text.startswith(";")
        assert "MaxProcs: 16" in text

    def test_unstarted_job_fields(self):
        system = BatchSystem(1, 4, MauiConfig())
        job = system.submit(Job(request=ResourceRequest(cores=4), walltime=10.0))
        system.server.cancel_queued(job)
        system.run()
        line = [
            l for l in to_swf(system.metrics()).splitlines() if not l.startswith(";")
        ][0]
        fields = line.split()
        assert int(fields[3]) == -1  # unknown runtime (never started)
        assert int(fields[10]) == 5  # cancelled (aborted before it ever started)


class TestSWFRoundTrip:
    """Walltime (field 9) and status (field 11) survive export → import."""

    def test_walltime_exported_as_requested_time(self):
        system, a, b = run_small_system()
        lines = [
            l for l in to_swf(system.metrics()).splitlines() if not l.startswith(";")
        ]
        assert int(lines[0].split()[8]) == 100
        assert int(lines[1].split()[8]) == 50

    def test_roundtrip_preserves_walltime(self):
        # with field 9 populated, import uses it directly — no
        # walltime_factor fallback inflating the reimported limits
        system, *_ = run_small_system()
        wl = from_swf(to_swf(system.metrics()))
        assert [(s.submit_time, s.request.cores, s.walltime) for s in wl.specs] == [
            (0.0, 8, 100.0),
            (0.0, 16, 50.0),
        ]

    def test_overrun_abort_is_failure_status(self):
        system = BatchSystem(1, 8, MauiConfig())
        system.submit(
            Job(request=ResourceRequest(cores=8), walltime=10.0),
            FixedRuntimeApp(50.0),  # overruns: killed at the walltime limit
        )
        system.run()
        fields = [
            l for l in to_swf(system.metrics()).splitlines() if not l.startswith(";")
        ][0].split()
        assert int(fields[10]) == 0  # started then aborted: a failure
        assert int(fields[3]) == 10  # ran exactly to its limit

    def test_cancelled_before_start_is_status_5(self):
        system = BatchSystem(1, 4, MauiConfig())
        job = system.submit(Job(request=ResourceRequest(cores=4), walltime=10.0))
        system.server.cancel_queued(job)
        system.run()
        fields = [
            l for l in to_swf(system.metrics()).splitlines() if not l.startswith(";")
        ][0].split()
        assert int(fields[10]) == 5

    def test_completed_is_status_1(self):
        system, *_ = run_small_system()
        for line in to_swf(system.metrics()).splitlines():
            if not line.startswith(";"):
                assert int(line.split()[10]) == 1


class TestSWFImport:
    SAMPLE = """\
; sample trace
1 0 -1 100 8 -1 -1 8 120 -1 1 3 3 -1 -1 -1 -1 -1
2 30 -1 50 4 -1 -1 -1 -1 -1 1 4 4 -1 -1 -1 -1 -1
3 60 -1 -1 4 -1 -1 4 100 -1 0 3 3 -1 -1 -1 -1 -1
"""

    def test_parses_valid_jobs(self):
        wl = from_swf(self.SAMPLE)
        # job 3 has runtime -1 and is skipped
        assert wl.total_jobs == 2
        first = wl.specs[0]
        assert first.request.cores == 8
        assert first.walltime == 120.0
        assert first.user == "swf_user003"

    def test_fallbacks(self):
        wl = from_swf(self.SAMPLE)
        second = wl.specs[1]
        assert second.request.cores == 4  # falls back to allocated procs
        # no requested time: walltime_factor applies, floored by the default
        assert second.walltime == pytest.approx(3600.0)
        tight = from_swf(self.SAMPLE, default_walltime=10.0)
        assert tight.specs[1].walltime == pytest.approx(50 * 1.2)

    def test_max_jobs(self):
        assert from_swf(self.SAMPLE, max_jobs=1).total_jobs == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            from_swf("1 2 3\n")

    def test_replay_through_batch_system(self):
        system = BatchSystem(2, 8, MauiConfig())
        from_swf(self.SAMPLE).submit_to(system)
        system.run()
        jobs = list(system.server.jobs.values())
        assert all(j.state is JobState.COMPLETED for j in jobs)
        # runtimes honoured
        assert jobs[0].end_time - jobs[0].start_time == pytest.approx(100.0)

    def test_export_import_roundtrip(self):
        system, *_ = run_small_system()
        wl = from_swf(to_swf(system.metrics()))
        assert wl.total_jobs == 2
        replay = BatchSystem(2, 8, MauiConfig())
        wl.submit_to(replay)
        replay.run()
        jobs = list(replay.server.jobs.values())
        assert all(j.state is JobState.COMPLETED for j in jobs)


class TestSWFStreaming:
    SAMPLE = TestSWFImport.SAMPLE

    def test_stream_from_file_all_chunk_sizes(self, tmp_path):
        """Every chunk size — including ones that split a record mid-field —
        must reassemble the spanning record and parse identically."""
        path = tmp_path / "trace.swf"
        path.write_text(self.SAMPLE)
        baseline = from_swf(self.SAMPLE)
        for chunk_size in range(1, len(self.SAMPLE) + 2):
            with open(path) as fh:
                wl = from_swf(fh, chunk_size=chunk_size)
            assert wl.total_jobs == baseline.total_jobs, chunk_size
            assert [
                (s.submit_time, s.request.cores, s.walltime, s.user)
                for s in wl.specs
            ] == [
                (s.submit_time, s.request.cores, s.walltime, s.user)
                for s in baseline.specs
            ], chunk_size

    def test_chunk_boundary_splits_record(self, tmp_path):
        # pin the interesting case explicitly: the boundary lands inside
        # the second record, splitting a numeric field in two
        path = tmp_path / "trace.swf"
        path.write_text(self.SAMPLE)
        first_record_end = self.SAMPLE.index("\n", self.SAMPLE.index("\n1 ")) + 1
        chunk_size = first_record_end + 10  # 10 chars into record two
        with open(path) as fh:
            wl = from_swf(fh, chunk_size=chunk_size)
        assert wl.total_jobs == 2
        assert wl.specs[1].submit_time == 30.0

    def test_stream_from_iterable_of_lines(self):
        wl = from_swf(iter(self.SAMPLE.splitlines(keepends=True)))
        assert wl.total_jobs == 2

    def test_max_jobs_stops_reading(self):
        """max_jobs must not consume the source past what it needs —
        archive-scale traces are only read as far as the import goes."""
        consumed = 0

        def lines():
            nonlocal consumed
            for line in self.SAMPLE.splitlines():
                consumed += 1
                yield line

        wl = from_swf(lines(), max_jobs=1)
        assert wl.total_jobs == 1
        assert consumed < len(self.SAMPLE.splitlines())

    def test_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(self.SAMPLE.rstrip("\n"))
        with open(path) as fh:
            assert from_swf(fh, chunk_size=7).total_jobs == 2

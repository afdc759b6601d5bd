"""Standard Workload Format (SWF) interoperability.

SWF is the Parallel Workloads Archive's 18-field per-job trace format — the
lingua franca of batch-scheduling research.  Two directions:

* :func:`to_swf` exports a finished run's job records, so results from this
  simulator can be analysed by existing SWF tooling;
* :func:`from_swf` imports an SWF trace as a rigid :class:`Workload`, so
  archived production traces can be replayed through the dynamic batch
  system (e.g. to study DFS policies on real job mixes).

Field reference: http://www.cs.huji.ac.il/labs/parallel/workload/swf.html
"""

from __future__ import annotations

from functools import partial
from typing import IO, Iterable, Iterator

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import JobState
from repro.metrics.collector import WorkloadMetrics
from repro.workloads.spec import JobSpec, Workload

__all__ = ["to_swf", "from_swf"]

def _swf_status(record) -> int:
    """SWF field 11 for a job record: 1=completed, 0=failed, 5=cancelled.

    An aborted job that never started is a cancellation (``qdel`` while
    queued); an aborted job with a start is a failure/kill (walltime
    overrun, operator abort, node loss).  Anything non-terminal (still
    queued/running when the trace was cut) stays ``-1``, "unknown".
    """
    if record.state == JobState.COMPLETED.value:
        return 1
    if record.state == JobState.ABORTED.value:
        return 5 if record.start_time is None else 0
    return -1


def to_swf(metrics: WorkloadMetrics, *, comments: bool = True) -> str:
    """Export job records as SWF text (one line per job, 18 fields)."""
    lines: list[str] = []
    if comments:
        lines.append("; SWF export from repro (ICPP 2014 reproduction)")
        lines.append(f"; MaxProcs: {metrics.total_cores}")
        lines.append(f"; Jobs: {len(metrics.records)}")
    users: dict[str, int] = {}
    for i, record in enumerate(metrics.records, start=1):
        user_id = users.setdefault(record.user, len(users) + 1)
        wait = -1 if record.wait_time is None else int(round(record.wait_time))
        if record.start_time is not None and record.end_time is not None:
            runtime = int(round(record.end_time - record.start_time))
        else:
            runtime = -1
        submit = int(round(record.submit_time))
        status = _swf_status(record)
        req_time = int(round(record.walltime)) if record.walltime > 0 else -1
        fields = [
            i,                      # 1 job number
            submit,                 # 2 submit time
            wait,                   # 3 wait time
            runtime,                # 4 run time
            record.cores_requested, # 5 allocated processors (request size)
            -1,                     # 6 average CPU time used
            -1,                     # 7 used memory
            record.cores_requested, # 8 requested processors
            req_time,               # 9 requested time (the job's walltime)
            -1,                     # 10 requested memory
            status,                 # 11 status
            user_id,                # 12 user id
            user_id,                # 13 group id (1:1 with users here)
            -1,                     # 14 executable id
            -1,                     # 15 queue id
            -1,                     # 16 partition id
            -1,                     # 17 preceding job
            -1,                     # 18 think time
        ]
        lines.append(" ".join(str(f) for f in fields))
    return "\n".join(lines) + "\n"


#: characters read per chunk when streaming an SWF trace from a file
_CHUNK_SIZE = 1 << 16


def _iter_lines(source: str | IO[str] | Iterable[str], chunk_size: int) -> Iterator[str]:
    """Lines of an SWF source, streamed.

    Accepts the whole trace as a string, an open text-mode file (read in
    ``chunk_size``-character chunks; a record spanning a chunk boundary is
    carried over and reassembled), or any iterable of lines.  File and
    iterable sources are consumed lazily, so ``max_jobs`` imports of a
    million-job archive never materialise the full text.
    """
    if isinstance(source, str):
        yield from source.splitlines()
        return
    read = getattr(source, "read", None)
    if read is not None:
        tail = ""
        while True:
            chunk = read(chunk_size)
            if not chunk:
                break
            lines = (tail + chunk).split("\n")
            tail = lines.pop()  # partial record: completed by the next chunk
            yield from lines
        if tail:
            yield tail
        return
    yield from source


def from_swf(
    source: str | IO[str] | Iterable[str],
    *,
    max_jobs: int | None = None,
    walltime_factor: float = 1.2,
    default_walltime: float = 3600.0,
    chunk_size: int = _CHUNK_SIZE,
) -> Workload:
    """Parse an SWF trace into a rigid workload.

    ``source`` may be the full trace text, an open text-mode file, or an
    iterable of lines; files are streamed in chunks (see :func:`_iter_lines`)
    so archive-scale traces need not fit in memory, and ``max_jobs`` stops
    reading as soon as enough jobs parsed.

    Uses requested processors (field 8, falling back to field 5), run time
    (field 4) and requested time (field 9, falling back to
    ``runtime * walltime_factor``).  Jobs with unusable size or runtime are
    skipped — SWF archives mark missing data with ``-1``.

    Specs of the same size share one :class:`ResourceRequest`, and those of
    the same user (group) id one user (group) string.
    """
    specs: list[JobSpec] = []
    requests: dict[int, ResourceRequest] = {}
    users: dict[int, str] = {}
    groups: dict[int, str] = {}
    for raw in _iter_lines(source, chunk_size):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 18:
            raise ValueError(f"SWF line has {len(fields)} fields, expected 18: {raw!r}")
        (
            _job,
            submit,
            _wait,
            runtime,
            alloc_procs,
            _cpu,
            _mem,
            req_procs,
            req_time,
            _req_mem,
            _status,
            user_id,
            group_id,
            *_rest,
        ) = (float(f) for f in fields[:13])
        procs = int(req_procs if req_procs > 0 else alloc_procs)
        if procs <= 0 or runtime <= 0:
            continue
        if req_time > 0:
            walltime = float(req_time)
        else:
            walltime = max(runtime * walltime_factor, default_walltime)
        walltime = max(walltime, runtime)  # SWF traces contain overruns
        request = requests.get(procs)
        if request is None:
            request = requests[procs] = ResourceRequest(cores=procs)
        uid = int(user_id) if user_id > 0 else 0
        user = users.get(uid)
        if user is None:
            user = users[uid] = f"swf_user{uid:03d}"
        gid = int(group_id) if group_id > 0 else 0
        group = groups.get(gid)
        if group is None:
            group = groups[gid] = f"swf_group{gid:03d}"
        specs.append(
            JobSpec(
                submit_time=submit,
                request=request,
                walltime=walltime,
                user=user,
                group=group,
                app_factory=partial(FixedRuntimeApp, runtime),
            )
        )
        if max_jobs is not None and len(specs) >= max_jobs:
            break
    return Workload(specs=specs, name="swf-import")

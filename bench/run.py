#!/usr/bin/env python3
"""The repo's end-to-end benchmark: five workloads, one command.

    PYTHONPATH=src python bench/run.py                  # all workloads
    python bench/run.py --workload esp_dyn --repeats 3 --out a.json
    python bench/run.py --compare a.json b.json
    python bench/run.py --workload replay_deep --seed 7 --seconds 18 --trace 0

Every repeat runs in a fresh child process, one at a time (hermetic job
ids, per-run ``ru_maxrss``, at most one busy core).  End-to-end metrics
come from untraced repeats and are reported as medians; a separate traced
child gives the per-layer numbers.  The last form is the driver contract
of ``BENCHMARK.json``: one workload, a time budget instead of a repeat
count, one JSON object on the last line of stdout.

See README.md in this directory for the workloads, the layer -> end-to-end
map and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = (
    "replay_shallow",
    "replay_deep",
    "replay_observed",
    "esp_dyn",
    "service_tenants",
)
#: the seed the committed expected outputs were recorded with
EXPECTED_SEED = 2014
#: contract mode: repeat i of a run replays the input of seed + i * stride
SUBSEED_STRIDE = 100_003
#: one child may take this long before it is killed and counted failed
CHILD_TIMEOUT_S = 150
#: set-up is timed at least this often per contract run (its median is
#: reported): extra set-up-only children top up the timed repeats
MIN_SETUP_SAMPLES = 5


# ----------------------------------------------------------------------
# child: one run of one workload in this process
# ----------------------------------------------------------------------
def child_main(spec: dict) -> int:
    """Run one workload once and print its result as one JSON line."""
    import scenarios
    from spans import Tracer, install

    setup, run, finish = scenarios.SCENARIOS[spec["workload"]]
    tmpdir = Path(tempfile.mkdtemp(dir=spec["tmp_root"]))
    try:
        tracer = unresolved = None
        if spec["traced"]:
            tracer = Tracer()
            unresolved = install(tracer)
        ctx = scenarios.Context(
            seed=spec["seed"], scale=spec["scale"], tmpdir=tmpdir, tracer=tracer
        )
        state = setup(ctx)
        setup_s = time.time() - spec["spawned_at"]
        result: dict = {"setup_s": setup_s}
        if not spec["setup_only"]:
            if tracer is not None:
                tracer.reset()
            cpu_start = time.process_time()
            start = time.perf_counter()
            live = run(ctx, state)
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if tracer is not None:
                # snapshot before finish(): its calls are not the run's
                result.update(
                    spans=tracer.by_name(),
                    paths=tracer.paths(),
                    counters=dict(tracer.counters),
                    span_count=len(tracer.span_name),
                    unresolved=unresolved,
                )
                if spec["spans_out"]:
                    tracer.write_spans(spec["spans_out"])
            facts = finish(ctx, state, live)
            failed = len(ctx.failures) + facts["jobs"] - facts["jobs_terminal"]
            commands = [
                v
                for verb in ("submit", "job_info", "queue_info")
                for v in (facts.get("latencies") or {}).get(verb, ())
            ]
            result.update(
                wall_s=wall_s,
                cpu_s=cpu_s,
                jobs_per_s=facts["jobs_terminal"] / wall_s,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                commands=len(commands),
                ops_attempted=facts["jobs"] + len(commands),
                ops_failed=failed,
                failures=ctx.failures[:20],
                facts=facts,
            )
            if commands:
                result["cmd_p50_ms"] = 1e3 * percentile(commands, 50)
                result["cmd_p99_ms"] = 1e3 * percentile(commands, 99)
            if "table2" in facts:
                result["table2_util_err_pp"] = facts["table2"]["util_err_pp"]
                result["table2_satisfied_err"] = facts["table2"]["satisfied_err"]
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


# ----------------------------------------------------------------------
# parent: spawn children one at a time
# ----------------------------------------------------------------------
def run_child(
    workload: str,
    seed: int,
    scale: float,
    *,
    traced: bool = False,
    setup_only: bool = False,
    spans_out: str | None = None,
) -> dict:
    """One fresh child process; returns its result dict (``error`` on failure)."""
    TMP_ROOT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spec = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "setup_only": setup_only,
        "spans_out": spans_out,
        "tmp_root": str(TMP_ROOT),
        "spawned_at": time.time(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S} s and was killed"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return {"seed": seed, **json.loads(proc.stdout.splitlines()[-1])}


def load_expected(workload: str) -> dict | None:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def check_outputs(workload: str, scale: float, runs: list[dict]) -> list[str]:
    """Output check over the runs of one workload: every run failure-free,
    runs of one seed agree on the digest, and — on the committed seed and
    scale — it equals ``expected/<workload>.json``.  Returns the problems."""
    problems: list[str] = []
    digests: dict[int, set[str]] = {}
    for run in runs:
        if "error" in run:
            problems.append(run["error"])
            continue
        if run["ops_failed"]:
            problems.append(f"{run['ops_failed']} operations failed: {run['failures']}")
        digests.setdefault(run["seed"], set()).add(run["facts"]["digest"])
    for seed, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"seed {seed}: digest differs between runs: {sorted(seen)}")
    expected = load_expected(workload)
    if expected and scale == expected["scale"]:
        for run in runs:
            if "error" in run or run["seed"] != expected["seed"]:
                continue
            facts = run["facts"]
            if facts["digest"] != expected["digest"] or facts["summary"] != expected["summary"]:
                problems.append(
                    f"digest {facts['digest'][:12]} / summary {facts['summary']} "
                    f"!= expected {expected['digest'][:12]} / {expected['summary']}"
                )
                break
    return problems


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ----------------------------------------------------------------------
# driver contract: one workload, a time budget, one JSON line
# ----------------------------------------------------------------------
def contract_main(args) -> int:
    from layers import PER_LAYER, UNIVERSAL, END_TO_END, layer_metrics

    (workload,) = args.workload
    seed, scale = args.seed, args.scale
    runs: list[dict] = []
    if args.trace:
        runs.append(run_child(workload, seed, scale))
        runs.append(run_child(workload, seed, scale, traced=True))
    else:
        # repeat until the budget is used, to the nearest whole repeat.
        # Each repeat replays its own input drawn from the seed: the median
        # over inputs varies less with the seed than any one input does
        # (queue depth at load 0.98 is a random walk).
        measured = 0.0
        while True:
            run = run_child(workload, seed + SUBSEED_STRIDE * len(runs), scale)
            runs.append(run)
            if "error" in run:
                break
            measured += run["wall_s"]
            if measured + 0.5 * run["wall_s"] > args.seconds:
                break
    problems = check_outputs(workload, scale, runs)
    good = [run for run in runs if "error" not in run]
    if len(good) < len(runs):
        print("\n".join(problems), file=sys.stderr)
        return 1

    if args.trace:
        untraced, traced = good
        values = layer_metrics(traced, untraced)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in PER_LAYER
        }
    else:
        setups = [run["setup_s"] for run in good]
        while len(setups) < MIN_SETUP_SAMPLES:
            extra = run_child(workload, seed, scale, setup_only=True)
            if "error" in extra:
                print(extra["error"], file=sys.stderr)
                return 1
            setups.append(extra["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name in UNIVERSAL:
            if name != "setup_s":
                metrics[name] = {
                    "value": statistics.median([run[name] for run in good]),
                    "unit": END_TO_END[name][0],
                }
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(run["ops_attempted"] for run in good),
                "failed": sum(run["ops_failed"] for run in good),
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# full run: every workload, repeats interleaved, results file
# ----------------------------------------------------------------------
def provenance(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def summarise(workload: str, runs: list[dict], traced: dict | None, args) -> dict:
    """The results-file entry of one workload."""
    from layers import END_TO_END, PER_LAYER, layer_metrics

    good = [run for run in runs if "error" not in run]
    all_runs = runs + ([traced] if traced else [])
    problems = check_outputs(workload, args.scale, all_runs)
    entry: dict = {
        "correct": not problems,
        "problems": problems,
        "ops_attempted": sum(run["ops_attempted"] for run in good),
        "ops_failed": sum(run["ops_failed"] for run in good),
        "end_to_end": {},
    }
    if not good:
        return entry
    facts = good[0]["facts"]
    entry.update(jobs=facts["jobs"], digest=facts["digest"], summary=facts["summary"])
    if facts.get("latencies"):
        # per verb, over every repeat: the split behind cmd_p50_ms / cmd_p99_ms
        entry["latency_ms"] = {}
        for verb in facts["latencies"]:
            values = [v for run in good for v in run["facts"]["latencies"][verb]]
            entry["latency_ms"][verb] = {
                "p50": 1e3 * percentile(values, 50),
                "p99": 1e3 * percentile(values, 99),
                "n": len(values),
            }
    for name, (unit, better, bound, only) in END_TO_END.items():
        if only is not None and workload not in only:
            continue
        values = [run[name] for run in good]
        q1, q3 = quartiles(values)
        entry["end_to_end"][name] = {
            "unit": unit,
            "better": better,
            "bound": bound,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "values": values,
        }
    if traced and "error" not in traced:
        # overhead against the repeat with the median wall clock
        typical = sorted(good, key=lambda run: run["wall_s"])[(len(good) - 1) // 2]
        values = layer_metrics(traced, typical)
        entry["per_layer"] = {
            name: {"value": values[name], "unit": unit, "exact": exact}
            for name, unit, _better, exact, *_ in PER_LAYER
        }
        entry["paths"] = traced["paths"]
    return entry


def print_report(results: dict) -> None:
    for workload, entry in results["workloads"].items():
        status = "ok" if entry["correct"] else "FAILED"
        print(
            f"\n== {workload}: outputs {status}, "
            f"{entry['ops_failed']}/{entry['ops_attempted']} operations failed"
        )
        for problem in entry["problems"]:
            print(f"   ! {problem}")
        for name, m in entry["end_to_end"].items():
            print(
                f"   {name:<24}{m['median']:>14.4f} {m['unit']:<7}"
                f" q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  n={m['n']}"
            )
        for verb, m in entry.get("latency_ms", {}).items():
            print(
                f"   latency {verb:<16}{m['p50']:>14.4f} ms      p99 {m['p99']:.4f}  n={m['n']}"
            )
        for name, m in entry.get("per_layer", {}).items():
            exact = "  exact" if m["exact"] else ""
            print(f"   {name:<36}{m['value']:>16.6g} {m['unit']}{exact}")


def full_main(args) -> int:
    workloads = args.workload or list(WORKLOADS)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    out_dir = Path(args.out).resolve().parent if args.out else None
    # round-robin across workloads so a noisy spell on a shared box is
    # spread over all of them instead of landing on one
    for repeat in range(args.repeats):
        for workload in workloads:
            print(f"[{repeat + 1}/{args.repeats}] {workload}", file=sys.stderr)
            runs[workload].append(run_child(workload, args.seed, args.scale))
    traced: dict[str, dict | None] = {w: None for w in workloads}
    if args.traced:
        for workload in workloads:
            print(f"[traced] {workload}", file=sys.stderr)
            spans_out = None
            if out_dir is not None:
                spans_out = str(out_dir / f"{Path(args.out).stem}.{workload}.spans.json.gz")
            traced[workload] = run_child(
                workload, args.seed, args.scale, traced=True, spans_out=spans_out
            )
    results = {
        "schema": "bench-results/1",
        "provenance": provenance(args),
        "workloads": {w: summarise(w, runs[w], traced[w], args) for w in workloads},
    }
    print_report(results)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if args.write_expected:
        EXPECTED_DIR.mkdir(exist_ok=True)
        for workload, entry in results["workloads"].items():
            expected = {
                "seed": args.seed,
                "scale": args.scale,
                "digest": entry["digest"],
                "summary": entry["summary"],
            }
            path = EXPECTED_DIR / f"{workload}.json"
            path.write_text(json.dumps(expected, indent=1) + "\n")
    return 0 if all(e["correct"] for e in results["workloads"].values()) else 1


# ----------------------------------------------------------------------
# compare two results files
# ----------------------------------------------------------------------
def compare_main(path_a: str, path_b: str) -> int:
    """Apply the per-metric bounds to B against baseline A.

    A pair is *unresolved* when the run-to-run spread (interquartile range
    over median, the wider of the two files) exceeds the bound — unless
    every run of B reads better than every run of A.  Exact metrics and
    exact per-layer counts must be identical.  Exits 1 on a regression or a
    changed exact value; unresolved pairs are reported, not failed.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("seed", "scale"):
        if a["provenance"][key] != b["provenance"][key]:
            print(f"{key} differs: {a['provenance'][key]} vs {b['provenance'][key]}")
            return 2
    bad = unresolved = 0
    print(
        f"{'workload':<16}{'metric':<22}{'A median':>12}{'B median':>12}"
        f"{'worse by':>10}{'bound':>7}{'spread':>8}  verdict"
    )
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        if entry_a.get("digest") != entry_b.get("digest"):
            print(f"{workload:<16}digest differs")
            bad += 1
        for name, ma in entry_a["end_to_end"].items():
            mb = entry_b["end_to_end"][name]
            sign = 1.0 if ma["better"] == "lower" else -1.0
            worse = sign * (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
            spread = max(
                (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0 for m in (ma, mb)
            )
            bound = ma["bound"]
            if bound == 0.0:
                verdict = "ok (exact)" if ma["values"] == mb["values"] else "CHANGED"
            elif worse <= bound:
                verdict = "ok"
            else:
                verdict = "REGRESSED"
            if bound and spread > bound:
                better_all = (
                    max(mb["values"]) < min(ma["values"])
                    if sign > 0
                    else min(mb["values"]) > max(ma["values"])
                )
                if not better_all:
                    verdict = "unresolved"
            bad += verdict in ("REGRESSED", "CHANGED")
            unresolved += verdict == "unresolved"
            print(
                f"{workload:<16}{name:<22}{ma['median']:>12.4f}{mb['median']:>12.4f}"
                f"{100 * worse:>9.1f}%{100 * bound:>6.0f}%{100 * spread:>7.1f}%  {verdict}"
            )
        layers_a, layers_b = entry_a.get("per_layer", {}), entry_b.get("per_layer", {})
        changed = [
            name
            for name, m in layers_a.items()
            if m["exact"] and name in layers_b and layers_b[name]["value"] != m["value"]
        ]
        for name in changed:
            print(
                f"{workload:<16}{name:<34} exact count changed: "
                f"{layers_a[name]['value']} -> {layers_b[name]['value']}"
            )
        bad += len(changed)
    print(f"{bad} pair(s) outside their bound, {unresolved} unresolved (spread wider than the bound)")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced repeats per workload (default 5)")
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="one common factor on all job counts (baseline: 1.0)")
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction, default=True,
                        help="also run the traced pass for per-layer metrics")
    parser.add_argument("--out", metavar="FILE", help="write the results JSON here")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's digests under bench/expected/")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the regression bounds to B against A")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="driver contract: measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver contract: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.scale <= 0 or args.seconds <= 0:
        parser.error("--repeats, --scale and --seconds must be positive")
    if args.trace is not None and (not args.workload or len(args.workload) != 1):
        parser.error("--trace needs exactly one --workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if sys.version_info < (3, 11):
        print("bench: needs Python >= 3.11 (asyncio.timeout)", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(json.loads(args.child))
    try:
        return contract_main(args) if args.trace is not None else full_main(args)
    finally:
        try:
            TMP_ROOT.rmdir()  # only when empty: another run may be using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

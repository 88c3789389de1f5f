"""hawkbench: one benchmark for the ParserHawk compiler and its service.

Usage (from the repository root)::

    python3 hawkbench/run.py --workload table3-ipu --seed 0 \\
        --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a reference run with tracing off and then a traced
run of the same seed, and reports the per-layer ledger plus the tracing
overhead.  The last line of standard output is the JSON result; the
lines before it report every row (or serve base program) on its own.
See hawkbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

# Set-up time is measured from here, so the imports below count in it.
_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".hawkbench-work"
SETUP_PROBES = 5

# The workloads BENCHMARK.json names, then table3-tofino: runnable for
# comparison with the paper's Table 3, but not in BENCHMARK.json (see
# README.md, "Why table3-tofino is not gated").
GATED_WORKLOADS = ("table3-ipu", "serve-mixed")
WORKLOAD_NAMES = GATED_WORKLOADS + ("table3-tofino",)

# name -> unit, in the order of BENCHMARK.json.
END_TO_END = {
    "compile_s.geomean": "s",
    "job_s.p50": "s",
    "entries.sum": "count",
    "stages.sum": "count",
    "setup_s": "s",
}
PER_LAYER = {
    "lang.s": "s", "lang.calls": "count",
    "normalize.s": "s",
    "skeleton.s": "s", "skeleton.builds": "count",
    "skeleton.search_space_bits": "bits",
    "encoder.s": "s", "encoder.sessions": "count", "encoder.tests": "count",
    "bitblast.s": "s", "bitblast.clauses": "count",
    "sat.s": "s", "sat.solves": "count", "sat.conflicts": "count",
    "sat.propagations": "count", "sat.decisions": "count",
    "sat.propagate_s": "s", "sat.analyze_s": "s",
    "cegis.iterations": "count", "cegis.counterexamples": "count",
    "budget.attempts": "count", "budget.retries": "count",
    "budget.retired": "count", "budget.useful_frac": "frac",
    "tests.pool_hits": "count",
    "verify.s": "s", "verify.runs": "count", "verify.configs": "count",
    "postopt.s": "s",
    "compile.residue_s": "s", "compile.residue_frac": "frac",
    "cache.lookup_s": "s", "cache.store_s": "s", "cache.lookups": "count",
    "cache.hit_frac": "frac",
    "checkpoint.flush_s": "s", "checkpoint.flushes": "count",
    "journal.write_s": "s", "journal.writes": "count",
    "serve.submit_s": "s", "serve.queue_wait_s.p50": "s",
    "serve.queue_wait_s.p90": "s", "serve.coalesced": "count",
    "serve.cache_hits": "count",
    "trace.overhead_frac": "frac",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_program_modules():
    """Import the benchmark modules against this checkout's sources.
    Exits non-zero, printing no result, when the sources are missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"hawkbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"hawkbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    import ledger
    import workloads

    return workloads, ledger


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, work_dir: Path, rows: Optional[int]) -> float:
    """One set-up, timed from this process's start: imports, spec
    parsing and device profiles, plus service construction and start()
    for serve-mixed."""
    wl, _ = load_program_modules()
    if workload == wl.SERVE_WORKLOAD:
        sources = wl.serve_sources()
        for source in sources.values():
            wl.parse_spec(source)
        wl.device_for(workload)
        service = wl.start_service(work_dir / "svc")
        elapsed = time.perf_counter() - _PROCESS_T0
        service.shutdown(wait=True)
    else:
        wl.parse_rows(workload, rows)
        wl.device_for(workload)
        elapsed = time.perf_counter() - _PROCESS_T0
    return elapsed


def rerun(args: List[str], timeout: float) -> float:
    """Run this script in a fresh interpreter; its last line is a number."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def row_args(rows: Optional[int]) -> List[str]:
    return [] if rows is None else ["--rows", str(rows)]


def measure_setup(workload: str, work_dir: Path,
                  rows: Optional[int]) -> float:
    """Median of SETUP_PROBES fresh-interpreter set-ups."""
    samples = []
    for n in range(SETUP_PROBES):
        probe_dir = work_dir / f"probe-{n}"
        samples.append(rerun(
            ["--workload", workload, "--setup-probe", str(probe_dir),
             *row_args(rows)],
            timeout=120,
        ))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# table3-*
# ---------------------------------------------------------------------------


def run_table3(wl, workload: str, seed: int, seconds: float,
               rows: Optional[int]):
    """Every row once, then further passes over the rows whose samples
    add up to less than an equal share of ``seconds``, until ``seconds``
    are spent.  Light rows are compiled many times and heavy rows once,
    so each row's median rests on about the same measured time, spread
    over the whole run; each repeat takes the next compile seed of the
    row (``workloads.compile_row``), so the median spans compile seeds
    as well.  Returns each row's samples."""
    rows = wl.parse_rows(workload, rows)
    share = seconds / len(rows)
    checked: Dict[tuple, List[str]] = {}
    samples: List[list] = [[] for _ in rows]
    t0 = time.perf_counter()
    due = range(len(rows))
    while due:
        for i in due:
            if samples[-1] and time.perf_counter() - t0 > seconds:
                return samples
            samples[i].append(wl.compile_row(
                workload, seed, rows[i], checked=checked,
                repeat=len(samples[i])))
        due = [i for i, s in enumerate(samples)
               if sum(r.seconds for r in s) < share]
    return samples


def report_table3(wl, workload: str, samples) -> Dict[str, float]:
    answers = wl.load_answers()[workload]
    per_row = []
    resources = []
    for row_samples in samples:
        first = row_samples[0]
        seconds = statistics.median(r.seconds for r in row_samples)
        entries, stages = statistics.median_low(
            (r.entries, r.stages) for r in row_samples)
        per_row.append(seconds)
        resources.append((entries, stages))
        expect = answers.get(first.label)
        problems = sorted({p for r in row_samples for p in r.problems})
        note = "; ".join(problems) or "ok"
        if expect and (entries, stages) != (
            expect["entries"], expect["stages"]
        ):
            note += (f"; differs from recorded {expect['entries']} entries"
                     f" / {expect['stages']} stages")
        print(f"row  {first.label:<40} {seconds:8.3f} s (median of "
              f"{len(row_samples):3d})  {entries:3d} entries {stages:3d} "
              f"stages  {note}")
    print(f"compile_s.sum {sum(per_row):.3f} over {len(per_row)} rows")
    return {
        "compile_s.geomean": geomean(per_row),
        "job_s.p50": statistics.median(per_row),
        "entries.sum": sum(e for e, _ in resources),
        "stages.sum": sum(s for _, s in resources),
    }


def table3_failures(samples) -> tuple:
    """(attempted, failed) over every compile of every row."""
    results = [r for row_samples in samples for r in row_samples]
    return len(results), sum(1 for r in results if r.problems)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def run_serve(wl, seed: int, seconds: float, root: Path,
              check: bool = True):
    sources = wl.serve_sources()
    service = wl.start_service(root)
    try:
        run = wl.drive_service(service, sources, seed, seconds)
    finally:
        service.shutdown(wait=True)
    if check:
        wl.check_serve(run, sources)
    return run


def report_serve(wl, run) -> Dict[str, float]:
    done = [j for j in run.jobs if j.state == "done"]
    fresh: Dict[str, List[float]] = {}
    resources: Dict[str, List[tuple]] = {}
    for job in done:
        if job.fresh:
            fresh.setdefault(job.base, []).append(job.seconds)
            resources.setdefault(job.base, []).append(wl.job_resources(job))
    per_base = {base: statistics.median(v) for base, v in fresh.items()}
    answers = wl.load_answers()["table3-tofino"]
    entries = stages = 0
    for base in wl.SERVE_BASES:
        if base not in per_base:
            print(f"base {base:<20} no fresh compile finished")
            continue
        e, s = statistics.median_low(resources[base])
        entries += e
        stages += s
        expect = answers[wl.base_row_label(base)]
        note = "" if (e, s) == (expect["entries"], expect["stages"]) else (
            f"  differs from recorded {expect['entries']} entries"
            f" / {expect['stages']} stages")
        print(f"base {base:<20} {per_base[base]:8.3f} s (median of "
              f"{len(fresh[base])} fresh jobs)  {e} entries {s} stages{note}")
    latencies = [j.seconds for j in run.jobs]
    print(f"jobs {len(run.jobs)} ({sum(j.fresh for j in run.jobs)} fresh), "
          f"jobs_per_s {len(done) / run.wall:.2f}, "
          f"job_s.p90 {percentile(latencies, 0.9):.4f}")
    for index, problem in run.problems:
        print(f"problem job {index}: {problem}")
    return {
        "compile_s.geomean": geomean(list(per_base.values())),
        "job_s.p50": statistics.median(latencies),
        "entries.sum": entries,
        "stages.sum": stages,
    }


def serve_failures(run) -> tuple:
    return len(run.jobs), run.failed


# ---------------------------------------------------------------------------
# traced run: the per-layer ledger
# ---------------------------------------------------------------------------


def layer_metrics(led, counters, *, wins: int, search_bits: int,
                  queue_waits: Sequence[float], overhead: float):
    c = lambda name: counters.get(name, 0)  # noqa: E731
    attempts = c("budget.attempts") + c("budget.retries")
    lookups = led.calls("cache.lookup")
    compile_wall = led.total_s("compile")
    residue = led.self_s("compile")
    return {
        "lang.s": led.self_s("lang"), "lang.calls": led.calls("lang"),
        "normalize.s": led.self_s("normalize"),
        "skeleton.s": led.self_s("skeleton", "skeleton.lb"),
        "skeleton.builds": led.calls("skeleton"),
        "skeleton.search_space_bits": search_bits,
        "encoder.s": led.self_s("encoder.init", "encoder", "encoder.test"),
        "encoder.sessions": led.calls("encoder.init"),
        "encoder.tests": led.calls("encoder.test"),
        "bitblast.s": led.self_s("bitblast"),
        "bitblast.clauses": c("sat.clauses_added"),
        "sat.s": led.self_s("sat"), "sat.solves": c("sat.solves"),
        "sat.conflicts": c("sat.conflicts"),
        "sat.propagations": c("sat.propagations"),
        "sat.decisions": c("sat.decisions"),
        "sat.propagate_s": c("sat.propagate_seconds"),
        "sat.analyze_s": c("sat.analyze_seconds"),
        "cegis.iterations": c("cegis.iterations"),
        "cegis.counterexamples": c("cegis.counterexamples"),
        "budget.attempts": c("budget.attempts"),
        "budget.retries": c("budget.retries"),
        "budget.retired": c("budget.retired"),
        "budget.useful_frac": wins / attempts if attempts else 0.0,
        "tests.pool_hits": c("tests.pool_hits"),
        "verify.s": led.self_s("verify"), "verify.runs": c("verify.runs"),
        "verify.configs": c("verify.configs"),
        "postopt.s": led.self_s("postopt"),
        "compile.residue_s": residue,
        "compile.residue_frac": residue / compile_wall if compile_wall else 0.0,
        "cache.lookup_s": led.self_s("cache.lookup"),
        "cache.store_s": led.self_s("cache.store"),
        "cache.lookups": lookups,
        "cache.hit_frac": c("cache.hit") / lookups if lookups else 0.0,
        "checkpoint.flush_s": led.self_s("checkpoint"),
        "checkpoint.flushes": c("checkpoint.flushes"),
        "journal.write_s": led.self_s("journal"),
        "journal.writes": c("serve.journal_writes"),
        "serve.submit_s": led.self_s("serve.submit"),
        "serve.queue_wait_s.p50": percentile(queue_waits, 0.5),
        "serve.queue_wait_s.p90": percentile(queue_waits, 0.9),
        "serve.coalesced": c("serve.coalesced"),
        "serve.cache_hits": c("serve.cache_hits"),
        "trace.overhead_frac": overhead,
    }


def untraced_wall(wl, workload: str, seed: int, seconds: float,
                  work: Path, rows: Optional[int]) -> float:
    """The reference for the tracing overhead: table3 compile seconds
    summed over the rows, or serve wall seconds per job, untraced."""
    if workload == wl.SERVE_WORKLOAD:
        run = run_serve(wl, seed, seconds, work / "svc", check=False)
        return run.wall / len(run.jobs)
    parsed = wl.parse_rows(workload, rows)
    return sum(r.seconds for r in wl.compile_rows(
        workload, seed, parsed, check=False))


def traced_run(wl, ledger_mod, workload: str, seed: int, seconds: float,
               work: Path, rows: Optional[int]):
    """Per-layer metrics of one traced run, plus (attempted, failed).
    The untraced reference runs first in a fresh interpreter, so that it
    and the traced run both start cold."""
    reference = rerun(
        ["--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--untraced-wall",
         str(work / "reference"), *row_args(rows)],
        timeout=170,
    )
    led = ledger_mod.Ledger()
    if workload == wl.SERVE_WORKLOAD:
        with led.installed():
            run = run_serve(wl, seed, seconds, work / "svc")
        traced = run.wall / len(run.jobs)
        fresh_docs = {
            (j.base, j.compile_seed): j.result_doc
            for j in run.jobs if j.fresh and j.state == "done"
        }
        counters = run.counters
        wins = len(fresh_docs)
        search_bits = sum(
            d["stats"].get("search_space_bits", 0) for d in fresh_docs.values()
        )
        queue_waits = [
            j.queue_wait for j in run.jobs if j.queue_wait is not None
        ]
        attempted, failed = serve_failures(run)
    else:
        with led.installed():
            parsed = wl.parse_rows(workload, rows)
            results = wl.compile_rows(workload, seed, parsed, traced=True)
        traced = sum(r.seconds for r in results)
        counters: Dict[str, float] = {}
        for row in results:
            for name, value in row.counters.items():
                counters[name] = counters.get(name, 0) + value
        wins = sum(1 for r in results if r.status == "ok")
        search_bits = sum(r.search_space_bits for r in results)
        queue_waits = []
        attempted, failed = table3_failures([results])
    print(f"traced {traced:.4f} s vs untraced {reference:.4f} s")
    metrics = layer_metrics(
        led, counters, wins=wins, search_bits=search_bits,
        queue_waits=queue_waits, overhead=traced / reference - 1.0,
    )
    return metrics, attempted, failed


# ---------------------------------------------------------------------------


def emit(metrics: Dict[str, float], units: Dict[str, str],
         attempted: int, failed: int) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="smoke runs: only the first N table3 rows")
    # Internal: the set-up probes and the untraced reference of a traced
    # run re-invoke this script in a fresh interpreter.
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--untraced-wall", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, Path(args.setup_probe), args.rows))
        return 0
    wl, ledger_mod = load_program_modules()
    if args.untraced_wall:
        print(untraced_wall(wl, args.workload, args.seed, args.seconds,
                            Path(args.untraced_wall), args.rows))
        return 0

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(
                wl, ledger_mod, args.workload, args.seed, args.seconds, work,
                args.rows,
            )
            emit(metrics, PER_LAYER, attempted, failed)
            return 0
        setup_s = measure_setup(args.workload, work, args.rows)
        if args.workload == wl.SERVE_WORKLOAD:
            run = run_serve(wl, args.seed, args.seconds, work / "svc")
            metrics = report_serve(wl, run)
            attempted, failed = serve_failures(run)
        else:
            samples = run_table3(wl, args.workload, args.seed,
                                 args.seconds, args.rows)
            metrics = report_table3(wl, args.workload, samples)
            attempted, failed = table3_failures(samples)
        metrics["setup_s"] = setup_s
        print(f"peak_rss_mb {peak_rss_mb():.1f}")
        emit(metrics, END_TO_END, attempted, failed)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

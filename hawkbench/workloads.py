"""The three hawkbench workloads and the checks on their answers.

``table3-tofino`` and ``table3-ipu`` compile the Table-3 rows (plus the
four extra rows) cold, one after another, on the scaled device profiles
of ``repro.harness.table3``.  ``serve-mixed`` drives an in-process
``CompileService`` with a closed-loop client over a stream of about 1/5
fresh compile keys and 4/5 repeats.  Every input derives from the
workload seed; checking answers happens outside every timed region.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchgen.suites import (
    BASE_PROGRAMS,
    EXTRA_BENCHMARKS,
    TABLE3_ROWS,
    Benchmark,
)
from repro.core import CompileOptions, ParserHawkCompiler
from repro.core.validate import random_simulation_check
from repro.harness.table3 import IPU, TOFINO
from repro.hw.device import DeviceProfile
from repro.hw.impl import TcamProgram
from repro.ir.spec import ParserSpec, parse_spec
from repro.obs import Tracer, use_tracer
from repro.persist.serialize import program_from_doc, program_to_doc
from repro.serve import CompileService

HERE = Path(__file__).resolve().parent
ANSWERS_PATH = HERE / "answers.json"

TABLE3_WORKLOADS = ("table3-tofino", "table3-ipu")
SERVE_WORKLOAD = "serve-mixed"

# The three heaviest rows of the Large-tran-key family take 116 s of the
# 144 s IPU suite; `+R4` stays, it carries the family's largest conflict
# count.
IPU_DROPPED = frozenset(
    {"Large tran key", "Large tran key +R1 +R4", "Large tran key +R3 +R4"}
)

# Fast-compiling base programs (the ones benchmarks/bench_serve.py
# soaks with): fresh serve keys cycle through them in this order.
SERVE_BASES = (
    "parse_ethernet",
    "parse_icmp",
    "parse_mpls",
    "multi_key_diff",
    "pure_extraction",
    "geneve_tunnel",
    "lookahead_tag",
    "dash_v1",
    "finance_feed",
)
FRESH_EVERY = 5          # every 5th job of the stream is a fresh key
SERVE_WORKERS = 2
JOB_TIMEOUT_S = 120.0

# Compile-seed offset between repeats of a table3 row within one run.
REPEAT_SEED_STRIDE = 1000

# Random packets fed to spec and program by the answer check.
CHECK_SAMPLES = 200


def device_for(workload: str) -> DeviceProfile:
    return IPU if workload == "table3-ipu" else TOFINO


def table3_rows(
    workload: str, limit: Optional[int] = None
) -> List[Tuple[int, Benchmark]]:
    """(row index, row) pairs of a table3 workload, the first ``limit``
    only when given; the index offsets the compile seed, so it stays the
    row's place in the full suite."""
    rows = list(enumerate(TABLE3_ROWS + EXTRA_BENCHMARKS))
    if workload == "table3-ipu":
        rows = [(i, b) for i, b in rows if b.row_label not in IPU_DROPPED]
    return rows[:limit]


def base_row_label(base: str) -> str:
    """Label of the unmutated Table-3 row compiled from ``base``."""
    for bench in TABLE3_ROWS + EXTRA_BENCHMARKS:
        if bench.base == base and not bench.mutations:
            return bench.row_label
    raise KeyError(base)


def load_answers() -> Dict[str, Dict[str, Dict[str, int]]]:
    """Per-row entries/stages recorded for each table3 workload."""
    return json.loads(ANSWERS_PATH.read_text())


def check_program(
    spec: ParserSpec, program: Optional[TcamProgram], device: DeviceProfile
) -> List[str]:
    """Problems with a compiled program; empty when it is a valid
    implementation of ``spec`` on ``device``."""
    if program is None:
        return ["no program"]
    problems = list(program.check_constraints(device))
    report = random_simulation_check(spec, program, samples=CHECK_SAMPLES)
    if not report.passed:
        problems.append(
            f"{len(report.failures)}/{CHECK_SAMPLES} random packets "
            "parse differently from the spec"
        )
    return problems


# ---------------------------------------------------------------------------
# table3-*
# ---------------------------------------------------------------------------


@dataclass
class RowResult:
    label: str
    seconds: float
    status: str
    entries: int
    stages: int
    search_space_bits: int
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def parse_rows(
    workload: str, limit: Optional[int] = None
) -> List[Tuple[int, Benchmark, ParserSpec]]:
    return [(i, b, b.spec()) for i, b in table3_rows(workload, limit)]


def compile_row(
    workload: str,
    seed: int,
    row: Tuple[int, Benchmark, ParserSpec],
    traced: bool = False,
    check: bool = True,
    checked: Optional[Dict[Tuple[str, str], List[str]]] = None,
    repeat: int = 0,
) -> RowResult:
    """Compile one row cold (default options, no cache), from a freshly
    collected heap.  The compile seed is workload seed + row index, plus
    REPEAT_SEED_STRIDE per ``repeat``, so that repeats of a row sample
    other compile seeds.
    ``traced`` runs the compile under a ``repro.obs.Tracer`` and keeps
    its counters; ``check`` checks the answer after the compile was
    timed.  ``checked`` memoises check outcomes by row and program, so
    a repeat that gives the same program is not checked twice."""
    index, bench, spec = row
    device = device_for(workload)
    compiler = ParserHawkCompiler(
        CompileOptions(seed=seed + index + REPEAT_SEED_STRIDE * repeat)
    )
    tracer = Tracer(bench.row_label) if traced else None
    gc.collect()
    t0 = time.perf_counter()
    with use_tracer(tracer):
        result = compiler.compile(spec, device)
    seconds = time.perf_counter() - t0
    if not result.ok:
        problems = [f"status {result.status}: {result.message}"]
    elif not check:
        problems = []
    elif checked is None:
        problems = check_program(spec, result.program, device)
    else:
        key = (
            bench.row_label,
            json.dumps(program_to_doc(result.program), sort_keys=True),
        )
        if key not in checked:
            checked[key] = check_program(spec, result.program, device)
        problems = checked[key]
    return RowResult(
        label=bench.row_label,
        seconds=seconds,
        status=result.status,
        entries=result.num_entries,
        stages=result.num_stages,
        search_space_bits=result.stats.search_space_bits,
        counters=tracer.registry.snapshot() if tracer else {},
        problems=list(problems),
    )


def compile_rows(
    workload: str,
    seed: int,
    rows: Sequence[Tuple[int, Benchmark, ParserSpec]],
    traced: bool = False,
    check: bool = True,
) -> List[RowResult]:
    """Compile every row once, in order (see ``compile_row``)."""
    return [compile_row(workload, seed, row, traced, check) for row in rows]


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeStream:
    """The job stream: job ``i`` is a fresh key when ``i % FRESH_EVERY
    == 0`` (cycling through SERVE_BASES, compile seed drawn from the
    workload seed), otherwise a repeat of a key drawn uniformly from the
    distinct keys submitted so far.  Drawing from distinct keys, not
    from past jobs, keeps the repeats spread over the base programs:
    drawing from past jobs makes the first keys snowball, and which base
    programs they were then sets hit latency.  The sequence depends only
    on the seed, never on timing."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._jobs = 0
        self._keys: List[Tuple[str, int]] = []

    def next(self) -> Tuple[int, str, int, bool]:
        """(job index, base, compile seed, fresh) of the next job."""
        index = self._jobs
        self._jobs += 1
        fresh = index % FRESH_EVERY == 0
        if fresh:
            base = SERVE_BASES[(index // FRESH_EVERY) % len(SERVE_BASES)]
            key = (base, self._rng.randrange(1 << 20))
            self._keys.append(key)
        else:
            key = self._rng.choice(self._keys)
        return index, key[0], key[1], fresh


@dataclass
class JobSample:
    index: int
    base: str
    compile_seed: int
    fresh: bool
    seconds: float
    state: str
    queue_wait: Optional[float]
    result_doc: Optional[dict]
    error: str = ""


@dataclass
class ServeRun:
    jobs: List[JobSample]
    wall: float
    counters: Dict[str, float]
    problems: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Jobs with at least one problem."""
        return len({index for index, _ in self.problems})


def serve_sources() -> Dict[str, str]:
    return {base: BASE_PROGRAMS[base] for base in SERVE_BASES}


def start_service(root: Path) -> CompileService:
    service = CompileService(root, workers=SERVE_WORKERS, use_cache=True)
    service.start()
    return service


def drive_service(
    service: CompileService,
    sources: Dict[str, str],
    seed: int,
    seconds: float,
) -> ServeRun:
    """Run one closed-loop client for ``seconds``: submit, wait for the
    terminal state, submit the next job of the stream.

    One client, not several: the service compiles on threads, so under
    the GIL a second client added no throughput, and hit latency came to
    depend on how hits happened to overlap compiles (the spread of
    ``job_s.p50`` over ten seeds rose above 25 %)."""
    stream = ServeStream(seed)
    samples: List[JobSample] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        index, base, compile_seed, fresh = stream.next()
        t0 = time.perf_counter()
        job, error = None, ""
        try:
            job = service.submit(
                sources[base], TOFINO, options={"seed": compile_seed}
            )
            job = service.wait(job.job_id, timeout=JOB_TIMEOUT_S)
        except Exception as exc:   # a refused job counts as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds_taken = time.perf_counter() - t0
        queue_wait = None
        if job is not None and job.started_epoch:
            queue_wait = job.started_epoch - job.submitted_epoch
        samples.append(
            JobSample(
                index=index,
                base=base,
                compile_seed=compile_seed,
                fresh=fresh,
                seconds=seconds_taken,
                state=job.state if job is not None else "refused",
                queue_wait=queue_wait,
                result_doc=job.result_doc if job is not None else None,
                error=error,
            )
        )
    return ServeRun(
        jobs=samples,
        wall=time.perf_counter() - t_start,
        counters=service.registry.snapshot(),
    )


def check_serve(run: ServeRun, sources: Dict[str, str]) -> None:
    """Mark every non-``done`` job and every wrong distinct answer as a
    problem (each distinct (base, seed) result is checked once)."""
    specs = {base: parse_spec(src) for base, src in sources.items()}
    checked: Dict[Tuple[str, int], List[str]] = {}
    for job in run.jobs:
        if job.state != "done":
            run.problems.append(
                (job.index, f"state {job.state} {job.error}".rstrip())
            )
            continue
        key = (job.base, job.compile_seed)
        if key not in checked:
            doc = job.result_doc or {}
            if doc.get("status") != "ok" or doc.get("program") is None:
                checked[key] = [f"result status {doc.get('status')}"]
            else:
                checked[key] = check_program(
                    specs[job.base], program_from_doc(doc["program"]), TOFINO
                )
        for problem in checked[key]:
            run.problems.append((job.index, f"{job.base}: {problem}"))


def job_resources(job: JobSample) -> Tuple[int, int]:
    """(entries, stages) of a done job's program."""
    program = program_from_doc(job.result_doc["program"])
    return program.num_entries, program.num_stages

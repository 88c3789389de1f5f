"""Table 3: ParserHawk vs. vendor compilers over the benchmark suite.

For each row (benchmark + mutation): ParserHawk's resource usage and
OPT-configuration compile time, the search-space size, a capped "Orig"
(all optimizations disabled) time, the resulting speed-up, and the
emulated vendor compiler's resource usage or rejection reason."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..baselines import BaselineRejected, ipu_compiler, tofino_compiler
from ..benchgen import TABLE3_ROWS, Benchmark
from ..core import CompileOptions, ParserHawkCompiler
from ..core.validate import random_simulation_check
from ..hw.device import DeviceProfile
from ..hw import ipu_profile, tofino_profile
from ..obs import Tracer, use_tracer
from .reporting import (
    fmt_speedup,
    fmt_time,
    format_span_breakdown,
    format_table,
)

# Scaled device profiles for the whole table (DESIGN.md scaling note).
TOFINO = tofino_profile(
    key_limit=8, tcam_limit=64, lookahead_limit=8, extract_limit=64
)
IPU = ipu_profile(
    key_limit=8,
    tcam_per_stage_limit=16,
    lookahead_limit=8,
    stage_limit=10,
    extract_limit=64,
)


@dataclass
class Table3Row:
    label: str
    device: str
    ph_entries: int
    ph_stages: int
    search_space_bits: int
    opt_seconds: float
    orig_seconds: Optional[Tuple[float, bool]]   # (seconds, capped)
    baseline_entries: int
    baseline_stages: int
    baseline_rejected: str                       # empty when it compiled
    validated: bool
    profile: str = ""                            # span breakdown of OPT compile
    cached: bool = False                         # OPT result came from cache_dir

    @property
    def ph_resource(self) -> int:
        return self.ph_stages if self.device == "ipu" else self.ph_entries

    @property
    def baseline_resource(self) -> int:
        if self.baseline_rejected:
            return -1
        return (
            self.baseline_stages
            if self.device == "ipu"
            else self.baseline_entries
        )


def run_row(
    bench: Benchmark,
    device_kind: str = "tofino",
    include_orig: bool = False,
    orig_cap_seconds: float = 20.0,
    validate_samples: int = 200,
    options: Optional[CompileOptions] = None,
    cache_dir: Optional[str] = None,
) -> Table3Row:
    device = TOFINO if device_kind == "tofino" else IPU
    spec = bench.spec()
    opts = options or CompileOptions()
    if cache_dir:
        opts = opts.with_(cache_dir=cache_dir)
    compiler = ParserHawkCompiler(opts)
    tracer = Tracer()
    with use_tracer(tracer):
        result = compiler.compile(spec, device)
    opt_seconds = result.stats.total_seconds or tracer.finish().elapsed()
    if not result.ok:
        raise RuntimeError(
            f"ParserHawk failed on {bench.row_label} ({device_kind}): "
            f"{result.status} {result.message}"
        )
    validated = True
    if validate_samples:
        validated = random_simulation_check(
            spec, result.program, samples=validate_samples
        ).passed

    orig: Optional[Tuple[float, bool]] = None
    if include_orig:
        orig = measure_orig(spec, device, orig_cap_seconds)

    baseline_entries = baseline_stages = -1
    rejected = ""
    baseline_mod = tofino_compiler if device_kind == "tofino" else ipu_compiler
    try:
        base = baseline_mod.compile_spec(spec, device)
        baseline_entries = base.num_entries
        baseline_stages = base.num_stages
    except BaselineRejected as exc:
        rejected = exc.reason

    return Table3Row(
        label=bench.row_label,
        device=device_kind,
        ph_entries=result.num_entries,
        ph_stages=result.num_stages,
        search_space_bits=result.stats.search_space_bits,
        opt_seconds=opt_seconds,
        orig_seconds=orig,
        baseline_entries=baseline_entries,
        baseline_stages=baseline_stages,
        baseline_rejected=rejected,
        validated=validated,
        profile=format_span_breakdown(tracer),
        cached=result.cached,
    )


def measure_orig(
    spec, device: DeviceProfile, cap_seconds: float
) -> Tuple[float, bool]:
    """Compile with every §6 optimization disabled, under a wall-clock cap
    (the paper's cap is 24 hours; ours is configurable and the capped
    cells render as '>cap')."""
    opts = CompileOptions.all_disabled(total_max_seconds=cap_seconds)
    compiler = ParserHawkCompiler(opts)
    t0 = time.monotonic()
    result = compiler.compile(spec, device)
    elapsed = time.monotonic() - t0
    if result.ok:
        return (elapsed, False)
    return (max(elapsed, cap_seconds), True)


def run_table3(
    device_kind: str = "tofino",
    rows: Optional[Sequence[Benchmark]] = None,
    include_orig: bool = False,
    orig_cap_seconds: float = 20.0,
    validate_samples: int = 200,
    progress: Optional[Callable[[str], None]] = None,
    cache_dir: Optional[str] = None,
) -> List[Table3Row]:
    out: List[Table3Row] = []
    for bench in rows if rows is not None else TABLE3_ROWS:
        row = run_row(
            bench,
            device_kind,
            include_orig=include_orig,
            orig_cap_seconds=orig_cap_seconds,
            validate_samples=validate_samples,
            cache_dir=cache_dir,
        )
        if progress:
            suffix = " (cached)" if row.cached else ""
            progress(f"{row.label}: {row.ph_resource}{suffix}")
        out.append(row)
    return out


def format_table3(rows: Sequence[Table3Row]) -> str:
    device = rows[0].device if rows else "?"
    resource = "# Stages" if device == "ipu" else "# TCAM"
    headers = [
        "Program Name",
        resource,
        "Search Space (bits)",
        "OPT time (s)",
        "Orig time (s)",
        "speedup",
        f"{device} compiler",
        "valid",
    ]
    body = []
    for row in rows:
        baseline = (
            row.baseline_rejected
            if row.baseline_rejected
            else str(row.baseline_resource)
        )
        body.append(
            [
                row.label,
                str(row.ph_resource),
                str(row.search_space_bits),
                f"{row.opt_seconds:.2f}",
                fmt_time(row.orig_seconds),
                fmt_speedup(row.opt_seconds, row.orig_seconds),
                baseline,
                "yes" if row.validated else "NO",
            ]
        )
    return format_table(headers, body, title=f"Table 3 ({device})")

"""Tests of the hawkbench benchmark itself.

Run from the repository root::

    python3 -m pytest hawkbench/tests -q

The determinism tests compile whole table3 workloads three times each
and take several minutes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.hw.impl import ACCEPT_SID, REJECT_SID  # noqa: E402
from repro.persist.serialize import program_to_doc  # noqa: E402


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = benchmark_spec()
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED_WORKLOADS)


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


def altered(program):
    """``program`` with one entry's next state redirected: the start
    state's widest-matching entry, so most random packets notice."""
    index, entry = min(
        enumerate(program.entries),
        key=lambda ie: (ie[1].sid != program.start_sid,
                        bin(ie[1].pattern.mask).count("1")),
    )
    target = REJECT_SID if entry.next_sid != REJECT_SID else ACCEPT_SID
    entries = list(program.entries)
    entries[index] = dataclasses.replace(entry, next_sid=target)
    return dataclasses.replace(program, entries=entries)


def test_altered_program_counts_as_failed_on_table3(monkeypatch):
    original = wl.ParserHawkCompiler.compile

    def broken_compile(self, spec, device, **kwargs):
        result = original(self, spec, device, **kwargs)
        result.program = altered(result.program)
        return result

    rows = wl.parse_rows("table3-tofino", 1)
    assert wl.compile_rows("table3-tofino", 0, rows)[0].problems == []
    monkeypatch.setattr(wl.ParserHawkCompiler, "compile", broken_compile)
    results = wl.compile_rows("table3-tofino", 0, rows)
    assert results[0].problems
    assert run.table3_failures([results]) == (1, 1)


def test_altered_program_counts_as_failed_on_serve():
    _, bench, spec = wl.parse_rows("table3-tofino", 1)[0]
    result = wl.ParserHawkCompiler().compile(spec, wl.TOFINO)
    good = {"status": "ok", "program": program_to_doc(result.program)}
    bad = {"status": "ok", "program": program_to_doc(altered(result.program))}

    def sample(index, seed, doc, state="done"):
        return wl.JobSample(index, bench.base, seed, True, 0.1, state, None, doc)

    served = wl.ServeRun(
        jobs=[sample(0, 1, good), sample(1, 2, bad), sample(2, 2, bad),
              sample(3, 3, None, state="failed")],
        wall=1.0, counters={},
    )
    wl.check_serve(served, {bench.base: wl.BASE_PROGRAMS[bench.base]})
    assert run.serve_failures(served) == (4, 3)


# ---------------------------------------------------------------------------
# smoke: every metric named in BENCHMARK.json, with its unit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--rows", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = benchmark_spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_no_result_without_program_sources(tmp_path):
    (tmp_path / "hawkbench").mkdir()
    for path in BENCH.glob("*.*"):
        (tmp_path / "hawkbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes()
    )
    out = subprocess.run(
        [sys.executable, "hawkbench/run.py", "--workload", "table3-tofino",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# ---------------------------------------------------------------------------
# determinism: the seed reaches the compiler, and runs repeat exactly
# ---------------------------------------------------------------------------

DETERMINISTIC = (
    "entries", "stages", "sat.conflicts", "budget.attempts",
    "encoder.tests", "cegis.iterations",
)


def traced_counts(workload: str, seed: int) -> dict:
    led = ledger.Ledger()
    with led.installed():
        rows = wl.parse_rows(workload)
        results = wl.compile_rows(workload, seed, rows, traced=True,
                                  check=False)
    counts = {
        "entries": [r.entries for r in results],
        "stages": [r.stages for r in results],
        "encoder.tests": led.calls("encoder.test"),
    }
    for name in ("sat.conflicts", "budget.attempts", "cegis.iterations"):
        counts[name] = sum(r.counters.get(name, 0) for r in results)
    return counts


@pytest.mark.slow
@pytest.mark.parametrize("workload", wl.TABLE3_WORKLOADS)
def test_traced_runs_repeat_and_depend_on_seed(workload):
    first = traced_counts(workload, 0)
    second = traced_counts(workload, 0)
    assert {k: first[k] for k in DETERMINISTIC} == {
        k: second[k] for k in DETERMINISTIC
    }
    other = traced_counts(workload, 100)
    assert other["sat.conflicts"] != first["sat.conflicts"]

"""Exact round-trip serialization of compile artifacts."""

from __future__ import annotations

import random

from repro.core import CompileOptions, compile_spec
from repro.core.result import CompileStats
from repro.persist import (
    program_fingerprint,
    program_from_doc,
    program_to_doc,
    result_from_doc,
    result_to_doc,
)
from repro.persist.serialize import stats_from_doc, stats_to_doc
from tests.conftest import assert_program_matches_spec


def _compiled(spec, device):
    result = compile_spec(spec, device, CompileOptions())
    assert result.ok, result.message
    return result


class TestProgramRoundTrip:
    def test_identical_reconstruction(self, spec, device):
        program = _compiled(spec, device).program
        doc = program_to_doc(program)
        rebuilt = program_from_doc(doc)
        assert program_to_doc(rebuilt) == doc
        assert program_fingerprint(rebuilt) == program_fingerprint(program)
        assert rebuilt.start_sid == program.start_sid
        assert rebuilt.num_entries == program.num_entries
        assert rebuilt.num_stages == program.num_stages

    def test_rebuilt_program_still_matches_spec(self, spec, device):
        program = _compiled(spec, device).program
        rebuilt = program_from_doc(program_to_doc(program))
        assert_program_matches_spec(
            spec, rebuilt, random.Random(7), samples=150
        )

    def test_doc_is_json_clean(self, spec, device):
        import json

        program = _compiled(spec, device).program
        text = json.dumps(program_to_doc(program))
        rebuilt = program_from_doc(json.loads(text))
        assert program_to_doc(rebuilt) == program_to_doc(program)


class TestStatsRoundTrip:
    def test_all_fields_survive(self):
        stats = CompileStats(
            synthesis_seconds=1.5,
            cegis_iterations=7,
            cegis_replayed=3,
            sat_conflicts=42,
            budgets_tried=2,
            search_space_bits=31,
        )
        assert stats_from_doc(stats_to_doc(stats)) == stats

    def test_unknown_fields_ignored(self):
        doc = stats_to_doc(CompileStats())
        doc["a_future_field"] = 123
        assert stats_from_doc(doc) == CompileStats()


class TestResultRoundTrip:
    def test_ok_result(self, spec, device):
        result = _compiled(spec, device)
        rebuilt = result_from_doc(result_to_doc(result), device)
        assert rebuilt is not None
        assert rebuilt.ok
        assert rebuilt.stats == result.stats
        assert program_fingerprint(rebuilt.program) == program_fingerprint(
            result.program
        )
        assert rebuilt.program.check_constraints(device) == []

    def test_malformed_doc_is_none(self, device):
        assert result_from_doc({"program": {"bogus": 1}}, device) is None
        assert result_from_doc({}, device) is None

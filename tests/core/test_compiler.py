"""End-to-end ParserHawk compilation tests on both device families."""

from __future__ import annotations

import pytest

from repro.core import (
    CompileOptions,
    ParserHawkCompiler,
    STATUS_INFEASIBLE,
    STATUS_TIMEOUT,
    compile_spec,
    verify_equivalent,
)
from repro.hw import custom_profile, ipu_profile, tofino_profile
from repro.ir import parse_spec
from repro.obs import Tracer, use_tracer
from tests.conftest import assert_program_matches_spec

TOFINO = tofino_profile(
    key_limit=8, tcam_limit=64, lookahead_limit=8, extract_limit=64
)
IPU = ipu_profile(
    key_limit=8, tcam_per_stage_limit=16, lookahead_limit=8,
    stage_limit=10, extract_limit=64,
)


class TestBasicCompiles:
    def test_unconditional_chain_single_entry(self, rng):
        spec = parse_spec(
            """
            header h { a : 4; b : 4; }
            parser P {
                state start { extract(h.a); transition next; }
                state next  { extract(h.b); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert result.num_entries == 1
        assert_program_matches_spec(spec, result.program, rng)

    def test_conditional_dispatch(self, dispatch_spec, rng):
        result = compile_spec(dispatch_spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(dispatch_spec, result.program, rng)
        # Exact verification as well.
        assert verify_equivalent(dispatch_spec, result.program) is None

    def test_dispatch_on_ipu(self, dispatch_spec, rng):
        result = compile_spec(dispatch_spec, IPU)
        assert result.ok
        assert result.num_stages >= 2
        assert result.program.check_constraints(IPU) == []
        assert_program_matches_spec(dispatch_spec, result.program, rng)

    def test_explicit_reject_arm(self, rng):
        spec = parse_spec(
            """
            header h { a : 4; b : 4; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.a) {
                        3 : reject;
                        0 &&& 0x3 : more;
                        default : accept;
                    }
                }
                state more { extract(h.b); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(spec, result.program, rng)

    def test_lookahead_spec(self, rng):
        spec = parse_spec(
            """
            header h { a : 2; b : 4; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(lookahead(2)) {
                        0b11 : more; default : accept;
                    }
                }
                state more { extract(h.b); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(spec, result.program, rng)

    def test_varbit_spec(self, rng):
        spec = parse_spec(
            """
            header h { n : 2; body : varbit 12; tail : 2; }
            parser P {
                state start {
                    extract(h.n);
                    extract_var(h.body, h.n, 4);
                    extract(h.tail);
                    transition accept;
                }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(spec, result.program, rng, max_len=24)


class TestLoops:
    MPLS = """
    header eth { t : 4; }
    header m { v : 3 stack 3; b : 1 stack 3; }
    parser P {
        state start {
            extract(eth);
            transition select(eth.t) { 8 : l; default : accept; }
        }
        state l {
            extract(m);
            transition select(m.b) { 1 : accept; default : l; }
        }
    }
    """

    def test_tofino_reuses_loop_entry(self, rng):
        spec = parse_spec(self.MPLS)
        result = compile_spec(spec, TOFINO)
        assert result.ok
        # Loop reuse keeps the program at one state for the stack.
        assert result.num_entries <= 4
        assert_program_matches_spec(spec, result.program, rng, max_len=24)

    def test_ipu_unrolls_loop(self, rng):
        spec = parse_spec(self.MPLS)
        result = compile_spec(spec, IPU)
        assert result.ok
        assert result.num_stages >= 4  # eth + 3 unrolled copies
        assert result.program.check_constraints(IPU) == []
        assert_program_matches_spec(spec, result.program, rng, max_len=24)


class TestLoopArms:
    """§6.7.1: the loop modes a compile tries, in order, one ``arm`` span
    each.  The paper races the arms; here they run in sequence and a
    later arm runs only if every earlier one found no program."""

    @staticmethod
    def _arm_modes(spec, device):
        tracer = Tracer()
        with use_tracer(tracer):
            result = compile_spec(spec, device)
        assert result.ok
        modes = []
        stack = [tracer.finish()]
        while stack:
            span = stack.pop()
            if span.name == "arm":
                modes.append(span.attrs["mode"])
            stack.extend(reversed(span.children))
        return modes

    def test_acyclic_spec_on_tofino_wins_in_loop_free_arm(
        self, dispatch_spec
    ):
        arms = ParserHawkCompiler()._portfolio_arms(
            dispatch_spec, TOFINO, CompileOptions()
        )
        assert arms == [False, True]          # loop-free first
        assert self._arm_modes(dispatch_spec, TOFINO) == ["loop-free"]

    def test_self_looping_spec_runs_only_loop_aware(self):
        spec = parse_spec(TestLoops.MPLS)
        assert self._arm_modes(spec, TOFINO) == ["loop-aware"]

    @pytest.mark.parametrize("looping", [False, True])
    def test_ipu_runs_only_loop_free(self, dispatch_spec, looping):
        spec = parse_spec(TestLoops.MPLS) if looping else dispatch_spec
        assert self._arm_modes(spec, IPU) == ["loop-free"]


class TestResourceMinimality:
    def test_merged_rules_use_fewer_entries(self):
        # {15,11,7,3} merge into one ternary entry (Figure 4 Step 1).
        spec = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        15 : n1; 11 : n1; 7 : n1; 3 : n1;
                        default : accept;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        # start: merged cube + default, n1: exit -> 3 entries.
        assert result.num_entries == 3

    def test_redundant_spec_entries_removed(self):
        spec = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0 : n1; 3 : n1; 5 : n1; 6 : n1;
                        9 : n1; 10 : n1; 12 : n1; 15 : n1;
                        default : n1;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert result.num_entries == 1  # everything goes to n1, then merge

    def test_same_resources_across_writing_styles(self):
        base = parse_spec(
            """
            header h { k : 4; x : 2; }
            parser P {
                state start {
                    extract(h.k);
                    transition select(h.k) {
                        0b1100 &&& 0b1100 : n1;
                        default : accept;
                    }
                }
                state n1 { extract(h.x); transition accept; }
            }
            """
        )
        from repro.ir.rewrites import split_entries

        styled = split_entries(base)
        r1 = compile_spec(base, TOFINO)
        r2 = compile_spec(styled, TOFINO)
        assert r1.ok and r2.ok
        assert r1.num_entries == r2.num_entries


class TestInfeasibility:
    def test_impossible_entry_budget(self, dispatch_spec):
        tiny = custom_profile(
            key_limit=8, tcam_limit=1, lookahead_limit=8
        )
        result = compile_spec(dispatch_spec, tiny)
        assert result.status == STATUS_INFEASIBLE

    def test_too_few_stages(self):
        spec = parse_spec(
            """
            header h { a : 2; b : 2; c : 2; }
            parser P {
                state start { extract(h.a);
                    transition select(h.a) { 1 : s1; default : accept; } }
                state s1 { extract(h.b);
                    transition select(h.b) { 1 : s2; default : accept; } }
                state s2 { extract(h.c); transition accept; }
            }
            """
        )
        shallow = ipu_profile(
            key_limit=8, tcam_per_stage_limit=16, stage_limit=2,
            lookahead_limit=8,
        )
        result = compile_spec(spec, shallow)
        assert result.status == STATUS_INFEASIBLE

    def test_lint_violation_reported(self):
        spec = parse_spec(
            """
            header h { a : 2; b : 2; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.b) { default : accept; }
                }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.status == STATUS_INFEASIBLE
        assert "h.b" in result.message


class TestStatsAndOptions:
    def test_stats_populated(self, dispatch_spec):
        result = compile_spec(dispatch_spec, TOFINO)
        assert result.ok
        assert result.stats.total_seconds > 0
        assert result.stats.cegis_iterations >= 1
        assert result.stats.search_space_bits > 0
        assert result.stats.budgets_tried >= 1

    def test_options_summary_recorded(self, dispatch_spec):
        result = ParserHawkCompiler(CompileOptions()).compile(
            dispatch_spec, TOFINO
        )
        assert "Opt1" in result.options_summary

    def test_disabled_options_still_correct(self, dispatch_spec, rng):
        opts = CompileOptions(
            opt1_spec_guided_keys=True,
            opt2_bitwidth_minimization=False,
            opt3_preallocation=True,
            opt4_constant_synthesis=False,
            opt5_key_grouping=False,
            total_max_seconds=120,
        )
        result = ParserHawkCompiler(opts).compile(dispatch_spec, TOFINO)
        assert result.ok
        assert_program_matches_spec(dispatch_spec, result.program, rng)

    def test_deterministic_across_runs(self, dispatch_spec):
        r1 = compile_spec(dispatch_spec, TOFINO)
        r2 = compile_spec(dispatch_spec, TOFINO)
        assert r1.num_entries == r2.num_entries
        assert [
            (e.sid, e.pattern.value, e.pattern.mask, e.next_sid)
            for e in r1.program.entries
        ] == [
            (e.sid, e.pattern.value, e.pattern.mask, e.next_sid)
            for e in r2.program.entries
        ]

    def test_summary_row_format(self, dispatch_spec):
        result = compile_spec(dispatch_spec, TOFINO)
        row = result.summary_row()
        assert "entries" in row and "CEGIS" in row


class TestBudgetLadder:
    """Each budget is decided before the next one is tried: an
    undecided budget ends the compile instead of letting a larger
    budget win, so an ok result's budget is always minimal."""

    def test_undecided_budget_ends_the_compile(
        self, dispatch_spec, monkeypatch, tmp_path
    ):
        from repro.core import SynthesisTimeout
        from repro.core import compiler as compiler_mod
        from repro.core.skeleton import entry_lower_bound

        lower_bound = entry_lower_bound(dispatch_spec, TOFINO)
        real = compiler_mod.synthesize_for_budget
        budgets = []

        def lowest_budget_times_out(skeleton, rng, **kwargs):
            budgets.append(skeleton.num_entries)
            if len(budgets) == 1:
                raise SynthesisTimeout("synthetic time cap")
            return real(skeleton, rng, **kwargs)

        monkeypatch.setattr(
            compiler_mod, "synthesize_for_budget", lowest_budget_times_out
        )
        result = ParserHawkCompiler(CompileOptions()).compile(
            dispatch_spec, TOFINO, checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert result.status == STATUS_TIMEOUT
        assert result.stats.budgets_tried == 1
        assert budgets == [lower_bound]
        assert (
            f"budget of {lower_bound} entries undecided" in result.message
        )
        assert result.checkpoint_path


class TestTestReuse:
    """Cross-budget test reuse (the shared pool) must never change an
    answer — only how much work finding it costs."""

    def test_pool_reuse_reported_in_stats(self):
        """Budgets past the first see the pool: a proved-UNSAT first
        budget's tests are replayed into the next one as constraints."""
        # {1, 2} share a destination but no ternary cube, so start needs
        # three entries while the destination-count lower bound claims
        # two — the search must pass through an UNSAT budget first.
        spec = parse_spec(
            """
            header h { a : 4; x : 2; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.a) {
                        1 : s1; 2 : s1; default : accept;
                    }
                }
                state s1 { extract(h.x); transition accept; }
            }
            """
        )
        result = compile_spec(spec, TOFINO)
        assert result.ok
        assert result.stats.budgets_retired >= 1
        assert result.stats.pool_tests_reused >= 1

"""ParserHawk's top-level compiler (Figure 8's whole pipeline).

``ParserHawkCompiler.compile`` runs:

1. front-end — canonicalize the spec, unroll self-loops for forward-only
   targets, apply Opt2/Opt6 scaling;
2. resource search — a ladder of budgets (stages outer for pipelined
   targets, TCAM entries inner) from their lower bounds upward, each
   decided by one CEGIS run before the next is tried; the first budget
   that succeeds is resource-minimal, and a budget left undecided ends
   the compile as a resumable timeout;
3. back-end — post-synthesis optimization, scale restoration, a final
   exact verification against the *original* specification, and a device
   constraint check.

Opt7's loop arms (§6.7.1) run in sequence: on a loop-capable device an
acyclic spec tries the loop-free encoding first and falls back to the
loop-aware one only if that arm finds no program.  This is the one
compile path; the paper's §6.7.2 key-limit arms are not reproduced.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Iterable, List, Optional, Tuple

from ..hw.device import DeviceProfile
from ..ir.analysis import check_extract_before_use, has_loops, max_parse_depth
from ..ir.bits import Bits
from ..ir.spec import ParserSpec
from ..obs import get_tracer
from ..persist import (
    CheckpointManager,
    cache_for_options,
    certificate_doc,
    compile_key,
    program_fingerprint,
    spec_fingerprint,
    store_proof_bundle,
    write_certificate,
)
from ..resilience import CompileFault
from .cegis import SynthesisTimeout, synthesize_for_budget
from .encoder import EncodingOverflow
from .normalize import CompileError, prepare_spec
from .options import CompileOptions
from .postopt import optimize as post_optimize
from .result import (
    STATUS_FAULT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    CompileResult,
    CompileStats,
)
from .skeleton import build_skeleton, entry_lower_bound
from .testpool import ORIGIN_CEX, TestPool
from .verifier import VerificationBudgetExceeded, verify_equivalent


def _budget_rng(
    seed: int,
    allow_loops: bool,
    stage_budget: Optional[int],
    num_entries: int,
    tag: str = "",
) -> random.Random:
    """Per-budget RNG, derived (not shared) so each budget's CEGIS run is
    independent of which budgets were visited before it.  Resume skips
    retired budgets entirely; a shared stream would make the surviving
    budgets see different randomness than the uninterrupted run did."""
    material = f"{seed}:{int(allow_loops)}:{stage_budget}:{num_entries}:{tag}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ParserHawkCompiler:
    """Program-synthesis-based parser compiler."""

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        self.options = options or CompileOptions()

    # ------------------------------------------------------------------
    def compile(
        self,
        spec: ParserSpec,
        device: DeviceProfile,
        *,
        checkpoint_dir: Optional[str] = None,
        resume: Optional[bool] = None,
    ) -> CompileResult:
        """Compile ``spec`` for ``device``.

        Persistence (both optional, see :mod:`repro.persist`):

        * a compile cache (``options.cache_dir``) is consulted before any
          synthesis and fed on success;
        * a checkpoint directory (``checkpoint_dir`` argument or
          ``options.checkpoint_dir``) makes CEGIS progress durable;
          ``resume`` (argument or ``options.resume``) reloads a matching
          checkpoint so an interrupted compile restarts seeded with all
          previously discovered counterexamples and skips budgets proved
          UNSAT.  Timeout/fault results then carry ``checkpoint_path``
          naming the file that continues them.
        """
        options = self.options
        ckpt_dir = checkpoint_dir or options.checkpoint_dir
        do_resume = options.resume if resume is None else resume
        stats = CompileStats()
        tracer = get_tracer()

        cache = cache_for_options(options)
        key = ""
        if cache is not None or ckpt_dir:
            key = compile_key(spec, device, options)
        if cache is not None:
            hit = cache.lookup(key, device)
            if hit is not None:
                cert = cache.cert_path(key)
                if cert.exists():
                    hit.certificate_path = str(cert)
                return hit
        manager: Optional[CheckpointManager] = None
        if ckpt_dir:
            manager = CheckpointManager(
                ckpt_dir,
                key,
                interval_seconds=options.checkpoint_interval_seconds,
                resume=do_resume,
            )

        def resumable(result: CompileResult) -> CompileResult:
            """Flush a final checkpoint and name it on the result."""
            if manager is not None:
                manager.flush(force=True)
                result.checkpoint_path = str(manager.path)
            return result

        with tracer.span(
            "compile", spec=spec.name, device=device.name
        ) as compile_span:
            deadline = (
                compile_span.start + options.total_max_seconds
                if options.total_max_seconds
                else None
            )
            problems = check_extract_before_use(spec)
            if problems:
                return CompileResult(
                    STATUS_INFEASIBLE,
                    device,
                    message="; ".join(problems),
                    options_summary=options.enabled_summary(),
                )
            try:
                result = self._compile_scaled(
                    spec, device, options, stats, deadline, manager,
                )
            except CompileError as exc:
                return CompileResult(
                    STATUS_INFEASIBLE,
                    device,
                    message=str(exc),
                    options_summary=options.enabled_summary(),
                )
            except SynthesisTimeout as exc:
                stats.total_seconds = compile_span.elapsed()
                return resumable(CompileResult(
                    STATUS_TIMEOUT,
                    device,
                    stats=stats,
                    message=str(exc),
                    options_summary=options.enabled_summary(),
                ))
            except CompileFault as exc:
                # An anticipated abnormal failure (solver resource
                # exhaustion, injected fault): degrade to a typed result
                # instead of unwinding the caller, which may retry it.
                partial = getattr(exc, "outcome", None)
                if partial is not None:
                    self._merge_outcome(stats, partial)
                stats.total_seconds = compile_span.elapsed()
                tracer.count("compile.faults")
                return resumable(CompileResult(
                    STATUS_FAULT,
                    device,
                    stats=stats,
                    message=exc.describe(),
                    options_summary=options.enabled_summary(),
                ))
            stats.total_seconds = compile_span.elapsed()
        result.stats = stats
        result.options_summary = options.enabled_summary()
        if result.ok:
            if manager is not None:
                manager.mark_completed(program_fingerprint(result.program))
            if cache is not None:
                cache.store(
                    key,
                    result,
                    meta={"spec": spec.name, "device": device.name},
                )
                if options.certify and result._certify_payload is not None:
                    payload = result._certify_payload
                    doc = certificate_doc(
                        spec,
                        device,
                        result.program,
                        compile_key=key,
                        constraint_digest=payload["constraint_digest"],
                        witnesses=payload["witnesses"],
                        max_steps=payload["max_steps"],
                    )
                    cert = cache.cert_path(key)
                    if write_certificate(cert, doc):
                        result.certificate_path = str(cert)
        return result

    # ------------------------------------------------------------------
    def _compile_scaled(
        self,
        spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
        stats: CompileStats,
        deadline: Optional[float],
        manager: Optional[CheckpointManager] = None,
    ) -> CompileResult:
        arms = self._portfolio_arms(spec, device, options)
        tracer = get_tracer()
        last_failure = "no feasible budget found"
        for allow_loops in arms:
            with tracer.span(
                "arm", mode="loop-aware" if allow_loops else "loop-free"
            ):
                synth_spec, plan = prepare_spec(
                    spec,
                    pipelined=device.is_pipelined or not allow_loops,
                    minimize_widths=options.opt2_bitwidth_minimization,
                    fix_varbits=options.opt6_fixed_varbits,
                    eqsat=options.eqsat,
                )
                result = self._search_budgets(
                    spec, synth_spec, plan, device, options, stats,
                    deadline, allow_loops, manager,
                )
            if result.ok:
                return result
            last_failure = result.message or last_failure
        return CompileResult(STATUS_INFEASIBLE, device, message=last_failure)

    def _portfolio_arms(
        self,
        spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
    ) -> List[bool]:
        """Which loop modes to try, in order (§6.7.1)."""
        if device.is_pipelined:
            return [False]
        if not device.allows_loops:
            return [False]
        if options.opt7_parallelism and not has_loops(spec):
            # Loop-free arm first: smaller search space, usually wins the
            # race the paper runs in parallel.
            return [False, True]
        return [True]

    # ------------------------------------------------------------------
    def _search_budgets(
        self,
        original_spec: ParserSpec,
        synth_spec: ParserSpec,
        plan,
        device: DeviceProfile,
        options: CompileOptions,
        stats: CompileStats,
        deadline: Optional[float],
        allow_loops: bool,
        manager: Optional[CheckpointManager] = None,
    ) -> CompileResult:
        # Checkpoint and pool state are keyed per (loop mode, prepared
        # spec): the counterexample inputs live in the *synthesis* spec's
        # bit layout (Opt2/Opt6 scaling changes it), so recorded tests
        # must never cross layouts.
        arm_key = (
            ("loop" if allow_loops else "fwd") + ":"
            + spec_fingerprint(synth_spec)[:16]
        )
        pool = TestPool(synth_spec)
        if manager is not None:
            # Resume: rebuild the pool exactly as recorded (content AND
            # order — budget runs are seeded from its prefixes, so
            # faithfulness depends on both).
            for value, length, origin in manager.pool_entries(arm_key):
                pool.add(Bits(value, length), origin)
            # From here on, every new entry becomes durable.
            pool.on_add = (
                lambda entry: manager.record_pool_entry(
                    arm_key, entry.bits.uint(), len(entry.bits), entry.origin,
                )
            )
        entry_lb = entry_lower_bound(synth_spec, device)
        entry_ub = min(
            device.total_entry_budget(),
            entry_lb + options.max_extra_entries,
        )
        if device.is_pipelined:
            stage_lb = max(1, max_parse_depth(synth_spec))
            stage_budgets: Iterable[Optional[int]] = range(
                min(stage_lb, device.stage_limit), device.stage_limit + 1
            )
        else:
            stage_budgets = [None]
        tracer = get_tracer()
        retired: set = set()
        if manager is not None:
            # Resume: budgets a previous run proved UNSAT are skipped.
            retired = manager.retired_budgets(arm_key)
            if retired:
                tracer.count("checkpoint.budgets_skipped", len(retired))
        # The budget ladder (§5.2): stages outer, entries inner, each
        # budget decided before the next is tried.  A budget is either
        # refuted (UNSAT: retire it and climb), solved (return the
        # program) or left undecided (end the compile as a resumable
        # timeout).  An ok result's budget is therefore minimal: every
        # smaller budget on the ladder was refuted.
        for stage_budget in stage_budgets:
            for num_entries in range(entry_lb, entry_ub + 1):
                budget_key = (stage_budget, num_entries)
                if budget_key in retired:
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    raise SynthesisTimeout("compiler deadline exceeded")
                stats.budgets_tried += 1
                tracer.count("budget.attempts")
                with tracer.span(
                    "budget", stages=stage_budget, entries=num_entries
                ):
                    final = self._decide_budget(
                        original_spec, synth_spec, plan, device, options,
                        stats, deadline, allow_loops, manager, arm_key,
                        pool, budget_key,
                    )
                if final is not None:
                    return final
        return CompileResult(
            STATUS_INFEASIBLE,
            device,
            message="no implementation exists within the device's "
            "resource limits",
        )

    def _decide_budget(
        self,
        original_spec: ParserSpec,
        synth_spec: ParserSpec,
        plan,
        device: DeviceProfile,
        options: CompileOptions,
        stats: CompileStats,
        deadline: Optional[float],
        allow_loops: bool,
        manager: Optional[CheckpointManager],
        arm_key: str,
        pool: TestPool,
        budget_key: Tuple[Optional[int], int],
    ) -> Optional[CompileResult]:
        """One budget's one CEGIS run.  Returns the final result (a
        verified program, or infeasible when the encoding or verifier
        cannot handle the spec), None when the budget is proved UNSAT,
        and raises :class:`SynthesisTimeout` naming the budget when it
        stays undecided."""
        stage_budget, num_entries = budget_key
        label = (
            f"{num_entries} entries" if stage_budget is None
            else f"{stage_budget} stages x {num_entries} entries"
        )
        tracer = get_tracer()
        skeleton = build_skeleton(
            synth_spec,
            device,
            options,
            num_entries=num_entries,
            stage_budget=stage_budget,
            allow_loops=allow_loops,
        )
        stats.search_space_bits = max(
            stats.search_space_bits, skeleton.search_space_bits()
        )
        rng = _budget_rng(
            options.seed, allow_loops, stage_budget, num_entries
        )
        # A budget recorded by an interrupted run resumes faithfully: the
        # same pool prefix, then its recorded counterexamples replayed.
        replay = None
        pool_base = (
            manager.pool_base(arm_key, budget_key)
            if manager is not None else None
        )
        if pool_base is not None:
            replay = manager.replay_for(arm_key, budget_key)
        else:
            pool_base = len(pool)
            if manager is not None:
                manager.begin_attempt(arm_key, budget_key, pool_base)

        def on_cex(bits):
            if manager is not None:
                manager.record_counterexample(arm_key, budget_key, bits)
            pool.add(bits, ORIGIN_CEX)

        try:
            outcome = synthesize_for_budget(
                skeleton,
                rng,
                max_iterations=options.max_cegis_iterations,
                max_seconds=options.synthesis_max_seconds,
                max_conflicts_per_solve=options.synthesis_max_conflicts,
                deadline=deadline,
                directed_tests=options.directed_seed_tests,
                replay=replay,
                on_counterexample=on_cex,
                pool=pool,
                pool_base=pool_base,
                certify=options.certify,
            )
        except SynthesisTimeout as exc:
            if exc.outcome is not None:
                self._merge_outcome(stats, exc.outcome)
            raise SynthesisTimeout(
                f"budget of {label} undecided: {exc}"
            ) from exc
        except (EncodingOverflow, VerificationBudgetExceeded) as exc:
            partial = getattr(exc, "outcome", None)
            if partial is not None:
                self._merge_outcome(stats, partial)
            return CompileResult(STATUS_INFEASIBLE, device, message=str(exc))
        self._merge_outcome(stats, outcome)
        if not outcome.feasible:
            stats.budgets_retired += 1
            tracer.count("budget.retired")
            if manager is not None:
                proof_ref = None
                proof = getattr(outcome, "proof", None)
                if (
                    options.certify
                    and proof is not None
                    and proof.has_refutation
                ):
                    # UNSAT-gated verdict: park the DRAT bundle next to
                    # the checkpoint so the retirement is
                    # offline-checkable.
                    proof_ref = store_proof_bundle(
                        manager.directory,
                        manager.compile_key,
                        arm_key,
                        f"{'-' if stage_budget is None else stage_budget}"
                        f":{num_entries}",
                        proof,
                    )
                manager.record_retired(
                    arm_key, budget_key, proof_ref=proof_ref
                )
            return None
        assert outcome.program is not None
        program = post_optimize(outcome.program, device)
        program = self._restore_scaling(program, plan)
        final = self._finalize(original_spec, program, device, options)
        if final is not None:
            self._attach_certify_payload(
                final, original_spec, outcome, options
            )
            return final
        # Restoration failed validation (rare: scaling interacted with
        # semantics): retry this budget without scaling.
        final = self._retry_unscaled(
            original_spec, device, options, stats, deadline,
            allow_loops, num_entries, stage_budget,
        )
        if final is not None:
            return final
        raise SynthesisTimeout(
            f"budget of {label} undecided: its scaled program failed "
            "final validation and the unscaled retry found none"
        )

    def _retry_unscaled(
        self,
        original_spec: ParserSpec,
        device: DeviceProfile,
        options: CompileOptions,
        stats: CompileStats,
        deadline: Optional[float],
        allow_loops: bool,
        num_entries: int,
        stage_budget: Optional[int],
    ) -> Optional[CompileResult]:
        rng = _budget_rng(
            options.seed, allow_loops, stage_budget, num_entries,
            tag="unscaled",
        )
        unscaled, _plan = prepare_spec(
            original_spec,
            pipelined=device.is_pipelined or not allow_loops,
            minimize_widths=False,
            fix_varbits=False,
            eqsat=options.eqsat,
        )
        skeleton = build_skeleton(
            unscaled,
            device,
            options,
            num_entries=num_entries,
            stage_budget=stage_budget,
            allow_loops=allow_loops,
        )
        try:
            outcome = synthesize_for_budget(
                skeleton,
                rng,
                max_iterations=options.max_cegis_iterations,
                max_seconds=options.synthesis_max_seconds,
                max_conflicts_per_solve=options.synthesis_max_conflicts,
                deadline=deadline,
                directed_tests=options.directed_seed_tests,
                certify=options.certify,
            )
        except (
            SynthesisTimeout, EncodingOverflow, VerificationBudgetExceeded
        ) as exc:
            partial = getattr(exc, "outcome", None)
            if partial is not None:
                self._merge_outcome(stats, partial)
            return None
        self._merge_outcome(stats, outcome)
        if outcome.feasible and outcome.program is not None:
            program = post_optimize(outcome.program, device)
            final = self._finalize(original_spec, program, device, options)
            if final is not None:
                self._attach_certify_payload(
                    final, original_spec, outcome, options
                )
            return final
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _attach_certify_payload(
        result: CompileResult,
        original_spec: ParserSpec,
        outcome,
        options: CompileOptions,
    ) -> None:
        """Stash the winning attempt's certificate material on the result
        (``compile`` writes it next to the cache entry at the end)."""
        if not options.certify:
            return
        result._certify_payload = {
            "constraint_digest": getattr(outcome, "constraint_digest", ""),
            "witnesses": list(getattr(outcome, "witnesses", ())),
            "max_steps": max(32, 4 * max_parse_depth(original_spec)),
        }

    @staticmethod
    def _merge_outcome(stats: CompileStats, outcome) -> None:
        """Fold one CEGIS attempt's measurements into the compile stats."""
        stats.cegis_iterations += outcome.iterations
        stats.cegis_replayed += getattr(outcome, "replayed", 0)
        stats.pool_tests_reused += getattr(outcome, "pool_reused", 0)
        stats.sat_clauses_added += getattr(outcome, "clauses_added", 0)
        stats.synthesis_seconds += outcome.synthesis_seconds
        stats.verification_seconds += outcome.verification_seconds
        stats.counterexamples += len(outcome.counterexamples)
        stats.sat_conflicts += outcome.sat_conflicts
        stats.sat_decisions += outcome.sat_decisions
        stats.sat_propagations += outcome.sat_propagations
        stats.sat_restarts += outcome.sat_restarts
        stats.sat_learnt_clauses += outcome.sat_learnt_clauses

    @staticmethod
    def _restore_scaling(program, plan):
        from ..hw.impl import TcamProgram

        restored_fields = plan.restore_fields(program.fields)
        return TcamProgram(
            restored_fields,
            program.states,
            program.entries,
            program.start_sid,
            program.source_name,
        )

    def _finalize(
        self,
        original_spec: ParserSpec,
        program,
        device: DeviceProfile,
        options: CompileOptions,
    ) -> Optional[CompileResult]:
        violations = program.check_constraints(device)
        if violations:
            return None
        max_steps = max(32, 4 * max_parse_depth(original_spec))
        cex = verify_equivalent(original_spec, program, max_steps=max_steps)
        if cex is not None:
            return None
        return CompileResult(STATUS_OK, device, program=program)


def compile_spec(
    spec: ParserSpec,
    device: DeviceProfile,
    options: Optional[CompileOptions] = None,
) -> CompileResult:
    """Convenience one-shot compile."""
    return ParserHawkCompiler(options).compile(spec, device)

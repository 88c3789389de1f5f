"""RetryPolicy / RetryState: deterministic backoff and classification."""

from __future__ import annotations

import pytest

from repro.resilience import (
    CompileFault,
    PoolBroken,
    RetryPolicy,
    RetryState,
    SolverResourceExhausted,
    WorkerCrash,
    transient_fault,
)


class TestPolicy:
    def test_delays_are_exponential_and_capped(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0
        )
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0
        assert policy.delay(4) == 5.0            # capped
        assert policy.delay(0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter=0.25, seed=7)
        factors = [policy.jitter_factor(n, key="k") for n in range(1, 50)]
        assert factors == [
            policy.jitter_factor(n, key="k") for n in range(1, 50)
        ]
        assert all(0.75 <= f <= 1.25 for f in factors)
        # Different keys/attempts actually spread (not all identical).
        assert len(set(factors)) > 40

    def test_jitter_depends_on_seed_and_key(self):
        a = RetryPolicy(seed=1).delay(1, key="x")
        b = RetryPolicy(seed=2).delay(1, key="x")
        c = RetryPolicy(seed=1).delay(1, key="y")
        assert a != b
        assert a != c

    def test_zero_jitter_is_exact(self):
        assert RetryPolicy(jitter=0.0).jitter_factor(3, "k") == 1.0


class TestState:
    def test_allows_max_attempts_total(self):
        state = RetryPolicy(max_attempts=3).start(sleep=None)
        assert state.record_failure()            # 1st failure: retry
        assert state.record_failure()            # 2nd failure: retry
        assert not state.record_failure()        # 3rd: exhausted
        assert state.exhausted
        assert state.total_failures == 3

    def test_success_resets_consecutive_not_total(self):
        state = RetryPolicy(max_attempts=2).start(sleep=None)
        state.record_failure()
        state.record_success()
        assert state.consecutive == 0
        assert state.total_failures == 1
        assert state.record_failure()            # streak restarted

    def test_backoff_sleeps_policy_delay(self):
        slept = []
        policy = RetryPolicy(base_delay=0.5, jitter=0.0)
        state = RetryState(policy, key="k", sleep=slept.append)
        state.record_failure()
        assert state.backoff() == 0.5
        state.record_failure()
        assert state.backoff(cap=0.7) == 0.7
        assert slept == [0.5, 0.7]

    def test_sleepless_state_never_sleeps(self):
        state = RetryPolicy(base_delay=10.0).start(sleep=None)
        state.record_failure()
        assert state.backoff() > 0               # returns, doesn't block


class TestClassification:
    @pytest.mark.parametrize(
        "cls", [WorkerCrash, PoolBroken, SolverResourceExhausted]
    )
    def test_environment_faults_are_transient(self, cls):
        assert transient_fault(cls("boom"))

    def test_generic_compile_fault_is_transient(self):
        assert transient_fault(CompileFault("injected"))

    def test_non_faults_are_not_transient(self):
        assert not transient_fault(ValueError("bad input"))
        assert not transient_fault(KeyboardInterrupt())

    def test_taxonomy_members(self):
        # Non-retryable outcomes are results (infeasible, timeout), never
        # raised faults: every class in the taxonomy is transient.
        from repro.resilience import faults

        members = [
            obj for obj in vars(faults).values()
            if isinstance(obj, type) and issubclass(obj, CompileFault)
        ]
        assert set(members) == {
            CompileFault, WorkerCrash, PoolBroken, SolverResourceExhausted
        }
        assert all(transient_fault(cls("x")) for cls in members)


class TestCrossProcessDeterminism:
    """The jitter must be a pure function of (seed, key, attempt) — a
    restarted worker (fresh interpreter, fresh PYTHONHASHSEED) has to
    compute the *same* backoff schedule, or fleet restart pacing would
    drift run-to-run."""

    CHILD = (
        "from repro.resilience.retry import RetryPolicy\n"
        "p = RetryPolicy(max_attempts=5, base_delay=0.05,\n"
        "                multiplier=2.0, max_delay=2.0,\n"
        "                jitter=0.25, seed=0)\n"
        "for key in ('job-a', 'job-b'):\n"
        "    for attempt in (1, 2, 3, 4):\n"
        "        print(f'{key} {attempt} {p.delay(attempt, key=key):.17g}')\n"
    )

    def _run_child(self, hash_seed):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            capture_output=True, text=True, env=env, check=True,
        )
        return out.stdout

    def test_same_schedule_in_fresh_subprocesses(self):
        parent = RetryPolicy(
            max_attempts=5, base_delay=0.05, multiplier=2.0,
            max_delay=2.0, jitter=0.25, seed=0,
        )
        expected = "".join(
            f"{key} {attempt} {parent.delay(attempt, key=key):.17g}\n"
            for key in ("job-a", "job-b")
            for attempt in (1, 2, 3, 4)
        )
        # Two different PYTHONHASHSEEDs: the schedule must not depend
        # on interpreter hash randomization in any way.
        assert self._run_child("1") == expected
        assert self._run_child("12345") == expected

    def test_distinct_keys_desynchronize(self):
        policy = RetryPolicy(base_delay=0.05, jitter=0.25, seed=0)
        assert policy.delay(2, key="job-a") != policy.delay(2, key="job-b")

"""Unit tests for the deterministic fault-injection registry."""

from __future__ import annotations

import pytest

from repro.resilience import (
    CompileFault,
    WorkerCrash,
    injection,
)
from repro.resilience.injection import fault_point


class TestRegistry:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            injection.inject("nonsense.site", WorkerCrash("x"))

    def test_fault_point_noop_when_empty(self):
        fault_point("sat.solve")  # must not raise

    def test_exception_instance_raised_with_site(self):
        injection.inject("sat.solve", WorkerCrash("boom"))
        with pytest.raises(WorkerCrash) as info:
            fault_point("sat.solve")
        assert info.value.site == "sat.solve"
        assert "sat.solve" in info.value.describe()

    def test_exception_class_instantiated(self):
        injection.inject("encoder", WorkerCrash)
        with pytest.raises(WorkerCrash, match="injected fault at encoder"):
            fault_point("encoder")

    def test_callable_invoked(self):
        hits = []
        injection.inject("bitblast", lambda: hits.append(1))
        fault_point("bitblast")
        fault_point("bitblast")  # times=1: second visit is a no-op
        assert hits == [1]

    def test_times_bounds_firing(self):
        injection.inject("sat.solve", WorkerCrash("boom"), times=2)
        for _ in range(2):
            with pytest.raises(WorkerCrash):
                fault_point("sat.solve")
        fault_point("sat.solve")  # exhausted

    def test_times_none_fires_every_visit(self):
        injection.inject("sat.solve", WorkerCrash("boom"), times=None)
        for _ in range(5):
            with pytest.raises(WorkerCrash):
                fault_point("sat.solve")

    def test_match_restricts_to_label(self):
        injection.inject("serve.worker", WorkerCrash("boom"), match="ab12")
        fault_point("serve.worker", label="cd34ef")
        fault_point("serve.worker", label=None)
        with pytest.raises(WorkerCrash):
            fault_point("serve.worker", label="00ab1234")

    def test_clear_disarms(self):
        injection.inject("sat.solve", WorkerCrash("boom"))
        injection.clear()
        assert not injection.active()
        fault_point("sat.solve")


class TestTaxonomy:
    def test_all_faults_are_compile_faults(self):
        from repro.resilience import PoolBroken, SolverResourceExhausted

        for cls in (WorkerCrash, PoolBroken, SolverResourceExhausted):
            exc = cls("x")
            assert isinstance(exc, CompileFault)
            assert cls.__name__ in exc.describe()


class TestConfigureFromString:
    """The ``--inject`` CLI syntax: site:FaultName[:times[:match]]."""

    def test_arms_named_fault_classes(self):
        armed = injection.configure_from_string(
            "serve.worker:WorkerCrash:2,serve.journal:PoolBroken"
        )
        assert len(armed) == 2
        with pytest.raises(WorkerCrash):
            fault_point("serve.worker")
        with pytest.raises(WorkerCrash):
            fault_point("serve.worker")
        fault_point("serve.worker")          # times=2: now disarmed
        from repro.resilience import PoolBroken

        with pytest.raises(PoolBroken):
            fault_point("serve.journal")
        fault_point("serve.journal")         # default times=1

    def test_star_means_every_visit(self):
        injection.configure_from_string("serve.worker:WorkerCrash:*")
        for _ in range(5):
            with pytest.raises(WorkerCrash):
                fault_point("serve.worker")

    def test_hang_injects_a_stall_not_an_exception(self):
        import time

        injection.configure_from_string("serve.worker:hang=0.05:1")
        start = time.monotonic()
        fault_point("serve.worker")          # sleeps, must not raise
        assert time.monotonic() - start >= 0.05
        fault_point("serve.worker")          # disarmed after one visit

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fault type"):
            injection.configure_from_string("serve.worker:NoSuchFault")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="expected site:FaultName"):
            injection.configure_from_string("serve.worker")

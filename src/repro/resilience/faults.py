"""The :class:`CompileFault` exception taxonomy.

Every *expected* way the compile pipeline can fail abnormally — as
opposed to the planned outcomes "infeasible" and "timeout" — has a
dedicated exception class here.  ``ParserHawkCompiler.compile`` catches
:class:`CompileFault` and converts it into a ``STATUS_FAULT`` result;
the serve layer retries such jobs (every fault is transient, see
:func:`repro.resilience.retry.transient_fault`).

The taxonomy is deliberately flat and small; classes carry an optional
``site`` naming the pipeline location that raised (one of the
fault-injection site names in :mod:`repro.resilience.injection`).
"""

from __future__ import annotations

from typing import Optional


class CompileFault(Exception):
    """Base class for abnormal (but anticipated) compile-pipeline failures.

    ``site`` names the pipeline location that raised (an injection-site
    string such as ``"sat.solve"``); ``outcome`` optionally carries a
    partial ``CegisOutcome`` so callers can fold the aborted attempt's
    solver statistics into their stats (mirroring ``SynthesisTimeout``).
    """

    def __init__(
        self, message: str = "", site: Optional[str] = None
    ) -> None:
        super().__init__(message or type(self).__name__)
        self.site = site
        self.outcome = None  # optional partial CegisOutcome

    def describe(self) -> str:
        where = f" at {self.site}" if self.site else ""
        return f"{type(self).__name__}{where}: {self}"


class WorkerCrash(CompileFault):
    """A worker raised or died mid-compile."""


class PoolBroken(CompileFault):
    """A shared resource the worker depends on (the job journal, a
    worker pool) is unusable."""


class SolverResourceExhausted(CompileFault):
    """The SAT solver ran out of a hard resource (memory, recursion),
    as opposed to a *planned* conflict/time budget, which reports
    ``unknown``."""

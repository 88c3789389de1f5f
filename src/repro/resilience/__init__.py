"""Resilience layer: fault taxonomy and deterministic fault injection.

The compile pipeline and the serve layer must degrade instead of dying:
a compile that hits an anticipated fault returns a ``STATUS_FAULT``
result, and the serve layer retries it with backoff.  This package
holds the pieces those behaviours share:

* :mod:`repro.resilience.faults` — the :class:`CompileFault` exception
  taxonomy the compiler catches and converts into results;
* :mod:`repro.resilience.injection` — a deterministic fault-injection
  registry (``inject(site, fault)``) so every recovery path is testable
  without real crashes (see ``tests/resilience/``);
* :mod:`repro.resilience.retry` — a reusable retry policy (bounded
  attempts, exponential backoff, deterministic jitter) plus the
  transient-vs-permanent fault classification, shared by the serve
  layer and the checkpoint manager's write-failure self-disable.

Deliberately dependency-free (stdlib only): both ``repro.smt`` and
``repro.core`` import it, so it must sit below everything.
"""

from .faults import (
    CompileFault,
    PoolBroken,
    SolverResourceExhausted,
    WorkerCrash,
)
from .injection import (
    SITES,
    InjectedFault,
    active,
    clear,
    fault_point,
    inject,
)
from .retry import RetryPolicy, RetryState, transient_fault

__all__ = [
    "CompileFault",
    "InjectedFault",
    "PoolBroken",
    "RetryPolicy",
    "RetryState",
    "SITES",
    "SolverResourceExhausted",
    "WorkerCrash",
    "active",
    "clear",
    "fault_point",
    "inject",
    "transient_fault",
]

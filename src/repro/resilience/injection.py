"""Deterministic fault injection for the compile pipeline.

Every recovery path in the resilience layer must be testable without a
real crash, hang, or out-of-memory condition.  This module provides a
process-global registry of *injected faults* keyed by **site** — a
stable string naming an instrumented pipeline location:

=================  ====================================================
site               fired from
=================  ====================================================
``sat.solve``      :meth:`repro.smt.solver.Solver.check`
``bitblast``       :meth:`repro.smt.bitblast.BitBlaster.assert_term`
``encoder``        ``repro.core.encoder.SymbolicProgram`` construction
``persist.write``  :func:`repro.persist.atomic.write_atomic`
``persist.read``   :func:`repro.persist.atomic.load_envelope`
``cache.store``    :meth:`repro.persist.cache.CompileCache.store`
``serve.enqueue``  ``repro.serve.service.CompileService.submit``
``serve.worker``   the serve worker loop, before each compile attempt
``serve.journal``  :meth:`repro.serve.journal.JobJournal` writes
=================  ====================================================

Production code calls :func:`fault_point` at each site; with an empty
registry that is one module-global read, so the instrumentation is free
in normal operation.  Tests arm the registry::

    inject("serve.worker", WorkerCrash("boom"), match=compile_key)
    try:
        ...  # exercise the pipeline
    finally:
        clear()

A fault may be an exception *instance* (raised as-is), an exception
*class* (instantiated then raised), or a zero-argument *callable*
(invoked; it may sleep to simulate a hang, call ``os._exit`` to
simulate a worker crash, or raise).  ``times`` bounds how often it
fires and ``match`` restricts it to sites whose label contains a
substring.  The registry is per process: a subprocess arms its own
faults (``repro serve --inject``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from .faults import CompileFault

SITES = (
    "sat.solve",
    "bitblast",
    "encoder",
    "persist.write",
    "persist.read",
    "cache.store",
    "serve.enqueue",
    "serve.worker",
    "serve.journal",
)


@dataclass
class InjectedFault:
    """One armed fault; mutable so firings can be counted."""

    site: str
    fault: Any                      # exception instance/class or callable
    times: Optional[int] = 1        # None = fire on every visit
    match: Optional[str] = None     # substring of the site label
    fired: int = 0

    def applies(self, site: str, label: Optional[str]) -> bool:
        if self.site != site:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.match is not None and self.match not in (label or ""):
            return False
        return True

    def trigger(self, site: str) -> None:
        self.fired += 1
        fault = self.fault
        if isinstance(fault, BaseException):
            if isinstance(fault, CompileFault) and fault.site is None:
                fault.site = site
            raise fault
        if isinstance(fault, type) and issubclass(fault, BaseException):
            raise fault(f"injected fault at {site}")
        # Callable action: may sleep (hang), os._exit (crash), or raise.
        fault()


_FAULTS: List[InjectedFault] = []


def inject(
    site: str,
    fault: Any,
    *,
    times: Optional[int] = 1,
    match: Optional[str] = None,
) -> InjectedFault:
    """Arm ``fault`` at ``site``; returns the (mutable) registration."""
    if site not in SITES:
        raise ValueError(
            f"unknown injection site {site!r}; known sites: {SITES}"
        )
    entry = InjectedFault(site=site, fault=fault, times=times, match=match)
    _FAULTS.append(entry)
    return entry


def clear() -> None:
    """Disarm every injected fault (tests call this in teardown)."""
    _FAULTS.clear()


def active() -> bool:
    return bool(_FAULTS)


def configure_from_string(text: str) -> List[InjectedFault]:
    """Arm faults from a compact CLI spec (``repro serve --inject``).

    Comma-separated ``site:FaultName[:times[:match]]`` entries, where
    ``FaultName`` is a class from :mod:`repro.resilience.faults` and
    ``times`` is an integer or ``*`` (every visit)::

        serve.worker:WorkerCrash:2,serve.journal:PoolBroken:1

    ``hang=<seconds>`` in place of a fault class injects a stall
    instead of an exception (a worker that wedges rather than dies)::

        serve.worker:hang=0.3:4
    """
    import time as _time

    from . import faults as _faults

    armed: List[InjectedFault] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"expected site:FaultName[:times[:match]], got {item!r}"
            )
        site, name = parts[0], parts[1]
        times: Optional[int] = 1
        if len(parts) > 2 and parts[2]:
            times = None if parts[2] == "*" else int(parts[2])
        match = parts[3] if len(parts) > 3 and parts[3] else None
        if name.startswith("hang"):
            _, eq, dur = name.partition("=")
            seconds = float(dur) if eq else 0.1
            fault: Any = lambda s=seconds: _time.sleep(s)  # noqa: E731
        else:
            fault_cls = getattr(_faults, name, None)
            if not (
                isinstance(fault_cls, type)
                and issubclass(fault_cls, BaseException)
            ):
                raise ValueError(f"unknown fault type {name!r}")
            fault = fault_cls
        armed.append(inject(site, fault, times=times, match=match))
    return armed


def fault_point(site: str, label: Optional[str] = None) -> None:
    """Instrumentation hook: fire any armed fault matching ``site``.

    Near-zero cost when nothing is armed (the common case).
    """
    if not _FAULTS:
        return
    for entry in _FAULTS:
        if entry.applies(site, label):
            entry.trigger(site)

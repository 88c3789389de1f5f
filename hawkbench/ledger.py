"""Per-layer ledger for the traced hawkbench run.

The ledger wraps the public functions of each compiler layer, from the
benchmark's own files, and records for every layer its call count and
its *self* time: a call's wall time minus the wall time of the wrapped
calls nested inside it.  Nesting is tracked on a per-thread stack, so
the serve workers' layers nest correctly while two of them run at once.

Each wrapper is installed on the name its caller resolves at call time:
a function bound by ``from .x import f`` is patched in the importing
module (patching ``repro.core.normalize.prepare_spec`` would miss the
compiler's own binding), a method is patched on its class.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.benchgen import suites
from repro.core import cegis, compiler
from repro.core.encoder import SymbolicProgram
from repro.persist.cache import CompileCache
from repro.persist.checkpoint import CheckpointManager
from repro.serve import job as serve_job
from repro.serve.journal import JobJournal
from repro.serve.service import CompileService
from repro.smt.solver import Solver

# (owner, attribute, layer).  The compile entry point is a layer of its
# own: its self time is the compile wall no other layer owns (residue).
TARGETS: List[Tuple[Any, str, str]] = [
    (suites, "parse_spec", "lang"),
    (serve_job, "parse_spec", "lang"),
    (compiler.ParserHawkCompiler, "compile", "compile"),
    (compiler, "prepare_spec", "normalize"),
    (compiler, "build_skeleton", "skeleton"),
    (compiler, "entry_lower_bound", "skeleton.lb"),
    (SymbolicProgram, "__init__", "encoder.init"),
    (SymbolicProgram, "structural_constraints", "encoder"),
    (SymbolicProgram, "encode_test", "encoder.test"),
    (SymbolicProgram, "decode", "encoder"),
    (Solver, "add", "bitblast"),
    (Solver, "check", "sat"),
    (cegis, "verify_equivalent", "verify"),
    (compiler, "verify_equivalent", "verify"),
    (compiler, "post_optimize", "postopt"),
    (CompileCache, "lookup", "cache.lookup"),
    (CompileCache, "store", "cache.store"),
    (CheckpointManager, "flush", "checkpoint"),
    (JobJournal, "record", "journal"),
    (JobJournal, "transition", "journal"),
    (CompileService, "submit", "serve.submit"),
]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0     # wall of outermost calls only


class Ledger:
    """Self time and call counts per layer, across threads."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTotals] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, elapsed: float, self_s: float,
                outermost: bool) -> None:
        with self._lock:
            totals = self.layers.setdefault(layer, LayerTotals())
            totals.calls += 1
            totals.self_s += self_s
            if outermost:
                totals.total_s += elapsed

    def wrap(self, fn: Callable, layer: str) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = ledger._stack()
            # frame = [seconds spent in nested wrapped calls, layer]
            outermost = not any(f[1] == layer for f in stack)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                ledger._record(layer, elapsed, elapsed - frame[0], outermost)

        return timed

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Install every wrapper for the dynamic extent; restore after."""
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in TARGETS]
        try:
            for owner, name, layer in TARGETS:
                setattr(owner, name, self.wrap(getattr(owner, name), layer))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- readout -------------------------------------------------------
    def calls(self, layer: str) -> int:
        totals = self.layers.get(layer)
        return totals.calls if totals else 0

    def self_s(self, *layers: str) -> float:
        return sum(
            self.layers[layer].self_s for layer in layers if layer in self.layers
        )

    def total_s(self, layer: str) -> float:
        totals = self.layers.get(layer)
        return totals.total_s if totals else 0.0

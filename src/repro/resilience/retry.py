"""Reusable retry policy: bounded attempts, exponential backoff,
deterministic jitter.

Two layers of the pipeline retry the same way for different reasons —
the serve layer re-runs compiles that died on a *transient*
:class:`CompileFault` (a crashed worker, a broken pool), and the
checkpoint manager gives up on persistence after repeated consecutive
write failures.  Both need the same three ingredients:

* a **policy** (:class:`RetryPolicy`): how many attempts are allowed and
  how long to wait between them.  Backoff is exponential with a
  *deterministic* jitter — the jitter fraction is derived by hashing
  ``(seed, key, attempt)``, never from a live RNG, so a retry schedule
  is reproducible run-to-run and testable without statistical slop;
* a **state** (:class:`RetryState`): the mutable attempt counter one
  operation threads through its retries, with an injectable ``sleep``
  (and no sleeping at all for callers like the checkpoint manager that
  only want the give-up decision);
* a **classification**: which failures are worth retrying at all.
  :func:`transient_fault` says yes for the faults that describe the
  *environment* dying (worker crash, broken pool, exhausted solver
  resources) and no for everything that describes the *problem* (an
  infeasible spec is infeasible on every retry).

Deliberately stdlib-only and free of ``repro.core`` imports, like the
rest of :mod:`repro.resilience` — the serve layer, the persistence
layer and tests all sit above it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .faults import CompileFault


def transient_fault(exc: BaseException) -> bool:
    """Whether retrying the failed operation could possibly succeed.

    Every :class:`CompileFault` is transient — the taxonomy reserves
    *non*-retryable outcomes for planned results (infeasible, timeout),
    which are never raised as faults.
    """
    return isinstance(exc, CompileFault)


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry and how long to back off in between.

    ``max_attempts`` counts *attempts*, not retries: 3 means one initial
    try plus two retries.  The delay before attempt ``n+1`` (``n`` >= 1
    failures so far) is ``base_delay * multiplier**(n-1)``, capped at
    ``max_delay``, scaled by a deterministic jitter factor in
    ``[1 - jitter, 1 + jitter]`` derived from ``(seed, key, n)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    seed: int = 0

    def jitter_factor(self, attempt: int, key: str = "") -> float:
        """The deterministic jitter multiplier for ``attempt`` (1-based)."""
        if self.jitter <= 0:
            return 1.0
        material = f"{self.seed}:{key}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return 1.0 - self.jitter + 2.0 * self.jitter * unit

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after the ``attempt``-th consecutive failure."""
        if attempt < 1:
            return 0.0
        raw = self.base_delay * (self.multiplier ** (attempt - 1))
        return min(self.max_delay, raw) * self.jitter_factor(attempt, key)

    def start(
        self,
        key: str = "",
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ) -> "RetryState":
        """A fresh :class:`RetryState` bound to this policy."""
        return RetryState(self, key=key, sleep=sleep)


class RetryState:
    """One operation's live retry bookkeeping.

    ``record_failure`` returns True while the policy allows another
    attempt; ``record_success`` resets the consecutive-failure count
    (the checkpoint manager's "self-heal on a good write" behaviour).
    ``backoff`` sleeps the policy's delay for the current failure count
    (no-op when constructed with ``sleep=None``) and returns it.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        key: str = "",
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ) -> None:
        self.policy = policy
        self.key = key
        self._sleep = sleep
        self.consecutive = 0
        self.total_failures = 0

    @property
    def attempts(self) -> int:
        """Attempts spent in the current consecutive-failure streak."""
        return self.consecutive

    @property
    def exhausted(self) -> bool:
        return self.consecutive >= self.policy.max_attempts

    def record_success(self) -> None:
        self.consecutive = 0

    def record_failure(self) -> bool:
        """Note a failure; True if another attempt is still allowed."""
        self.consecutive += 1
        self.total_failures += 1
        return self.consecutive < self.policy.max_attempts

    def next_delay(self) -> float:
        """The backoff the *next* :meth:`backoff` call would sleep."""
        return self.policy.delay(self.consecutive, self.key)

    def backoff(self, cap: Optional[float] = None) -> float:
        """Sleep the current backoff (optionally capped); returns it."""
        delay = self.next_delay()
        if cap is not None:
            delay = max(0.0, min(delay, cap))
        if self._sleep is not None and delay > 0:
            self._sleep(delay)
        return delay


__all__ = [
    "RetryPolicy",
    "RetryState",
    "transient_fault",
]

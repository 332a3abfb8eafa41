"""Circuit breaking for the job service.

:class:`CircuitBreaker` is a per-request-key quarantine of poison
configs: a request whose attempts keep failing on *distinct* workers is
the problem itself (not an unlucky worker) and gets its circuit opened
after ``threshold`` distinct-worker consecutive failures; further
attempts and submissions fail fast instead of burning the pool.  Retry
scheduling is the shared
:class:`~repro.resilience.recover.BackoffPolicy`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


class PoisonedConfigError(RuntimeError):
    """The request's circuit is open: it failed on too many workers."""

    def __init__(self, key: str, workers: tuple, kinds: tuple):
        self.key = key
        self.workers = workers
        self.kinds = kinds
        super().__init__(
            f"request {key[:16]} quarantined by the circuit breaker: "
            f"{len(workers)} consecutive distinct-worker failures "
            f"(workers {list(workers)}, kinds {list(kinds)})"
        )


@dataclass
class _Circuit:
    """Failure streak of one request key."""

    workers: list = field(default_factory=list)  #: distinct ids, ordered
    kinds: list = field(default_factory=list)
    open: bool = False


class CircuitBreaker:
    """Per-key consecutive distinct-worker failure tracker.

    A failure on a worker already in the streak refreshes its kind but
    does not lengthen the streak -- only a *new* worker corroborating
    the failure does, which is what separates a poison config from a
    bad worker.  Any success resets the streak.  Thread-safe.
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._circuits: dict[str, _Circuit] = {}

    def record_failure(self, key: str, worker_id: int, kind: str) -> bool:
        """Record one failed attempt; returns True if the circuit opened."""
        with self._lock:
            c = self._circuits.setdefault(key, _Circuit())
            if c.open:
                return False
            if worker_id not in c.workers:
                c.workers.append(worker_id)
                c.kinds.append(kind)
            if len(c.workers) >= self.threshold:
                c.open = True
                return True
            return False

    def record_success(self, key: str) -> None:
        """A successful attempt clears the streak (closed circuits only)."""
        with self._lock:
            c = self._circuits.get(key)
            if c is not None and not c.open:
                del self._circuits[key]

    def is_open(self, key: str) -> bool:
        with self._lock:
            c = self._circuits.get(key)
            return c is not None and c.open

    def error(self, key: str) -> PoisonedConfigError:
        """The fail-fast error describing ``key``'s open circuit."""
        with self._lock:
            c = self._circuits.get(key) or _Circuit()
            return PoisonedConfigError(key, tuple(c.workers),
                                       tuple(c.kinds))

    def open_keys(self) -> list[str]:
        """Keys with open circuits (list[str], sorted)."""
        with self._lock:
            return sorted(k for k, c in self._circuits.items() if c.open)

    def reset(self, key: str) -> None:
        """Operator override: forget ``key``'s streak entirely."""
        with self._lock:
            self._circuits.pop(key, None)

"""The failure table: every failure's kind, retry decision and exit code.

:func:`classify` maps any exception onto one *kind*; each kind has one
retry decision and one process exit code.  The CLI, the job service,
the rollback driver and campaigns all read this table, so supervisors
classify without parsing a traceback and every loop retries alike.

=====  ============  ==============================  =========  ================================
code   name          kinds                           retryable  meaning
=====  ============  ==============================  =========  ================================
0      ok            --                              --         success
1      failure       error, comm_timeout, timeout,   yes        generic / unclassified failure
                     worker_hung
1      failure       cancelled                       no         job cancelled by a shutdown
2      usage         --                              --         command-line usage error
64     invalid       invalid                         no         invalid configuration or request
65     data-corrupt  ckpt_corrupt, cache_corrupt,    yes        checkpoint / cache entry /
                     msg_corrupt                                message failed verification
66     deadlock      deadlock                        yes        communication deadlock
67     rank-lost     rank_crash, worker_lost         yes        a rank process/thread died
68     exhausted     exhausted                       no         recovery / retry attempts spent
69     poisoned      poisoned                        no         config quarantined by the breaker
70     numerics      numerics                        no         numerics sanitizer violation
75     overload      shed                            yes        request shed by admission control
=====  ============  ==============================  =========  ================================

Exceptions map onto kinds by the first matching row of
:func:`_exception_rows` (ring and halo CRC failures are ``msg_corrupt``
although they subclass ``ValueError``); a ``JobFailedError`` carries its
kind.  Codes avoid 126+ (shell/signal range) and are stable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INVALID = 64
EXIT_DATA_CORRUPT = 65
EXIT_DEADLOCK = 66
EXIT_RANK_LOST = 67
EXIT_EXHAUSTED = 68
EXIT_POISONED = 69
EXIT_NUMERICS = 70
EXIT_OVERLOAD = 75

#: code -> stable name (the CLI prints ``error[<name>] ...``).
NAMES = {
    EXIT_OK: "ok",
    EXIT_FAILURE: "failure",
    EXIT_USAGE: "usage",
    EXIT_INVALID: "invalid",
    EXIT_DATA_CORRUPT: "data-corrupt",
    EXIT_DEADLOCK: "deadlock",
    EXIT_RANK_LOST: "rank-lost",
    EXIT_EXHAUSTED: "exhausted",
    EXIT_POISONED: "poisoned",
    EXIT_NUMERICS: "numerics",
    EXIT_OVERLOAD: "overload",
}

#: kind -> (exit code, retryable).  A non-retryable failure recurs on
#: every retry (it is in the request) or is a supervisor's verdict.
KINDS = {kind: (code, retryable) for code, retryable, kinds in (
    (EXIT_FAILURE, True, "error comm_timeout timeout worker_hung"),
    (EXIT_FAILURE, False, "cancelled"),
    (EXIT_INVALID, False, "invalid"),
    (EXIT_DATA_CORRUPT, True, "ckpt_corrupt cache_corrupt msg_corrupt"),
    (EXIT_DEADLOCK, True, "deadlock"),
    (EXIT_RANK_LOST, True, "rank_crash worker_lost"),
    (EXIT_EXHAUSTED, False, "exhausted"),
    (EXIT_POISONED, False, "poisoned"),
    (EXIT_NUMERICS, False, "numerics"),
    (EXIT_OVERLOAD, True, "shed"),
) for kind in kinds.split()}


class Failure(NamedTuple):
    """One classified failure: its kind and that kind's table row."""

    kind: str
    retryable: bool
    code: int
    #: the exception the kind was read from (``WorldError`` unwrapped)
    cause: BaseException | None = None


def lookup(kind: str, cause: BaseException | None = None) -> Failure:
    """The table row of ``kind``; unknown kinds are generic failures."""
    code, retryable = KINDS.get(kind, KINDS["error"])
    return Failure(kind, retryable, code, cause)


@lru_cache(maxsize=1)
def _exception_rows() -> tuple[tuple[type, str | None], ...]:
    """(exception type, kind) in precedence order; None = ``exc.kind``."""
    # Deferred: the rows span every layer (import cycles).
    from .analysis.sanitizer import NumericsViolationError
    from .cluster.mpi_sim import CommTimeoutError, DeadlockError
    from .cluster.procs import RankLostError, RingCorruptionError
    from .resilience.detect import CheckpointCorruptError, HaloCorruptionError
    from .resilience.inject import InjectedRankCrash
    from .resilience.recover import ResilienceExhaustedError
    from .service.cache import CacheCorruptError
    from .service.engine import JobFailedError
    from .service.retry import PoisonedConfigError

    return (
        (PoisonedConfigError, "poisoned"),
        (JobFailedError, None),
        (ResilienceExhaustedError, "exhausted"),
        (InjectedRankCrash, "rank_crash"),
        (RankLostError, "rank_crash"),
        (HaloCorruptionError, "msg_corrupt"),
        (RingCorruptionError, "msg_corrupt"),
        (DeadlockError, "deadlock"),
        (CommTimeoutError, "comm_timeout"),
        (CheckpointCorruptError, "ckpt_corrupt"),
        (CacheCorruptError, "cache_corrupt"),
        (NumericsViolationError, "numerics"),
        (ValueError, "invalid"),
    )


def _primaries(exc: BaseException) -> list[BaseException]:
    """``exc`` with SPMD ``WorldError`` wrappers unwrapped (list)."""
    from .cluster.mpi_sim import WorldError

    if not isinstance(exc, WorldError):
        return [exc]
    inner = (exc.primary_failures or exc.failures).values()
    return [p for e in inner for p in _primaries(e)]


def classify(exc: BaseException) -> Failure:
    """Map an exception onto the failure table.

    A ``WorldError`` classifies as its most specific primary cause: the
    one whose row comes first, rank order breaking ties.  Exceptions
    matching no row are generic ``error`` failures.
    """
    rows = _exception_rows()

    def row(e: BaseException) -> tuple[int, str]:
        for i, (typ, kind) in enumerate(rows):
            if isinstance(e, typ):
                return i, e.kind if kind is None else kind
        return len(rows), "error"

    ranked = [(row(e), e) for e in _primaries(exc)] or [(row(exc), exc)]
    (_, kind), cause = min(ranked, key=lambda r: r[0][0])
    return lookup(kind, cause)


def classify_exit(exc: BaseException) -> tuple[int, str]:
    """Map an exception to ``(exit_code, name)`` via :func:`classify`."""
    code = classify(exc).code
    return code, NAMES[code]

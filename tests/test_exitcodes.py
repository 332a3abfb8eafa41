"""The failure table: kind -> exit code -> retry decision, in one place.

Every row of :data:`repro.exitcodes.KINDS` is restated here, every
exception row is classified directly and wrapped in a ``WorldError``,
and the unwrap precedence is pinned.  The service worker and the
recovery loops read the same table, so the worker path is checked too.
"""

from __future__ import annotations

import queue
import threading
from multiprocessing import Array

import pytest

from repro.analysis.sanitizer import NumericsViolation, NumericsViolationError
from repro.cluster.mpi_sim import (
    CommTimeoutError,
    DeadlockError,
    WorldAbortError,
    WorldError,
)
from repro.cluster.procs import RankLostError, RingCorruptionError
from repro.exitcodes import (
    EXIT_DATA_CORRUPT,
    EXIT_DEADLOCK,
    EXIT_EXHAUSTED,
    EXIT_FAILURE,
    EXIT_INVALID,
    EXIT_NUMERICS,
    EXIT_OVERLOAD,
    EXIT_POISONED,
    EXIT_RANK_LOST,
    KINDS,
    NAMES,
    classify,
    classify_exit,
    lookup,
)
from repro.resilience import (
    BackoffPolicy,
    CheckpointCorruptError,
    HaloCorruptionError,
    InjectedRankCrash,
    ResilienceExhaustedError,
)
from repro.service import (
    CacheCorruptError,
    JobCancelledError,
    JobFailedError,
    JobShedError,
    PoisonedConfigError,
    RequestError,
)
from repro.service import workers

pytestmark = pytest.mark.tier1

#: kind -> (exit code, retryable): the documented table, restated.
TABLE = {
    "error": (EXIT_FAILURE, True),
    "comm_timeout": (EXIT_FAILURE, True),
    "timeout": (EXIT_FAILURE, True),
    "worker_hung": (EXIT_FAILURE, True),
    "cancelled": (EXIT_FAILURE, False),
    "invalid": (EXIT_INVALID, False),
    "ckpt_corrupt": (EXIT_DATA_CORRUPT, True),
    "cache_corrupt": (EXIT_DATA_CORRUPT, True),
    "msg_corrupt": (EXIT_DATA_CORRUPT, True),
    "deadlock": (EXIT_DEADLOCK, True),
    "rank_crash": (EXIT_RANK_LOST, True),
    "worker_lost": (EXIT_RANK_LOST, True),
    "exhausted": (EXIT_EXHAUSTED, False),
    "poisoned": (EXIT_POISONED, False),
    "numerics": (EXIT_NUMERICS, False),
    "shed": (EXIT_OVERLOAD, True),
}

NUMERICS = NumericsViolationError([NumericsViolation(
    check="non_finite", where="step 1", block=None, count=1,
    worst=float("nan"))])

#: (exception, kind) -- one case per exception row, plus the kind
#: strings a JobFailedError carries.
EXCEPTIONS = [
    (PoisonedConfigError("k" * 64, (0, 1), ("rank_crash",) * 2),
     "poisoned"),
    (JobShedError(), "shed"),
    (JobCancelledError(), "cancelled"),
    (JobFailedError("deadlock"), "deadlock"),
    (JobFailedError("rank_crash"), "rank_crash"),
    (JobFailedError("exhausted"), "exhausted"),
    (JobFailedError("numerics"), "numerics"),
    (JobFailedError("ckpt_corrupt"), "ckpt_corrupt"),
    (ResilienceExhaustedError([], RuntimeError("last")), "exhausted"),
    (InjectedRankCrash("injected"), "rank_crash"),
    (RankLostError("gone"), "rank_crash"),
    (HaloCorruptionError("halo CRC32"), "msg_corrupt"),
    (RingCorruptionError("ring CRC32"), "msg_corrupt"),
    (DeadlockError("stuck", report=""), "deadlock"),
    (CommTimeoutError("recv timed out"), "comm_timeout"),
    (CheckpointCorruptError("block CRC32"), "ckpt_corrupt"),
    (CacheCorruptError("payload CRC32"), "cache_corrupt"),
    (NUMERICS, "numerics"),
    (RequestError("bad request"), "invalid"),
    (ValueError("bad config"), "invalid"),
    (RuntimeError("???"), "error"),
]


@pytest.mark.parametrize("kind", sorted(TABLE))
def test_kind_row(kind):
    code, retryable = TABLE[kind]
    assert KINDS[kind] == (code, retryable)
    row = lookup(kind)
    assert (row.kind, row.code, row.retryable) == (kind, code, retryable)
    assert code in NAMES


def test_table_is_complete_and_codes_avoid_signal_range():
    assert set(KINDS) == set(TABLE)
    for code in NAMES:
        assert 0 <= code < 126


def test_unknown_kind_is_a_generic_failure():
    assert lookup("mystery")[:3] == ("mystery", True, EXIT_FAILURE)
    assert classify_exit(JobFailedError("mystery")) == (EXIT_FAILURE,
                                                        "failure")


@pytest.mark.parametrize("exc,kind", EXCEPTIONS,
                         ids=[f"{type(e).__name__}-{k}" for e, k in EXCEPTIONS])
def test_exception_row(exc, kind):
    code, retryable = TABLE[kind]
    direct = classify(exc)
    assert (direct.kind, direct.code, direct.retryable) == \
        (kind, code, retryable)
    assert direct.cause is exc
    assert classify_exit(exc) == (code, NAMES[code])
    # The same failure inside an SPMD world classifies identically,
    # teardown aborts of the other ranks notwithstanding.
    wrapped = WorldError({0: WorldAbortError("teardown"), 1: exc})
    assert classify(wrapped)[:3] == (kind, retryable, code)
    assert classify(wrapped).cause is exc
    assert classify_exit(wrapped) == (code, NAMES[code])


@pytest.mark.parametrize("exc", [RingCorruptionError("ring CRC32"),
                                 HaloCorruptionError("halo CRC32")])
def test_corruption_is_retryable_data_corruption(exc):
    # Both subclass ValueError, yet they are data corruption, not a bad
    # request: retryable, exit 65.
    for failure in (exc, WorldError({0: exc})):
        assert classify_exit(failure) == (65, "data-corrupt")
        assert classify(failure).retryable
        assert BackoffPolicy().decide(classify(failure), 1) == "retry"


def test_service_worker_ships_table_kind(monkeypatch):
    # The worker classifies through the same table the engine reads.
    def corrupt(task, injector):
        raise WorldError({0: RingCorruptionError("ring CRC32")})

    monkeypatch.setattr(workers, "_run_task", corrupt)
    task_q, result_q = queue.Queue(), queue.Queue()
    task_q.put({"seq": 7})
    task_q.put(None)
    t = threading.Thread(target=workers.worker_main,
                         args=(0, task_q, result_q, Array("d", 5)))
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    _, seq, status, body, _, _ = result_q.get(timeout=5)
    assert (seq, status, body["kind"]) == (7, "fail", "msg_corrupt")
    assert lookup(body["kind"])[1:3] == (True, EXIT_DATA_CORRUPT)


@pytest.mark.parametrize("failures,kind,cause", [
    # Table order beats rank order.
    ({0: RankLostError("rank 0 died"), 1: RuntimeError("collateral")},
     "rank_crash", 0),
    ({0: RuntimeError("collateral"), 1: RankLostError("died")},
     "rank_crash", 1),
    ({0: CommTimeoutError("t"), 1: HaloCorruptionError("crc")},
     "msg_corrupt", 1),
    ({0: CheckpointCorruptError("c"), 1: DeadlockError("d", report="")},
     "deadlock", 1),
    ({0: ValueError("v"), 1: NUMERICS}, "numerics", 1),
    # Row order decides between the two rank_crash rows; rank order
    # breaks exact ties.
    ({0: RankLostError("a"), 1: InjectedRankCrash("b")}, "rank_crash", 1),
    ({0: RankLostError("a"), 1: RankLostError("b")}, "rank_crash", 0),
    # Only teardown aborts: they are the failures.
    ({0: WorldAbortError("x")}, "error", 0),
])
def test_world_error_unwrap_precedence(failures, kind, cause):
    failure = classify(WorldError(failures))
    assert failure.kind == kind
    assert failure.cause is failures[cause]


def test_nested_and_empty_world_errors():
    inner = WorldError({3: RingCorruptionError("ring")})
    assert classify(WorldError({0: inner})).kind == "msg_corrupt"
    empty = WorldError({})
    assert classify(empty).kind == "error"
    assert classify(empty).cause is empty

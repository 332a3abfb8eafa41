"""repro.service: fault-tolerant simulation-as-a-service.

An async job engine over a supervised pool of worker processes, with a
CRC-verified content-addressed result cache, bounded retry under the
shared :class:`~repro.resilience.recover.BackoffPolicy`, per-job
timeouts, heartbeat liveness, a circuit breaker for poison configs, and
admission control that degrades gracefully under overload.  See
``docs/service.md``.
"""

from ..resilience.recover import BackoffPolicy
from .cache import CacheCorruptError, ResultCache
from .engine import (
    JobCancelledError,
    JobEngine,
    JobFailedError,
    JobHandle,
    JobResult,
    JobShedError,
    ServiceClosedError,
    ServiceConfig,
)
from .health import format_service_scorecard, health_snapshot
from .queue import AdmissionQueue
from .request import ICSpec, JobRequest, RequestError, canonical_key
from .retry import CircuitBreaker, PoisonedConfigError

__all__ = [
    "AdmissionQueue",
    "BackoffPolicy",
    "CacheCorruptError",
    "CircuitBreaker",
    "ICSpec",
    "JobCancelledError",
    "JobEngine",
    "JobFailedError",
    "JobHandle",
    "JobRequest",
    "JobResult",
    "JobShedError",
    "PoisonedConfigError",
    "RequestError",
    "ResultCache",
    "ServiceClosedError",
    "ServiceConfig",
    "canonical_key",
    "format_service_scorecard",
    "health_snapshot",
]

"""sys-check: resource-lifecycle & process-safety analysis (RS rules).

Static side: RS001-RS007 abstractly interpret the multi-process layers
(``cluster/procs.py``, ``cluster/mpi_sim.py``, the service layer,
resilience, the flight recorder) and prove acquire/release discipline,
shared-memory ownership, lock/blocking separation, spawn safety, thread
joins, atomic durable writes and SIGKILL-window hygiene; run it with
``python -m repro.analysis --sys``.  Dynamic side:
:class:`ResourceLedger`, the leak sanitizer the test suite wraps around
every cluster/service/chaos test.
"""

from .facts import SysFacts
from .ledger import LeakError, ResourceLedger

__all__ = ["LeakError", "ResourceLedger", "SysFacts"]

"""Solver-aware static analysis and runtime numerics sanitation.

The paper's performance story rests on contracts this package enforces by
machine instead of by convention:

* **mixed precision** -- float32 AoS block *storage*, float64 SoA
  *compute* (paper Section 5), expressed through ``STORAGE_DTYPE`` /
  ``COMPUTE_DTYPE`` in :mod:`repro.physics.state`;
* **stencil geometry** -- the WENO5 ghost width of exactly
  :data:`repro.core.block.GHOSTS` cells;
* **numerical sanity** -- the quasi-conservative (Gamma, Pi) advection
  must never produce NaN/Inf, negative density or negative pressure
  mid-collapse.

Four static families share one engine: :mod:`repro.analysis.program`
parses each file once into one whole-program model, every rule lives in
the one registry of :mod:`repro.analysis.lint` (its family is its id
prefix), and every family reports into one :class:`Report`:

* :mod:`repro.analysis.rules` -- ``cubism-lint``, per-file AST rules
  CL001..CL012 with ``# lint: disable=RULE`` pragmas
  (``python -m repro.analysis src/repro`` or the ``cubism-lint`` script);
* :mod:`repro.analysis.concurrency` -- **comm-check**, a static
  whole-program MPI protocol verifier (rules CC001..CC004,
  ``--concurrency``), plus a dynamic vector-clock race detector and
  deadlock watchdog for the thread-based runtime (CC101/CC102,
  ``--concurrency-check`` on runs);
* :mod:`repro.analysis.perfcheck` -- **kernel-check**, a static hot-path
  performance analyzer over the declared kernels (rules CP001..CP003,
  CP005, CP006; ``--perf``);
* :mod:`repro.analysis.syscheck` -- **sys-check**, a static
  resource-lifecycle and process-safety analyzer for the multi-process
  layers (rules RS001..RS007, ``--sys``), plus :class:`ResourceLedger`,
  the runtime leak sanitizer the test suite wraps around every
  cluster/service/chaos test.

:mod:`repro.analysis.sanitizer` adds :class:`NumericsSanitizer`, a
runtime checker with an off / warn / raise policy that hooks into the
core kernels, the time stepper and the cluster driver.

``python -m repro.analysis --all`` runs all four static families in one
pass and emits a single merged report with a worst-of exit code.

See ``docs/analysis.md`` for the full rule catalogue and usage.
"""

from __future__ import annotations

from .concurrency import (
    ConcurrencyViolationError,
    ConcurrencyWarning,
    RaceTracker,
    make_tracker,
)
from .lint import (
    LintConfig,
    Report,
    Rule,
    SourceFile,
    Violation,
    format_violations,
    registered_rules,
)
from .perfcheck import HOT_KERNELS, KernelSpec
from .program import FAMILIES, Program, analyze, check_program, lint_paths, lint_source
from .sanitizer import (
    POLICIES,
    NumericsSanitizer,
    NumericsViolation,
    NumericsViolationError,
    NumericsWarning,
    ViolationReport,
    make_sanitizer,
)
from .syscheck import LeakError, ResourceLedger

# Importing the rule catalogues populates the registry as a side effect.
from . import rules as _rules  # noqa: F401  (registry population)
from .concurrency import commcheck as _commcheck  # noqa: F401
from .perfcheck import rules as _perf_rules  # noqa: F401
from .syscheck import rules as _sys_rules  # noqa: F401

__all__ = [
    "ConcurrencyViolationError",
    "ConcurrencyWarning",
    "FAMILIES",
    "HOT_KERNELS",
    "KernelSpec",
    "LeakError",
    "LintConfig",
    "NumericsSanitizer",
    "NumericsViolation",
    "NumericsViolationError",
    "NumericsWarning",
    "POLICIES",
    "Program",
    "RaceTracker",
    "Report",
    "ResourceLedger",
    "Rule",
    "SourceFile",
    "Violation",
    "ViolationReport",
    "analyze",
    "check_program",
    "format_violations",
    "lint_paths",
    "lint_source",
    "make_sanitizer",
    "make_tracker",
    "registered_rules",
]

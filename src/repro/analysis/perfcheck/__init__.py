"""kernel-check: static hot-path performance analyzer (CP-series).

Whole-program abstract interpretation over the solver's hot-path
modules (WENO, Riemann, EOS, RHS assembly, block kernels, time stepper,
ghost exchange) that checks each declared kernel and its helper
closure.  Five rules -- CP001 silent float32/float64 promotion, CP002
strong-scalar contamination, CP003 hidden-temporary accounting, CP005
fancy-indexing fusion blockers, CP006 counted-vs-modeled
arithmetic-intensity divergence -- produce
:class:`~repro.analysis.lint.Violation` findings.  Run with
``python -m repro.analysis --perf``; see ``docs/analysis.md``.
"""

from .facts import KernelFacts
from .model import HOT_KERNELS, KernelSpec

__all__ = ["HOT_KERNELS", "KernelFacts", "KernelSpec"]

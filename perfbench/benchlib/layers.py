"""Span wrappers around the public functions of each ``repro`` layer.

:data:`TARGETS` names, per layer, the functions the traced run times
from outside.  :func:`install` replaces each with a span-recording
wrapper -- in its defining module or class *and* in every loaded
``repro`` module that imported it by name -- and returns an
:class:`Installation` whose :meth:`~Installation.remove` puts every
original back.  Untraced runs never install anything, so they run the
program's own functions.
"""

from __future__ import annotations

import importlib
import sys

from .spans import SpanRecorder

#: (span name, defining module, function or ``Class.method``).  Several
#: targets may share one span name; their self times add up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.rhs", "repro.core.kernels", "rhs_kernel"),
    ("core.up", "repro.core.kernels", "update_stage"),
    ("core.sos", "repro.core.kernels", "sos_kernel"),
    ("physics.conv", "repro.physics.eos", "conserved_to_primitive"),
    ("physics.weno", "repro.physics.weno", "weno5"),
    ("physics.hlle", "repro.physics.riemann", "hlle_flux"),
    ("physics.sum", "repro.physics.equations", "compute_rhs"),
    ("node.ghost_fill", "repro.node.ghosts", "fill_block_ghosts"),
    ("node.dispatch", "repro.node.solver", "NodeSolver.evaluate_rhs"),
    ("sim.ic", "repro.node.grid", "BlockGrid.fill"),
    ("sim.diag", "repro.sim.diagnostics", "rank_diagnostics"),
    ("sim.diag", "repro.sim.diagnostics", "reduce_diagnostics"),
    ("cluster.halo_start", "repro.cluster.halo", "HaloExchange.start"),
    ("cluster.halo_finish", "repro.cluster.halo", "HaloExchange.finish"),
    ("cluster.allreduce", "repro.cluster.mpi_sim", "SimComm.allreduce"),
    ("cluster.ckpt_write", "repro.cluster.checkpoint", "write_checkpoint"),
    ("cluster.ckpt_read", "repro.cluster.checkpoint",
     "read_checkpoint_field"),
    ("compression.fwt", "repro.compression.scheme",
     "WaveletCompressor.compress"),
    ("compression.encode", "repro.compression.encoder",
     "StreamEncoder.encode"),
    ("compression.decompress", "repro.compression.scheme",
     "WaveletCompressor.decompress"),
    ("compression.write", "repro.compression.io",
     "write_compressed_parallel"),
    ("compression.read", "repro.compression.io", "read_field"),
    ("service.submit", "repro.service.engine", "JobEngine.submit"),
    ("service.cache_get", "repro.service.cache", "ResultCache.get"),
    ("service.cache_put", "repro.service.cache", "ResultCache.put"),
)


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Installation:
    """The patches of one :func:`install`; :meth:`remove` undoes them."""

    def __init__(self):
        #: (owner object, attribute name, original value)
        self.patches: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: SpanRecorder, targets=TARGETS) -> Installation:
    """Wrap every target with a span of ``recorder``; returns the patches."""
    inst = Installation()
    try:
        for name, modname, attr in targets:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                inst.patches.append((cls, meth, original))
                setattr(cls, meth, recorder.wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapped = recorder.wrap(name, original)
            for m in _repro_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        inst.patches.append((m, key, original))
                        setattr(m, key, wrapped)
    except BaseException:
        inst.remove()
        raise
    return inst


def installed_wrappers() -> list[str]:
    """Every binding of a span wrapper still present in ``repro``."""
    found = set()
    for m in _repro_modules():
        for key, value in list(vars(m).items()):
            if hasattr(value, "__perfbench_span__"):
                found.add(f"{m.__name__}.{key}")
            elif isinstance(value, type):
                for meth, fn in list(vars(value).items()):
                    if hasattr(fn, "__perfbench_span__"):
                        found.add(f"{value.__module__}.{value.__qualname__}"
                                  f".{meth}")
    return sorted(found)

"""The benchmark's metric catalogue: names, units, direction.

``END_TO_END`` is what every untraced run reports and ``PER_LAYER`` what
every traced run reports; ``BENCHMARK.json`` lists the same names (a
self-test keeps the two in step).  A per-layer metric of a layer the
workload does not run reads 0.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "mcells_per_s": ("Mcells/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_S = ("s", "lower")

PER_LAYER: dict[str, tuple[str, str]] = {
    "core.rhs_s": _S,
    "core.rhs_calls": ("count", "lower"),
    "core.rhs_gflop_s": ("GFLOP/s", "higher"),
    "core.up_s": _S,
    "core.sos_s": _S,
    "physics.conv_s": _S,
    "physics.weno_s": _S,
    "physics.hlle_s": _S,
    "physics.sum_s": _S,
    "node.ghost_fill_s": _S,
    "node.dispatch_s": _S,
    "node.blocks_per_step": ("count", "lower"),
    "sim.diag_s": _S,
    "sim.ic_s": _S,
    "cluster.world_start_s": _S,
    "cluster.halo_start_s": _S,
    "cluster.halo_finish_s": _S,
    "cluster.comm_wait_s": _S,
    "cluster.allreduce_s": _S,
    "cluster.bytes_per_step": ("B", "lower"),
    "cluster.messages_per_step": ("count", "lower"),
    "cluster.ckpt_write_s": _S,
    "cluster.ckpt_read_s": _S,
    "cluster.program_rate_ratio": ("ratio", "lower"),
    "compression.fwt_s": _S,
    "compression.encode_s": _S,
    "compression.decompress_s": _S,
    "compression.write_s": _S,
    "compression.read_s": _S,
    "compression.ratio_p": ("ratio", "higher"),
    "compression.ratio_gamma": ("ratio", "higher"),
    "compression.linf_p": ("abs_err", "lower"),
    "compression.linf_gamma": ("abs_err", "lower"),
    "service.submit_s": _S,
    "service.cache_get_s": _S,
    "service.cache_put_s": _S,
    "service.overhead_s": _S,
    "service.compute_s": _S,
    "service.reused_ratio": ("ratio", "higher"),
    "service.retries": ("count", "lower"),
    "service.worker_restarts": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

#: span name -> per-layer metric of its self time (``core.rhs`` is
#: reported inclusive of its physics children instead).
SELF_TIME_METRIC = {
    "core.up": "core.up_s",
    "core.sos": "core.sos_s",
    "physics.conv": "physics.conv_s",
    "physics.weno": "physics.weno_s",
    "physics.hlle": "physics.hlle_s",
    "physics.sum": "physics.sum_s",
    "node.ghost_fill": "node.ghost_fill_s",
    "node.dispatch": "node.dispatch_s",
    "sim.ic": "sim.ic_s",
    "sim.diag": "sim.diag_s",
    "cluster.halo_start": "cluster.halo_start_s",
    "cluster.halo_finish": "cluster.halo_finish_s",
    "cluster.allreduce": "cluster.allreduce_s",
    "cluster.ckpt_write": "cluster.ckpt_write_s",
    "cluster.ckpt_read": "cluster.ckpt_read_s",
    "compression.fwt": "compression.fwt_s",
    "compression.encode": "compression.encode_s",
    "compression.decompress": "compression.decompress_s",
    "compression.write": "compression.write_s",
    "compression.read": "compression.read_s",
    "service.submit": "service.submit_s",
    "service.cache_get": "service.cache_get_s",
    "service.cache_put": "service.cache_put_s",
}

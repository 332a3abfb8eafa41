"""Sample summaries, memory and host provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def summary(values) -> dict:
    """``n``, median, quartiles and the tail percentile of a sample.

    The tail is the highest percentile above the median with at least
    ten samples beyond it (none below 21 samples).
    """
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    pct = int(100 * (1 - 10 / n)) if n else 0
    if pct > 50:
        out[f"p{pct}"] = values[int(n * pct / 100)]
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def cache_sizes() -> dict:
    """CPU cache sizes in bytes as ``getconf`` reports them (may be empty)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes


def provenance() -> dict:
    """Host fingerprint, git sha, Python/NumPy versions, nproc, caches."""
    import numpy as np

    from repro.telemetry.trend import git_sha, host_fingerprint

    return {
        "host": host_fingerprint(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
    }

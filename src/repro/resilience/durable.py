"""The one durable-write helper: tmp, fsync, rename, directory fsync.

Checkpoints, result-cache entries and baselines reach their final name
through :func:`atomic_replace`: a crash leaves the previous file or a
sweepable ``.tmp``, never a torn file, and the directory fsync makes
the rename itself survive power loss.
"""

from __future__ import annotations

import os


def atomic_replace(tmp: str, path: str) -> None:
    """Rename the fully written, fsynced ``tmp`` over ``path`` durably."""
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, *chunks: bytes) -> str:
    """Write ``chunks`` to ``path`` atomically and durably; returns ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
        f.flush()
        os.fsync(f.fileno())
    atomic_replace(tmp, path)
    return path

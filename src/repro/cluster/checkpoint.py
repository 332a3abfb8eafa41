"""Lossless checkpoint/restart of simulation state.

Production runs of 10'000-100'000 steps (paper Section 1) cannot rely on
a single job allocation; CUBISM-MPCF-style campaigns stitch "simulation
units" across restarts (Section 7).  This module provides the collective
state serialization that makes that possible:

* every rank deflates its full AoS subdomain (all seven quantities,
  *losslessly* -- checkpoints must restart bit-exactly, unlike the lossy
  visualization dumps);
* offsets come from the same exclusive prefix sum as the dump writer;
* the reader stitches the global field, so a run may restart on a
  *different* rank count than it was written with.

Durability (the resilience layer's contract):

* writes are **atomic**: the file is assembled at ``path + ".tmp"`` and
  promoted (:func:`~repro.resilience.durable.atomic_replace`) only after
  every rank's block landed -- a crash can never destroy the previous
  generation;
* every rank-block carries a **CRC32** in the header, verified by the
  reader, so a storage bit flip is diagnosed as a localized
  :class:`~repro.resilience.detect.CheckpointCorruptError` instead of
  silently restarting into a wrong field;
* the reader validates **coverage**: the rank blocks must tile the
  global box exactly (no gaps, no overlaps) -- the pre-resilience reader
  silently zero-filled gaps;
* generations are named ``ckpt_000042.rck`` and rotated
  (:func:`prune_checkpoints` keeps the newest N), so a corrupted newest
  generation can fall back to the previous one.
"""

from __future__ import annotations

import json
import os
import re
import zlib

import numpy as np

from ..physics.state import NQ, STORAGE_DTYPE
from ..resilience.detect import (
    CheckpointCorruptError,
    CheckpointWriteError,
    crc32_bytes,
)
from ..resilience.durable import atomic_replace
from ..telemetry.clock import wall_now

#: Fixed-size JSON header (same convention as the dump files).
HEADER_SIZE = 65536
_MAGIC = "repro-checkpoint-v1"

#: Generation file naming: ``ckpt_000042.rck`` (6-digit step).
_CKPT_RE = re.compile(r"^ckpt_(\d{6})\.rck$")


def checkpoint_path(ckpt_dir: str, step: int) -> str:
    """Canonical path of the generation written at ``step`` (str)."""
    return os.path.join(ckpt_dir, f"ckpt_{step:06d}.rck")


def list_checkpoints(ckpt_dir: str) -> list[tuple[int, str]]:
    """All generations in ``ckpt_dir``, oldest first (list of (step, path)).

    Only canonical ``ckpt_NNNNNN.rck`` names are considered; temporaries
    and foreign files are ignored.
    """
    if not os.path.isdir(ckpt_dir):
        return []
    found = []
    for name in sorted(os.listdir(ckpt_dir)):
        m = _CKPT_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(ckpt_dir, name)))
    found.sort()
    return found


def prune_checkpoints(ckpt_dir: str, keep: int) -> list[str]:
    """Delete all but the newest ``keep`` generations; returns paths removed.

    ``keep <= 0`` disables rotation (nothing is removed).
    """
    if keep <= 0:
        return []
    removed = []
    gens = list_checkpoints(ckpt_dir)
    for _step, path in gens[:-keep] if len(gens) > keep else []:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            continue  # a vanished/busy generation is not worth failing over
    return removed


def write_checkpoint(comm, path: str, field: np.ndarray,
                     origin_cells: tuple[int, int, int],
                     t: float, step: int, injector=None) -> int:
    """Collectively write one checkpoint; returns this rank's byte count.

    ``field`` is the rank's AoS subdomain ``(nz, ny, nx, NQ)`` in storage
    precision.  The write is atomic (tmp + ``atomic_replace``) and each
    rank-block's CRC32 is recorded in the header.

    ``injector`` is an optional
    :class:`~repro.resilience.inject.FaultInjector`: its ``ckpt_bitflip``
    site corrupts this rank's payload post-CRC (the flip is then caught
    by the *reader*), and its ``io_fail`` site (target ``"checkpoint"``)
    turns this rank's write into a failure.  Write failures are
    allreduced so **every** rank raises
    :class:`~repro.resilience.detect.CheckpointWriteError` and the SPMD
    control flow stays collectively consistent; the temporary is removed
    and previous generations stay intact.
    """
    if field.dtype != STORAGE_DTYPE:
        field = field.astype(STORAGE_DTYPE)
    payload = zlib.compress(np.ascontiguousarray(field).tobytes(), 1)
    crc = crc32_bytes(payload)
    if injector is not None:
        payload = injector.corrupt_checkpoint_payload(comm.rank, step, payload)
    size = len(payload)
    offset = comm.exscan(size, op="sum") + HEADER_SIZE
    entries = comm.gather(
        {
            "offset": offset,
            "size": size,
            "crc32": crc,
            "origin_cells": list(origin_cells),
            "shape": list(field.shape[:3]),
        },
        root=0,
    )
    tmp = path + ".tmp"
    ok = 1
    try:
        if comm.rank == 0:
            header = {
                "magic": _MAGIC,
                "t": t,
                "step": step,
                "written_at": wall_now(),
                "ranks": entries,
            }
            blob = json.dumps(header).encode()
            if len(blob) > HEADER_SIZE:
                raise ValueError("checkpoint header exceeds HEADER_SIZE")
            with open(tmp, "wb") as f:
                f.write(blob.ljust(HEADER_SIZE))
        comm.barrier()
        if injector is not None and injector.io_fails(
            comm.rank, "checkpoint", step
        ):
            from ..resilience.inject import InjectedIOError

            raise InjectedIOError(
                f"injected checkpoint write failure on rank {comm.rank}"
            )
        with open(tmp, "r+b") as f:
            f.seek(offset)
            f.write(payload)
            f.flush()
            # Durability before the rank-0 rename below: a rename is
            # only atomic w.r.t. data that has reached the disk.
            os.fsync(f.fileno())
    except (OSError, ValueError) as exc:
        ok = 0
        failure = exc
    # Allreduce the per-rank flag so every rank takes the same branch:
    # SPMD control flow must never diverge on a local write failure.
    n_failed = comm.allreduce(1 - ok, op="sum")
    if n_failed:
        if comm.rank == 0:
            try:
                os.remove(tmp)
            except OSError:
                pass
            if injector is not None:
                injector.detected("io_fail", n_failed)
                injector.count("checkpoints_failed")
        raise CheckpointWriteError(
            f"checkpoint write of step {step} failed on {n_failed} rank(s)"
            + (f"; this rank: {failure!r}" if not ok else "")
        )
    comm.barrier()
    if comm.rank == 0:
        atomic_replace(tmp, path)
        if injector is not None:
            total = HEADER_SIZE + sum(e["size"] for e in entries)
            injector.count("ckpt_bytes_written", total)
            injector.set_counter("ckpt_generation_bytes", total)
    comm.barrier()
    return size


def read_checkpoint_meta(path: str) -> dict:
    """Header of a checkpoint: ``t``, ``step``, per-rank layout.

    Raises :class:`~repro.resilience.detect.CheckpointCorruptError` (a
    ``ValueError``) on a bad magic or an unparseable header.
    """
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
    try:
        header = json.loads(raw.decode().rstrip())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"{path}: unreadable checkpoint header ({exc})"
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise CheckpointCorruptError(f"{path} is not a repro checkpoint")
    if "ranks" not in header or not header["ranks"]:
        raise CheckpointCorruptError(f"{path}: header lists no rank blocks")
    return header


def _validate_coverage(path: str, entries: list[dict],
                       max_corner: list[int]) -> None:
    """Rank blocks must tile the global box exactly (no gaps/overlaps)."""
    occupancy = np.zeros(tuple(max_corner), dtype=np.uint8)
    for e in entries:
        oz, oy, ox = e["origin_cells"]
        sz, sy, sx = e["shape"]
        if min(oz, oy, ox) < 0 or min(sz, sy, sx) < 1:
            raise CheckpointCorruptError(
                f"{path}: invalid rank-block geometry origin="
                f"{e['origin_cells']} shape={e['shape']}"
            )
        occupancy[oz:oz + sz, oy:oy + sy, ox:ox + sx] += 1
    if (occupancy > 1).any():
        cell = tuple(int(i) for i in np.argwhere(occupancy > 1)[0])
        raise CheckpointCorruptError(
            f"{path}: rank blocks overlap at cell {cell}"
        )
    if (occupancy == 0).any():
        cell = tuple(int(i) for i in np.argwhere(occupancy == 0)[0])
        raise CheckpointCorruptError(
            f"{path}: rank blocks leave a gap at cell {cell} -- refusing "
            f"to zero-fill"
        )


def read_checkpoint_field(path: str) -> tuple[np.ndarray, float, int]:
    """Stitch the global AoS field of a checkpoint.

    Returns ``(field, t, step)``.  Works regardless of how many ranks
    wrote the file.  Every rank-block is CRC32-verified and the blocks
    must tile the global box exactly; any violation raises a localized
    :class:`~repro.resilience.detect.CheckpointCorruptError` (never a
    silent zero-fill).
    """
    header = read_checkpoint_meta(path)
    entries = header["ranks"]
    max_corner = [0, 0, 0]
    for e in entries:
        for d in range(3):
            max_corner[d] = max(max_corner[d], e["origin_cells"][d] + e["shape"][d])
    _validate_coverage(path, entries, max_corner)
    out = np.empty(tuple(max_corner) + (NQ,), dtype=STORAGE_DTYPE)
    with open(path, "rb") as f:
        for i, e in enumerate(entries):
            f.seek(e["offset"])
            raw = f.read(e["size"])
            if len(raw) != e["size"]:
                raise CheckpointCorruptError(
                    f"{path}: rank block {i} truncated "
                    f"({len(raw)}/{e['size']} bytes)"
                )
            if "crc32" in e and crc32_bytes(raw) != e["crc32"]:
                raise CheckpointCorruptError(
                    f"{path}: rank block {i} (origin {e['origin_cells']}) "
                    f"failed CRC32 -- storage corruption"
                )
            try:
                decompressed = zlib.decompress(raw)
            except zlib.error as exc:
                raise CheckpointCorruptError(
                    f"{path}: rank block {i} does not decompress ({exc})"
                ) from exc
            shape = tuple(e["shape"]) + (NQ,)
            expected = int(np.prod(shape)) * np.dtype(STORAGE_DTYPE).itemsize
            if len(decompressed) != expected:
                raise CheckpointCorruptError(
                    f"{path}: rank block {i} payload is {len(decompressed)} "
                    f"bytes, expected {expected} for shape {shape}"
                )
            sub = np.frombuffer(decompressed, dtype=STORAGE_DTYPE).reshape(shape)
            oz, oy, ox = e["origin_cells"]
            out[oz : oz + shape[0], oy : oy + shape[1], ox : ox + shape[2]] = sub
    return out, float(header["t"]), int(header["step"])

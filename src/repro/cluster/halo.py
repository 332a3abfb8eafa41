"""Inter-rank ghost (halo) exchange.

"During the evaluation of the RHS, blocks are divided in two parts: halo
and interior.  Non-blocking point-to-point communications are performed to
exchange ghost information for the halo blocks.  Every rank sends 6
messages to its adjacent neighbors ...  While waiting for the messages,
the rank dispatches the interior blocks to the node layer." (paper
Section 6)

:class:`HaloExchange` implements exactly that protocol on the simulated
communicator: :meth:`start` packs the six face slabs and posts the
non-blocking sends/receives, :meth:`finish` waits and returns a ghost
provider the node layer consults for rank-boundary blocks.

Every slab travels as a checksummed :class:`~repro.resilience.detect.HaloFrame`
(CRC32 computed before transport), so an in-transit bit flip is caught on
receive as a :class:`~repro.resilience.detect.HaloCorruptionError` rather
than silently entering the stencil.  Transient send failures (injected or
real) are retried in place with bounded jittered backoff.
"""

from __future__ import annotations

import numpy as np

from ..core.block import GHOSTS
from ..node.grid import BlockGrid
from ..physics.state import NQ, STORAGE_DTYPE
from ..resilience.detect import HaloFrame, crc32_array
from .mpi_sim import Request, SimComm
from .topology import CartTopology


def _face_tag(axis: int, side: int) -> int:
    """Message tag identifying the *sending* face."""
    return axis * 2 + (0 if side == -1 else 1)


def extract_face_slab(grid: BlockGrid, axis: int, side: int, width: int = GHOSTS) -> np.ndarray:
    """Assemble the ``width``-cell slab at one face of the rank subdomain.

    The slab spans the full subdomain face; shape is the subdomain cell
    extent with ``axis`` replaced by ``width`` (plus the quantity axis).
    """
    nz, ny, nx = grid.cells
    shape = [nz, ny, nx, NQ]
    shape[axis] = width
    out = np.empty(shape, dtype=STORAGE_DTYPE)
    n = grid.block_size
    b_edge = 0 if side == -1 else grid.num_blocks[axis] - 1
    for idx, block in grid.blocks.items():
        if idx[axis] != b_edge:
            continue
        slab = block.face_slab(axis, side, width)
        sel: list[slice] = []
        for d in range(3):
            if d == axis:
                sel.append(slice(0, width))
            else:
                sel.append(slice(idx[d] * n, (idx[d] + 1) * n))
        out[tuple(sel)] = slab
    return out


class RemoteGhostProvider:
    """Serves per-block ghost slabs out of the received face buffers.

    Implements the node layer's ghost-provider protocol:
    ``provider(block_index, axis, side) -> slab or None``.  ``None`` means
    the face is a physical domain boundary and the node layer should apply
    the boundary condition.
    """

    def __init__(self, grid: BlockGrid, face_buffers: dict[tuple[int, int], np.ndarray]):
        self._grid = grid
        self._buffers = face_buffers

    def __call__(self, block_index: tuple[int, int, int], axis: int, side: int):
        buf = self._buffers.get((axis, side))
        if buf is None:
            return None
        n = self._grid.block_size
        sel: list[slice] = []
        for d in range(3):
            if d == axis:
                sel.append(slice(None))
            else:
                b = block_index[d]
                sel.append(slice(b * n, (b + 1) * n))
        return buf[tuple(sel)]


class HaloExchange:
    """Non-blocking six-message halo exchange for one rank.

    ``tracer`` is an optional :class:`repro.telemetry.Tracer`; when set,
    :meth:`start` counts the posted messages and ghost bytes
    (``halo_messages`` / ``halo_bytes``) for the run metrics snapshot.

    ``injector`` is an optional
    :class:`~repro.resilience.inject.FaultInjector` used as the
    resilience monitor (CRC detections, comm retries); ``retry`` is the
    :class:`~repro.resilience.recover.BackoffPolicy` bounding the
    transient-send backoff (a default policy when omitted).
    """

    def __init__(self, comm: SimComm, topo: CartTopology, grid: BlockGrid,
                 tracer=None, injector=None, retry=None):
        from ..resilience.recover import BackoffPolicy

        self.comm = comm
        self.topo = topo
        self.grid = grid
        self.tracer = tracer
        self.injector = injector
        self.retry = retry or BackoffPolicy()
        self._neighbors = topo.neighbors(comm.rank)

    def halo_split(self) -> tuple[list, list]:
        """Split the rank's blocks into (interior, halo) lists.

        A block is *halo* if any of its faces touches a rank face with a
        live neighbor (its ghosts depend on a message); all other blocks
        are interior and can be computed while messages are in flight.
        Both lists preserve SFC dispatch order.
        """
        interior, halo = [], []
        B = self.grid.num_blocks
        for block in self.grid.sfc_blocks():
            is_halo = False
            for axis in range(3):
                for side in (-1, 1):
                    edge = 0 if side == -1 else B[axis] - 1
                    if block.index[axis] == edge and self._neighbors[(axis, side)] is not None:
                        is_halo = True
            (halo if is_halo else interior).append(block)
        return interior, halo

    def _send_frame(self, frame: HaloFrame, nbr: int, tag: int) -> None:
        """Post one checksummed face send, retrying transient failures."""
        from ..resilience.inject import TransientCommError

        def on_retry(attempt: int, exc: TransientCommError) -> None:
            if self.injector is not None:
                self.injector.count("comm_retries")
                self.injector.detected("comm_transient")
                self.injector.recovered("comm_transient")

        # Desynchronize backoff jitter across ranks via the seed.
        self.retry.call(lambda: self.comm.isend(frame, nbr, tag=tag),
                        seed=2013 + self.comm.rank, on_retry=on_retry)

    def start(self) -> dict[tuple[int, int], Request]:
        """Pack and post the sends/receives; returns pending receives."""
        pending: dict[tuple[int, int], Request] = {}
        for axis in range(3):
            for side in (-1, 1):
                nbr = self._neighbors[(axis, side)]
                if nbr is None:
                    continue
                slab = extract_face_slab(self.grid, axis, side)
                # Checksum before transport so receive-side verification
                # catches any in-transit corruption.
                frame = HaloFrame(crc=crc32_array(slab), payload=slab)
                # Tag with *our* sending face; the receiver matches on the
                # opposite face of the same axis.
                self._send_frame(frame, nbr, tag=_face_tag(axis, side))
                pending[(axis, side)] = self.comm.irecv(
                    source=nbr, tag=_face_tag(axis, -side)
                )
                if self.tracer is not None:
                    self.tracer.count("halo_messages")
                    self.tracer.count("halo_bytes", slab.nbytes)
        return pending

    def finish(self, pending: dict[tuple[int, int], Request]) -> RemoteGhostProvider:
        """Wait for all receives, verify CRCs, build the ghost provider.

        Raises :class:`~repro.resilience.detect.HaloCorruptionError` when
        a received frame fails its checksum (counted as a
        ``msg_corrupt`` detection on the injector first).
        """
        from ..resilience.detect import HaloCorruptionError

        buffers: dict[tuple[int, int], np.ndarray] = {}
        for (axis, side), req in pending.items():
            frame = req.wait()
            if isinstance(frame, HaloFrame):
                try:
                    frame.verify(source=self._neighbors[(axis, side)],
                                 axis=axis, side=side)
                except HaloCorruptionError:
                    if self.injector is not None:
                        self.injector.detected("msg_corrupt")
                    raise
                buffers[(axis, side)] = frame.payload
            else:  # pre-framing peer (plain slab): accept unchecked
                buffers[(axis, side)] = frame
        return RemoteGhostProvider(self.grid, buffers)

    def exchange(self) -> RemoteGhostProvider:
        """Blocking convenience: start + finish."""
        return self.finish(self.start())

    def message_bytes(self) -> dict[tuple[int, int], int]:
        """Per-face message sizes (the paper quotes 3--30 MB per message)."""
        sizes = {}
        nz, ny, nx = self.grid.cells
        extents = {0: ny * nx, 1: nz * nx, 2: nz * ny}
        for (axis, side), nbr in self._neighbors.items():
            if nbr is not None:
                sizes[(axis, side)] = GHOSTS * extents[axis] * NQ * np.dtype(
                    STORAGE_DTYPE
                ).itemsize
        return sizes

"""Core layer: blocks and compute kernels (paper Section 6).

The core layer "is responsible for the execution of the compute kernels,
namely RHS, UP, SOS and FWT" and is the most performance-critical layer.
(The FWT kernel lives in :mod:`repro.compression` together with the rest
of the wavelet pipeline.)
"""

from .block import (
    DEFAULT_BLOCK_SIZE,
    GHOSTS,
    Block,
    fill_interior,
    padded_aos,
)
from .kernels import (
    dt_from_sos,
    rhs_kernel,
    sos_kernel,
    update_stage,
)
from .timestepper import (
    ForwardEuler,
    LowStorageRK3,
    RKStage,
    TimeStepper,
    make_stepper,
)

__all__ = [
    "Block",
    "DEFAULT_BLOCK_SIZE",
    "ForwardEuler",
    "GHOSTS",
    "LowStorageRK3",
    "RKStage",
    "TimeStepper",
    "dt_from_sos",
    "fill_interior",
    "make_stepper",
    "padded_aos",
    "rhs_kernel",
    "sos_kernel",
    "update_stage",
]

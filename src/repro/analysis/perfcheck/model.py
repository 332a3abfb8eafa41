"""Declared hot-path kernel specifications and the shared roofline table.

The paper's core layer kept a hand-maintained list of the kernels that
matter (RHS, DT, UP and their substages) and hand-verified each one
before lowering it to QPX intrinsics.  This module is that list for the
Python reproduction: every entry names a kernel function in one of the
hot-path modules, its dtype contract, and (when the roofline model
covers it) the key into the shared per-point arithmetic table
:data:`repro.perf.kernels.KERNEL_ARITHMETIC`.

The CP rules scan each declared kernel and its helper closure, so
adding a kernel here is the first step of the "declaring a hot kernel"
walkthrough in ``docs/analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...perf.kernels import KERNEL_ARITHMETIC, KernelArithmetic

#: Dtype-contract shorthand strings used by the spec table.
_COMPUTE = "dtype-preserving; production COMPUTE_DTYPE (float64) SoA"
_AOS_IN = "STORAGE_DTYPE (float32) AoS in, COMPUTE_DTYPE (float64) out"
_AOS_INPLACE = (
    "STORAGE_DTYPE (float32) AoS in place; COMPUTE_DTYPE (float64) "
    "arithmetic"
)


@dataclass(frozen=True)
class KernelSpec:
    """Declaration of one hot-path kernel the analyzer checks."""

    name: str  #: function name in the defining module
    module: str  #: path suffix of the defining module (``physics/weno.py``)
    dtype_contract: str  #: human-readable precision contract
    model_key: str | None = None  #: key into the shared arithmetic table


#: The declared hot-path kernels.
HOT_KERNELS: tuple[KernelSpec, ...] = (
    # physics.weno -- the WENO stage dominates the RHS (83 % of its
    # instructions, paper Table 8).
    KernelSpec("weno5", "physics/weno.py", _COMPUTE, "weno5"),
    KernelSpec("weno3", "physics/weno.py", _COMPUTE, None),
    # physics.riemann -- the HLLE stage.
    KernelSpec("hlle_flux", "physics/riemann.py", _COMPUTE, "hlle"),
    KernelSpec("einfeldt_wave_speeds", "physics/riemann.py", _COMPUTE,
               "wavespeeds"),
    KernelSpec("hllc_flux", "physics/riemann.py", _COMPUTE, None),
    # physics.eos -- CONV/BACK stages and the DT reduction chain.
    KernelSpec("conserved_to_primitive", "physics/eos.py", _COMPUTE, "conv"),
    KernelSpec("primitive_to_conserved", "physics/eos.py", _COMPUTE, "back"),
    KernelSpec("pressure", "physics/eos.py", _COMPUTE, "pressure"),
    KernelSpec("total_energy", "physics/eos.py", _COMPUTE, "total_energy"),
    KernelSpec("sound_speed", "physics/eos.py", _COMPUTE, "sound_speed"),
    KernelSpec("max_characteristic_velocity", "physics/eos.py", _COMPUTE,
               "sos"),
    # physics.equations -- RHS assembly (directional sweeps).
    KernelSpec("directional_rhs", "physics/equations.py", _COMPUTE, None),
    KernelSpec("compute_rhs", "physics/equations.py", _COMPUTE, None),
    # core.kernels -- block-level wrappers (AoS/SoA conversion) and the
    # UP stage.
    KernelSpec("rhs_kernel", "core/kernels.py", _AOS_IN, None),
    KernelSpec("sos_kernel", "core/kernels.py", _AOS_IN, None),
    KernelSpec("update_stage", "core/kernels.py", _AOS_INPLACE, "up"),
    # core.timestepper / node layer -- orchestration around the kernels.
    KernelSpec("advance", "core/timestepper.py", _AOS_INPLACE, None),
    KernelSpec("fill_block_ghosts", "node/ghosts.py",
               "STORAGE_DTYPE (float32) AoS in place", None),
)


def modeled_arithmetic(spec: KernelSpec) -> KernelArithmetic | None:
    """The shared roofline-table entry of a kernel spec, or None."""
    if spec.model_key is None:
        return None
    return KERNEL_ARITHMETIC.get(spec.model_key)

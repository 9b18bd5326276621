"""Spectral steady-state solver for a drop falling in an unbounded reservoir."""

__version__ = "0.1.0"

from .driver import SolveConfig, SolutionBundle, diagnostics, picard_solve
from .operators import DropState, apply_L, assemble_N, invert_L
from .sphere import SphereField, SphereGrid, TangentField
from .stokes import PhysicalParams, YElement, auxiliary_field, lambda0_value, oseenlet
from .volume import VolumeField, VolumeGrid

__all__ = [
    "__version__",
    "SolveConfig",
    "SolutionBundle",
    "picard_solve",
    "diagnostics",
    "DropState",
    "YElement",
    "apply_L",
    "invert_L",
    "assemble_N",
    "SphereGrid",
    "SphereField",
    "TangentField",
    "PhysicalParams",
    "auxiliary_field",
    "lambda0_value",
    "oseenlet",
    "VolumeGrid",
    "VolumeField",
]

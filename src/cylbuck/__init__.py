"""Buckling of axially compressed circular cylindrical shells.

Closed-form reduction (Fourier modes -> radial linearization -> 2x2
quadratic minimization -> Koiter circle) with an independent discretized
3D-elasticity oracle for every step.
"""

from .material import IsotropicElasticity, SymStrain, coercivity_bound, energy_density
from .spectral import (
    FourierMode,
    ShellGeometry,
    WaveNumbers,
    optimal_mode,
    strain_amplitudes,
)
from .trivial_branch import (
    StVenantKirchhoff,
    linearized_displacement_slope,
    solve_radial_stretch,
)
from .critical_load import (
    BucklingResult,
    CriticalLoadProblem,
    koiter_circle,
    per_mode_strain,
    per_mode_strain_full,
    sweep,
)
from .oracle import (
    AnsatzRatios,
    KornRatios,
    ModePencil,
    RadialDiscretization,
    ansatz_ratios,
    assemble_pencil,
    korn_mode_scan,
    min_rayleigh,
)
from .modes import BucklingModeSpec, DisplacementField, quotient_ratio, synthesize

__version__ = "0.1.0"

__all__ = [
    "AnsatzRatios",
    "BucklingModeSpec",
    "BucklingResult",
    "CriticalLoadProblem",
    "DisplacementField",
    "FourierMode",
    "IsotropicElasticity",
    "KornRatios",
    "ModePencil",
    "RadialDiscretization",
    "ShellGeometry",
    "StVenantKirchhoff",
    "SymStrain",
    "WaveNumbers",
    "ansatz_ratios",
    "assemble_pencil",
    "coercivity_bound",
    "energy_density",
    "koiter_circle",
    "korn_mode_scan",
    "linearized_displacement_slope",
    "min_rayleigh",
    "optimal_mode",
    "per_mode_strain",
    "per_mode_strain_full",
    "quotient_ratio",
    "solve_radial_stretch",
    "strain_amplitudes",
    "sweep",
    "synthesize",
]

"""Buckling of axially compressed circular cylindrical shells.

Closed-form reduction (Fourier modes -> radial linearization -> 2x2
quadratic minimization -> Koiter circle) with an independent discretized
3D-elasticity oracle for every step.
"""

from .material import IsotropicElasticity, SymStrain, coercivity_bound, energy_density
from .spectral import (
    FourierMode,
    LinearizedMode,
    ShellGeometry,
    WaveNumbers,
    as_fourier,
    linearize,
    optimal_fr_slope,
    optimal_mode,
    simplified_strain,
    strain_amplitudes,
)
from .trivial_branch import (
    StVenantKirchhoff,
    linearized_displacement_slope,
    solve_radial_stretch,
    trivial_stress,
)
from .critical_load import (
    BucklingResult,
    CriticalLoadProblem,
    classical_strain,
    classical_strain_at,
    koiter_circle,
    per_mode_strain,
    per_mode_strain_full,
    q_forms,
    sweep,
)
from .oracle import (
    AnsatzRatios,
    KornEstimate,
    ModePencil,
    RadialDiscretization,
    ansatz_ratios,
    assemble_pencil,
    equivalence_gap,
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
    "KornEstimate",
    "LinearizedMode",
    "ModePencil",
    "RadialDiscretization",
    "ShellGeometry",
    "StVenantKirchhoff",
    "SymStrain",
    "WaveNumbers",
    "ansatz_ratios",
    "as_fourier",
    "assemble_pencil",
    "classical_strain",
    "classical_strain_at",
    "coercivity_bound",
    "energy_density",
    "equivalence_gap",
    "koiter_circle",
    "korn_mode_scan",
    "linearize",
    "linearized_displacement_slope",
    "min_rayleigh",
    "optimal_fr_slope",
    "optimal_mode",
    "per_mode_strain",
    "per_mode_strain_full",
    "q_forms",
    "quotient_ratio",
    "simplified_strain",
    "solve_radial_stretch",
    "strain_amplitudes",
    "sweep",
    "synthesize",
    "trivial_stress",
]

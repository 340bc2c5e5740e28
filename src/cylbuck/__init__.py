"""Buckling of axially compressed circular cylindrical shells.

Closed-form reduction (Fourier modes -> radial linearization -> 2x2
quadratic minimization -> Koiter circle) with an independent discretized
3D-elasticity oracle for every step.  The oracle is ``cylbuck.oracle``; it
loads scipy.linalg, and ``import cylbuck`` loads numpy only.
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
    sweep,
)
from .modes import BucklingModeSpec, DisplacementField, quotient_ratio, synthesize

__version__ = "0.1.0"

__all__ = [
    "BucklingModeSpec",
    "BucklingResult",
    "CriticalLoadProblem",
    "DisplacementField",
    "FourierMode",
    "IsotropicElasticity",
    "ShellGeometry",
    "StVenantKirchhoff",
    "SymStrain",
    "WaveNumbers",
    "coercivity_bound",
    "energy_density",
    "koiter_circle",
    "linearized_displacement_slope",
    "optimal_mode",
    "per_mode_strain",
    "quotient_ratio",
    "solve_radial_stretch",
    "strain_amplitudes",
    "sweep",
    "synthesize",
]

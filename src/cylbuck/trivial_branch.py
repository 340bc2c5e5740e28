"""Pre-buckled homogeneous state of the axially compressed shell.

The compressed configuration stretches the cross-section radially by a
factor ``1 + a(lambda)`` while the axis contracts by ``1 - lambda``.  The
stretch ``a`` is fixed by zero traction on the lateral faces, which for a
frame-indifferent isotropic energy reduces to one scalar equation on the
diagonal Cauchy-Green tensor

    C = diag((1+a)^2, (1+a)^2, (1-lambda)^2).

For the St. Venant-Kirchhoff energy that equation is linear in
``c1 = (1+a)^2``, with the exact root ``c1 = 1 + nu * lambda * (2 - lambda)``.
To linear order ``a(lambda) = nu * lambda``, independent of the particular
hyperelastic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoRoot
from .material import IsotropicElasticity

# central-difference step of a'(0): balances truncation against round-off
_SLOPE_STEP = 1e-6


@dataclass(frozen=True)
class StVenantKirchhoff:
    """St. Venant-Kirchhoff energy W(C) = lam/8 tr(C-I)^2 + mu/4 |C-I|^2.

    ``residual_rr`` returns the (r,r) component of dW/dC on a diagonal
    Cauchy-Green tensor diag(c1, c1, c3); the lateral traction-free condition
    is residual_rr == 0.
    """

    elastic: IsotropicElasticity

    def residual_rr(self, c1: float, c3: float) -> float:
        lam = self.elastic.lame_lambda
        mu = self.elastic.mu
        tr = 2.0 * (c1 - 1.0) + (c3 - 1.0)
        return 0.25 * lam * tr + 0.5 * mu * (c1 - 1.0)


def solve_radial_stretch(model: StVenantKirchhoff, lam: float) -> float:
    """Radial stretch ``a`` that zeroes ``model.residual_rr`` at axial strain lam.

    ``residual_rr(c1, c3) = 0`` gives ``c1 - 1 = nu * lam * (2 - lam)``, and
    ``a = (c1 - 1) / (1 + sqrt(c1))`` is ``sqrt(c1) - 1`` without its
    cancellation at small lam.  Raises ValueError for a non-finite lam, NoRoot
    when ``c1 <= 0`` (no real stretch) and OverflowError when ``c1`` overflows.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    d = model.elastic.nu * lam * (2.0 - lam)
    if 1.0 + d <= 0.0:
        raise NoRoot(f"(1+a)^2 = {1.0 + d:.3e} <= 0: no real radial stretch (lambda={lam})")
    if d == math.inf:
        raise OverflowError(f"radial stretch overflows at lambda={lam}")
    return d / (1.0 + math.sqrt(1.0 + d))


def linearized_displacement_slope(model: StVenantKirchhoff) -> float:
    """a'(0) by central finite difference; equals Poisson's ratio."""
    a_plus = solve_radial_stretch(model, _SLOPE_STEP)
    a_minus = solve_radial_stretch(model, -_SLOPE_STEP)
    return (a_plus - a_minus) / (2.0 * _SLOPE_STEP)

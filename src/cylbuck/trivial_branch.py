"""Pre-buckled homogeneous state of the axially compressed shell.

The compressed configuration stretches the cross-section radially by a
factor ``1 + a(lambda)`` while the axis contracts by ``1 - lambda``.  The
stretch ``a`` is fixed by zero traction on the lateral faces, which for a
frame-indifferent isotropic energy reduces to one scalar equation on the
diagonal Cauchy-Green tensor

    C = diag((1+a)^2, (1+a)^2, (1-lambda)^2).

To linear order ``a(lambda) = nu * lambda``, independent of the particular
hyperelastic model; the associated linear elastic stress is the uniaxial
compression ``-E e_z (x) e_z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoRoot, NonConvergence
from .material import IsotropicElasticity, SymStrain

_MAX_ITER = 200
_XTOL = 1e-15
_RTOL = 8.9e-16
_RESIDUAL_TOL = 1e-12


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


def _residual(model, lam: float, a: float) -> float:
    c1 = (1.0 + a) ** 2
    c3 = (1.0 - lam) ** 2
    return model.residual_rr(c1, c3)


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float) -> float:
    """Brent's root of f on [xpre, xcur], where f takes the nonzero values
    fpre and fcur of opposite signs.

    Step for step the iteration of scipy's ``brentq.c`` (so the same roots,
    bit for bit): inverse quadratic or secant steps, bisection whenever a
    step is not short enough, and the tolerance 2 * delta with
    delta = (_XTOL + _RTOL |x|) / 2.  Raises RuntimeError after _MAX_ITER
    steps and ValueError on a NaN function value, as scipy does.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {_MAX_ITER} iterations.")


def solve_radial_stretch(model, lam: float, bracket=(-0.5, 0.5)) -> float:
    """Root of the lateral traction condition near a = 0.

    Brent iteration on the caller's bracket, then a residual check at
    1e-12.  Raises NoRoot when the residual does not change sign on the
    bracket and NonConvergence when the iteration cap (200) is hit or the
    polished root fails the residual tolerance.
    """
    lo, hi = bracket
    f_lo = _residual(model, lam, lo)
    f_hi = _residual(model, lam, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise ValueError(f"residual is NaN on bracket {bracket} (lambda={lam})")
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NoRoot(f"residual has no sign change on bracket {bracket} (lambda={lam})")
    try:
        root = _brentq(lambda a: _residual(model, lam, a), lo, hi, f_lo, f_hi)
    except RuntimeError as exc:
        raise NonConvergence(str(exc)) from exc
    # Newton polish with a finite-difference slope; the Brent root is already
    # at machine precision in a, this guards the residual-level contract.
    for _ in range(3):
        res = _residual(model, lam, root)
        if abs(res) <= _RESIDUAL_TOL:
            return root
        step = 1e-7 * max(1.0, abs(root))
        slope = (_residual(model, lam, root + step) - _residual(model, lam, root - step)) / (
            2.0 * step
        )
        if slope == 0.0:
            break
        root -= res / slope
    res = _residual(model, lam, root)
    if abs(res) > _RESIDUAL_TOL:
        raise NonConvergence(f"residual {res:.3e} above tolerance after polish")
    return root


def linearized_displacement_slope(model, step: float = 1e-6) -> float:
    """a'(0) by central finite difference; equals Poisson's ratio.

    The default step balances truncation against round-off at double
    precision.
    """
    a_plus = solve_radial_stretch(model, step)
    a_minus = solve_radial_stretch(model, -step)
    return (a_plus - a_minus) / (2.0 * step)


def trivial_stress(elastic: IsotropicElasticity) -> SymStrain:
    """Linear elastic stress of the trivial branch: uniaxial -E along z.

    Independent of the slenderness h.
    """
    return SymStrain(zz=-elastic.E)

"""Critical strain from the finite-dimensional quadratic minimization.

After restriction to linearized single Fourier modes and pointwise
elimination of the radial slope, the per-mode critical strain reduces to an
unconstrained minimization of a positive-definite quadratic in the two
amplitudes (a_theta, a_z):

    strain(h; m, n) = min_{a}  [ Q0(a) + (h^2/12) Q1(a) + (h^4/80) Q2(a) ]
                               / ( 2 (1+nu) mhat^2 )

where the three quadratic forms arise as the r^0, r^2 and r^4 moments of the
wall integrand (mhat = pi m / L everywhere).  The reduced objective keeps
Q0 + (h^2/12) Q1s with Q1s dropping the signed cross term of Q1; the two
minima bracket each other within factors 1 -+ (h + h^2).

No symbolic rational expression for the minimizer is tabulated anywhere;
the 2x2 linear system from the gradient is solved exactly at runtime
instead, which is both simpler and directly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .errors import EmptySet, SingularSystem, WindowTooSmall
from .material import IsotropicElasticity
from .spectral import ShellGeometry, WaveNumbers


def classical_strain_at(h: float, nu: float) -> float:
    """Classical asymptotic critical strain h / sqrt(3 (1 - nu^2))."""
    return h / math.sqrt(3.0 * (1.0 - nu * nu))


@dataclass(frozen=True)
class CriticalLoadProblem:
    """Geometry + material + the integer sweep window.

    The window caps scale like 1/sqrt(h) so the Koiter circle (continuous
    radius R = 1/sqrt(2 lambda_star)) is contained with the given margin
    factor.
    """

    geom: ShellGeometry
    elastic: IsotropicElasticity
    margin: float = 3.0
    window_override: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not self.margin >= 1.0:
            raise ValueError("margin factor must be >= 1")

    @property
    def H(self) -> float:
        return self.geom.h**2 / 12.0

    @property
    def lambda_star(self) -> float:
        return classical_strain_at(self.geom.h, self.elastic.nu)

    @property
    def koiter_radius(self) -> float:
        """Radius of the circle (mhat - R)^2 + n^2 = R^2 in the (mhat, n) plane."""
        return 1.0 / math.sqrt(2.0 * self.lambda_star)

    def window(self) -> Tuple[int, int]:
        """(m_max, n_max); the circle spans mhat <= 2R and n <= R."""
        if self.window_override is not None:
            return self.window_override
        R = self.koiter_radius
        m_max = max(8, math.ceil(self.margin * 2.0 * R * self.geom.L / math.pi))
        n_max = max(8, math.ceil(self.margin * R))
        return m_max, n_max

    def wave_numbers(self, m: int, n: int) -> WaveNumbers:
        return WaveNumbers(m=m, n=n, L=self.geom.L)

    def window_pairs(self) -> Iterator[WaveNumbers]:
        """Deterministic scan order: n outer ascending, m inner ascending."""
        m_max, n_max = self.window()
        for n in range(0, n_max + 1):
            for m in range(1, m_max + 1):
                yield self.wave_numbers(m, n)


class QForms(NamedTuple):
    q0: float
    q1: float
    q1_simplified: float
    q2: float


class _Quad2:
    """Quadratic q(a) = a.M.a + 2 b.a + c over a = (a_theta, a_z)."""

    __slots__ = ("m00", "m01", "m11", "b0", "b1", "c")

    def __init__(self):
        self.m00 = self.m01 = self.m11 = 0.0
        self.b0 = self.b1 = 0.0
        self.c = 0.0

    def add_square(self, w: float, c0: float, g0: float, g1: float):
        """Accumulate w * (c0 + g0 a0 + g1 a1)^2."""
        self.m00 += w * g0 * g0
        self.m01 += w * g0 * g1
        self.m11 += w * g1 * g1
        self.b0 += w * c0 * g0
        self.b1 += w * c0 * g1
        self.c += w * c0 * c0

    def add_product(self, w: float, f, g):
        """Accumulate w * (f0 + f.a)(g0 + g.a) for affine f, g."""
        f0, f1, f2 = f
        g0, g1, g2 = g
        self.m00 += w * f1 * g1
        self.m01 += w * 0.5 * (f1 * g2 + f2 * g1)
        self.m11 += w * f2 * g2
        self.b0 += w * 0.5 * (f0 * g1 + g0 * f1)
        self.b1 += w * 0.5 * (f0 * g2 + g0 * f2)
        self.c += w * f0 * g0

    def add(self, other: "_Quad2", w: float = 1.0):
        self.m00 += w * other.m00
        self.m01 += w * other.m01
        self.m11 += w * other.m11
        self.b0 += w * other.b0
        self.b1 += w * other.b1
        self.c += w * other.c

    def value(self, a0: float, a1: float) -> float:
        return (
            self.m00 * a0 * a0
            + 2.0 * self.m01 * a0 * a1
            + self.m11 * a1 * a1
            + 2.0 * (self.b0 * a0 + self.b1 * a1)
            + self.c
        )

    def minimize(self) -> Tuple[float, float, float]:
        """Exact minimizer via the 2x2 gradient system; checks PD minors."""
        det = self.m00 * self.m11 - self.m01 * self.m01
        if self.m00 <= 0.0 or det <= 1e-14 * self.m00 * self.m11:
            raise SingularSystem(
                f"quadratic not positive definite (m00={self.m00:.3e}, det={det:.3e})"
            )
        a0 = (-self.b0 * self.m11 + self.b1 * self.m01) / det
        a1 = (-self.b1 * self.m00 + self.b0 * self.m01) / det
        return self.c + self.b0 * a0 + self.b1 * a1, a0, a1

    def gradient(self, a0: float, a1: float) -> Tuple[float, float]:
        return (
            2.0 * (self.m00 * a0 + self.m01 * a1 + self.b0),
            2.0 * (self.m01 * a0 + self.m11 * a1 + self.b1),
        )


def _beta(elastic: IsotropicElasticity) -> float:
    """2 Lambda / (Lambda + 2) = 2 nu / (1 - nu)."""
    return 2.0 * elastic.nu / (1.0 - elastic.nu)


def _q0_quad(mh: float, n: float, beta: float) -> _Quad2:
    q = _Quad2()
    q.add_square(beta, 1.0, n, mh)      # trace term (1 + n a_theta + mhat a_z)^2
    q.add_square(2.0, 1.0, n, 0.0)      # hoop
    q.add_square(2.0, 0.0, 0.0, mh)     # axial
    q.add_square(1.0, 0.0, mh, n)       # theta-z shear
    return q


def _q1s_quad(mh: float, n: float, beta: float) -> _Quad2:
    q = _Quad2()
    q.add_square(beta, mh * mh + n * n, n, 0.0)
    q.add_square(2.0, n * n, n, 0.0)
    q.c += 2.0 * mh**4
    q.add_square(4.0, mh * n, mh, 0.0)
    return q


def _q1_cross(mh: float, n: float) -> Tuple[Tuple[float, float, float], Tuple[float, float, float]]:
    # 2 mhat (a_theta + n)(mhat a_theta + n a_z)
    return (mh * n, mh, 0.0), (0.0, mh, n)


def _q2_quad(mh: float, n: float) -> _Quad2:
    q = _Quad2()
    q.add_square(1.0, mh * n, mh, 0.0)
    return q


def q_forms(
    wn: WaveNumbers, a_theta: float, a_z: float, elastic: IsotropicElasticity
) -> QForms:
    """Evaluate the four wall-moment quadratic forms at given amplitudes."""
    mh, n = wn.m_hat, float(wn.n)
    beta = _beta(elastic)
    q0 = _q0_quad(mh, n, beta).value(a_theta, a_z)
    q1s = _q1s_quad(mh, n, beta).value(a_theta, a_z)
    cross = _Quad2()
    cross.add_product(2.0, *_q1_cross(mh, n))
    q1 = q1s + cross.value(a_theta, a_z)
    q2 = _q2_quad(mh, n).value(a_theta, a_z)
    return QForms(q0=q0, q1=q1, q1_simplified=q1s, q2=q2)


class ModeMinimum(NamedTuple):
    value: float
    a_theta: float
    a_z: float


def q0_argmin_az(wn: WaveNumbers, a_theta: float, elastic: IsotropicElasticity) -> float:
    """Exact minimizer of the leading form Q0 over a_z at frozen a_theta."""
    q = _q0_quad(wn.m_hat, float(wn.n), _beta(elastic))
    return -(q.b1 + q.m01 * a_theta) / q.m11


def mode_strain_at(
    elastic: IsotropicElasticity,
    wn: WaveNumbers,
    h: float,
    *,
    reduced: bool = True,
) -> ModeMinimum:
    """Exact amplitude minimization at slenderness h (h = 0 allowed).

    reduced=True keeps Q0 + (h^2/12) Q1s; reduced=False the full
    Q0 + (h^2/12) Q1 + (h^4/80) Q2.
    """
    mh, n = wn.m_hat, float(wn.n)
    beta = _beta(elastic)
    H = h * h / 12.0
    obj = _q0_quad(mh, n, beta)
    obj.add(_q1s_quad(mh, n, beta), H)
    if not reduced:
        cross = _Quad2()
        cross.add_product(2.0, *_q1_cross(mh, n))
        obj.add(cross, H)
        obj.add(_q2_quad(mh, n), h**4 / 80.0)
    value, a_theta, a_z = obj.minimize()
    scale = 2.0 * (1.0 + elastic.nu) * mh * mh
    return ModeMinimum(value / scale, a_theta, a_z)


def per_mode_strain(problem: CriticalLoadProblem, wn: WaveNumbers) -> ModeMinimum:
    """Per-(m,n) critical strain of the reduced objective (sweep objective)."""
    return mode_strain_at(problem.elastic, wn, problem.geom.h, reduced=True)


def per_mode_strain_full(problem: CriticalLoadProblem, wn: WaveNumbers) -> ModeMinimum:
    """Per-(m,n) critical strain keeping the cross term and the h^4 moment."""
    return mode_strain_at(problem.elastic, wn, problem.geom.h, reduced=False)


@dataclass(frozen=True)
class BucklingResult:
    """Winner of the integer sweep.

    ``strain`` is the reduced objective minimum; ``strain_full`` re-evaluates
    the unreduced objective at the same (m, n) for reporting.
    """

    strain: float
    m: int
    n: int
    m_hat: float
    a_theta: float
    a_z: float
    strain_full: float
    koiter_residual: float

    def __post_init__(self):
        if not self.strain > 0.0:
            raise ValueError("critical strain must be positive")


def sweep(problem: CriticalLoadProblem) -> BucklingResult:
    """Exhaustive integer minimization over the window.

    Scan order (n ascending, then m) plus strict improvement gives the
    deterministic tie-break: smallest n, then smallest m.  Raises
    WindowTooSmall when the winner touches the window boundary.
    """
    m_max, n_max = problem.window()
    best = None
    best_mn = None
    for wn in problem.window_pairs():
        mm = per_mode_strain(problem, wn)
        if best is None or mm.value < best.value:
            best = mm
            best_mn = wn
    assert best is not None and best_mn is not None
    if best_mn.m == m_max or best_mn.n == n_max:
        raise WindowTooSmall(
            f"sweep winner (m={best_mn.m}, n={best_mn.n}) on window boundary "
            f"(m_max={m_max}, n_max={n_max}); increase the margin factor"
        )
    full = per_mode_strain_full(problem, best_mn)
    mh = best_mn.m_hat
    residual = abs(mh / (mh * mh + best_mn.n**2) - math.sqrt(best.value / 2.0))
    return BucklingResult(
        strain=best.value,
        m=best_mn.m,
        n=best_mn.n,
        m_hat=mh,
        a_theta=best.a_theta,
        a_z=best.a_z,
        strain_full=full.value,
        koiter_residual=residual,
    )


def classical_strain(problem: CriticalLoadProblem) -> float:
    return problem.lambda_star


def continuous_mode_strain(problem: CriticalLoadProblem, m_hat: float, n: float) -> float:
    """Leading two-moment surrogate mhat^2/(mhat^2+n^2)^2 + H (mhat^2+n^2)^2 / ((1-nu^2) mhat^2).

    Its continuous minimum equals the classical strain, attained on the
    Koiter circle.
    """
    s = m_hat * m_hat + n * n
    H = problem.H
    nu = problem.elastic.nu
    return m_hat * m_hat / s**2 + H * s**2 / ((1.0 - nu * nu) * m_hat * m_hat)


def koiter_circle(problem: CriticalLoadProblem, rel_tol: float = 0.05) -> List[WaveNumbers]:
    """Integer pairs within relative distance rel_tol of the Koiter circle.

    Sorted by circle residual (ties: smaller n, then m).  Raises EmptySet when
    the tolerance admits no pair.
    """
    R = problem.koiter_radius
    found = []
    for wn in problem.window_pairs():
        residual = abs(math.hypot(wn.m_hat - R, float(wn.n)) - R) / R
        if residual <= rel_tol:
            found.append((residual, wn.n, wn.m, wn))
    if not found:
        raise EmptySet(f"no integer wave numbers within {rel_tol} of the Koiter circle")
    found.sort(key=lambda t: (t[0], t[1], t[2]))
    return [t[3] for t in found]

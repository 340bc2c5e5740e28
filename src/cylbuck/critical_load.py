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

import numpy as np

from .errors import EmptySet, SingularSystem, WindowTooSmall
from .material import IsotropicElasticity
from .spectral import ShellGeometry, WaveNumbers, window_pairs

# Window pairs per array chunk: whole rows (one n each) while a row fits, else
# one row cut into column slices, so a window scan holds at most _CHUNK_PAIRS
# pairs at a time, whatever the window's size.
_CHUNK_PAIRS = 1 << 16


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
        if not 1.0 <= self.margin < math.inf:
            raise ValueError(f"margin factor must be finite and >= 1, got {self.margin}")

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


class QForms(NamedTuple):
    q0: float
    q1: float
    q1_simplified: float
    q2: float


# A quadratic q(a) = a.M.a + 2 b.a + c over a = (a_theta, a_z) is the tuple
# (m00, m01, m11, b0, b1, c).  Each entry below sums the contributions of the
# squared terms in the order of the docstring.  Only +, -, * and / occur, which
# numpy rounds exactly as Python does, so one pair on floats and a chunk on
# arrays agree bit for bit; mhat^4 is passed in because numpy's array power
# does not round as Python's float power does.

def _q0(mh, n, beta):
    """Q0 = beta (1 + n a_t + mh a_z)^2 + 2 (1 + n a_t)^2 + 2 mh^2 a_z^2 + (mh a_t + n a_z)^2."""
    bn = beta * n
    return (
        bn * n + 2.0 * n * n + mh * mh,
        bn * mh + mh * n,
        beta * mh * mh + 2.0 * mh * mh + n * n,
        bn + 2.0 * n,
        beta * mh,
        beta + 2.0,
    )


def _q1s(mh, mh4, n, beta):
    """Q1s = beta (s + n a_t)^2 + 2 n^2 (n + a_t)^2 + 2 mh^4 + 4 mh^2 (n + a_t)^2, s = mh^2 + n^2."""
    s = mh * mh + n * n
    bs = beta * s
    nn = n * n
    mhn = mh * n
    return (
        beta * n * n + 2.0 * n * n + 4.0 * mh * mh,
        0.0,
        0.0,
        bs * n + 2.0 * nn * n + 4.0 * mhn * mh,
        0.0,
        bs * s + 2.0 * nn * nn + 2.0 * mh4 + 4.0 * mhn * mhn,
    )


def _q1_cross(mh, n):
    """The signed cross term Q1 - Q1s = 2 mh (a_t + n)(mh a_t + n a_z)."""
    mhn = mh * n
    return (2.0 * mh * mh, mhn, 0.0, mhn * mh, mhn * n, 0.0)


def _q2(mh, n):
    """Q2 = mh^2 (n + a_t)^2."""
    mhn = mh * n
    return (mh * mh, 0.0, 0.0, mhn * mh, 0.0, mhn * mhn)


def _weighted_sum(q, *terms):
    """q + w1 q1 + w2 q2 + ... over the (w, q) terms, entry by entry, left to right."""
    for w, other in terms:
        q = tuple(a + w * b for a, b in zip(q, other))
    return q


def _value(q, a0, a1):
    m00, m01, m11, b0, b1, c = q
    return m00 * a0 * a0 + 2.0 * m01 * a0 * a1 + m11 * a1 * a1 + 2.0 * (b0 * a0 + b1 * a1) + c


def _minimize(q):
    """(min q, a_theta, a_z) from the 2x2 gradient system.

    Raises SingularSystem unless det > 1e-14 m00 m11 (scale-free positive
    definiteness); on arrays, for the first offending entry in row-major order.
    """
    m00, m01, m11, b0, b1, c = q
    det = m00 * m11 - m01 * m01
    singular = (m00 <= 0.0) | (det <= 1e-14 * m00 * m11)
    if singular is not False and np.any(singular):  # np.any costs ~5 us on a Python bool
        first = np.argmax(singular)
        raise SingularSystem(
            f"quadratic not positive definite (m00={np.ravel(m00)[first]:.3e}, "
            f"det={np.ravel(det)[first]:.3e})"
        )
    a0 = (-b0 * m11 + b1 * m01) / det
    a1 = (-b1 * m00 + b0 * m01) / det
    return c + b0 * a0 + b1 * a1, a0, a1


def _beta(elastic: IsotropicElasticity) -> float:
    """2 Lambda / (Lambda + 2) = 2 nu / (1 - nu)."""
    return 2.0 * elastic.nu / (1.0 - elastic.nu)


def q_forms(
    wn: WaveNumbers, a_theta: float, a_z: float, elastic: IsotropicElasticity
) -> QForms:
    """Evaluate the four wall-moment quadratic forms at given amplitudes."""
    mh, n = wn.m_hat, float(wn.n)
    beta = _beta(elastic)
    q1s = _value(_q1s(mh, mh**4, n, beta), a_theta, a_z)
    return QForms(
        q0=_value(_q0(mh, n, beta), a_theta, a_z),
        q1=q1s + _value(_q1_cross(mh, n), a_theta, a_z),
        q1_simplified=q1s,
        q2=_value(_q2(mh, n), a_theta, a_z),
    )


class ModeMinimum(NamedTuple):
    value: float
    a_theta: float
    a_z: float


def q0_argmin_az(wn: WaveNumbers, a_theta: float, elastic: IsotropicElasticity) -> float:
    """Exact minimizer of the leading form Q0 over a_z at frozen a_theta."""
    _, m01, m11, _, b1, _ = _q0(wn.m_hat, float(wn.n), _beta(elastic))
    return -(b1 + m01 * a_theta) / m11


def _mode_minimum(mh, mh4, n, elastic: IsotropicElasticity, h: float, reduced: bool) -> ModeMinimum:
    """mode_strain_at for floats (one pair) or broadcast arrays (a chunk of pairs)."""
    beta = _beta(elastic)
    H = h * h / 12.0
    terms = [(H, _q1s(mh, mh4, n, beta))]
    if not reduced:
        terms += [(H, _q1_cross(mh, n)), (h**4 / 80.0, _q2(mh, n))]
    value, a_theta, a_z = _minimize(_weighted_sum(_q0(mh, n, beta), *terms))
    return ModeMinimum(value / (2.0 * (1.0 + elastic.nu) * mh * mh), a_theta, a_z)


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
    mh = wn.m_hat
    return _mode_minimum(mh, mh**4, float(wn.n), elastic, h, reduced)


def per_mode_strain(problem: CriticalLoadProblem, wn: WaveNumbers) -> ModeMinimum:
    """Per-(m,n) critical strain of the reduced objective (sweep objective)."""
    return mode_strain_at(problem.elastic, wn, problem.geom.h, reduced=True)


def per_mode_strain_full(problem: CriticalLoadProblem, wn: WaveNumbers) -> ModeMinimum:
    """Per-(m,n) critical strain keeping the cross term and the h^4 moment."""
    return mode_strain_at(problem.elastic, wn, problem.geom.h, reduced=False)


def window_strains(
    problem: CriticalLoadProblem,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, ModeMinimum]]:
    """Reduced minima of the whole window as (n, m, m_hat, minima), a chunk at a time.

    ``n`` is a column of consecutive indices n, ``m`` a row of consecutive
    indices m and ``m_hat`` the matching row pi m / L; entry [i, j] of each
    ``minima`` array belongs to the pair (m[j], n[i]).  A chunk holds whole
    rows (m = 1 .. m_max) when a row fits in ``_CHUNK_PAIRS``, else a slice of
    one row.  Flattened in order, the chunks follow the scan order of
    ``spectral.window_pairs``.  Every entry equals ``per_mode_strain`` of its
    pair bit for bit.
    """
    m_max, n_max = problem.window()
    cols = min(m_max, _CHUNK_PAIRS)
    rows = max(1, _CHUNK_PAIRS // m_max)

    def m_slices():
        for m0 in range(1, m_max + 1, cols):
            m = np.arange(m0, min(m0 + cols, m_max + 1))
            m_hat = math.pi * m / problem.geom.L
            # Python's float power, as in mode_strain_at
            yield m, m_hat, np.array([x**4 for x in m_hat.tolist()])

    # whole rows share one slice; a cut row recomputes its slices, so memory stays bounded
    whole_rows = list(m_slices()) if cols == m_max else None
    for n0 in range(0, n_max + 1, rows):
        n = np.arange(n0, min(n0 + rows, n_max + 1), dtype=float)[:, None]
        for m, m_hat, m_hat4 in whole_rows or m_slices():
            yield n, m, m_hat, _mode_minimum(m_hat, m_hat4, n, problem.elastic, problem.geom.h, True)


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

    The first minimum in scan order (n ascending, then m) wins, which gives
    the deterministic tie-break: smallest n, then smallest m.  Raises
    SingularSystem when that minimum is not positive (every other entry is at
    least as large) and WindowTooSmall when the winner touches the window
    boundary.
    """
    m_max, n_max = problem.window()
    best = None
    for n, m, _, minima in window_strains(problem):
        i = int(np.argmin(minima.value))  # row-major: the chunk's first minimum in scan order
        if best is None or minima.value.flat[i] < best.value:
            row, col = divmod(i, m.size)
            wn = problem.wave_numbers(int(m[col]), int(n[row, 0]))
            best = ModeMinimum(*(float(a.flat[i]) for a in minima))
    assert best is not None
    if not best.value > 0.0:
        raise SingularSystem(
            f"reduced minimum {best.value:.3e} at (m={wn.m}, n={wn.n}) is not positive"
        )
    if wn.m == m_max or wn.n == n_max:
        raise WindowTooSmall(
            f"sweep winner (m={wn.m}, n={wn.n}) on window boundary "
            f"(m_max={m_max}, n_max={n_max}); increase the margin factor"
        )
    full = per_mode_strain_full(problem, wn)
    mh = wn.m_hat
    residual = abs(mh / (mh * mh + wn.n**2) - math.sqrt(best.value / 2.0))
    return BucklingResult(
        strain=best.value,
        m=wn.m,
        n=wn.n,
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


def circle_residual(wn: WaveNumbers, R: float) -> float:
    """Relative distance |hypot(mhat - R, n) - R| / R of a pair from the Koiter circle of radius R."""
    return abs(math.hypot(wn.m_hat - R, wn.n) - R) / R


def koiter_circle(problem: CriticalLoadProblem, rel_tol: float = 0.05) -> List[WaveNumbers]:
    """Integer pairs within relative distance rel_tol of the Koiter circle.

    Sorted by circle residual (ties: smaller n, then m).  Raises EmptySet when
    the tolerance admits no pair.
    """
    R = problem.koiter_radius
    found = []
    for wn in window_pairs(problem.window(), problem.geom.L):
        residual = circle_residual(wn, R)
        if residual <= rel_tol:
            found.append((residual, wn.n, wn.m, wn))
    if not found:
        raise EmptySet(f"no integer wave numbers within {rel_tol} of the Koiter circle")
    found.sort(key=lambda t: (t[0], t[1], t[2]))
    return [t[3] for t in found]

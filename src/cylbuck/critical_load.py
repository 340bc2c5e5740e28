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

The reduced minimum is at least (1 - delta) times the continuous surrogate
whose minimum is the classical strain (``surrogate_deficit``, with its
proof), so the integer sweep evaluates only the annulus around the Koiter
circle that this bound cannot exclude, and returns what the whole window
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import EmptySet, SingularSystem, WindowTooSmall
from .material import IsotropicElasticity
from .spectral import ShellGeometry, WaveNumbers

# Window pairs per array chunk: consecutive pairs in scan order, whole rows or
# parts of them, so a window scan holds at most _CHUNK_PAIRS pairs at a time,
# whatever the window's size.
_CHUNK_PAIRS = 1 << 16
# Every window holds the axial indices m = 1 .. m_max, m_max >= 8, taken as
# int64 and, in m_hat = pi m / L, as doubles: m_max <= 2**53 keeps each m exact
# in both.  m_hat <= 2**200 keeps m_hat**4, the objective's largest power, at
# most 2**800, which leaves 2**224 for the factors of n, h and the margin beside
# it before a double overflows.
_M_MAX = 2.0**53
_M_HAT_MAX = 2.0**200


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
        if not math.pi * 8 / self.geom.L <= _M_HAT_MAX:
            raise ValueError(
                f"L={self.geom.L!r} is too short: the axial wave numbers pi m / L of "
                f"m = 1 .. 8 exceed 2**200"
            )

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
        """(m_max, n_max); the circle spans mhat <= 2R and n <= R.

        Raises ValueError when m_max would exceed 2**53 (L too long for h)."""
        if self.window_override is not None:
            return self.window_override
        R = self.koiter_radius
        m_top = self.margin * 2.0 * R * self.geom.L / math.pi
        if not m_top <= _M_MAX:
            raise ValueError(
                f"L={self.geom.L!r} is too long at h={self.geom.h!r}: the window would "
                f"span {m_top:.3g} axial indices m, more than 2**53"
            )
        m_max = max(8, math.ceil(m_top))
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


# Relative rounding of a computed reduced minimum, in units of 2**-53 times the
# size (beta + 2)(1 + H s^2) / (2 (1 + nu) mhat^2) of the objective's constant
# term, which the minimization cancels down to the minimum.  The largest seen on
# 20 000 random pairs (nu in [-0.45, 0.45], h in [1e-9, 0.3], L in [0.5, 1e6],
# m up to 1e5, n up to 3e4) was 5.9; a tier-1 test holds it to a quarter of
# this margin against rational arithmetic.
_ROUNDING_ULPS = 64.0
# Relative widening of the pruning level before its circles are intersected with
# the rows.  It moves every edge of the rows' ranges outwards by about half as
# much, relative, which dominates the rounding of those edges, the cancellation
# under their square roots near tangency included.
_ROOT_SLACK = 1e-9


def surrogate_deficit(problem: CriticalLoadProblem, m_hat):
    """delta(mhat) = A / mhat + B + E / mhat^2, decreasing in mhat, such that the
    computed reduced minimum of every pair (m, n) of axial wave number mhat is at
    least (1 - delta(mhat)) continuous_mode_strain(problem, mhat, n).

    Proof for the exact minimum.  Write t = a_theta, s = mhat^2 + n^2,
    N = 2 (1 + nu) mhat^2, beta + 2 = 2 / (1 - nu), and note beta + 1 > 0.
    Minimizing Q0 over a_z at fixed t leaves q0min + S0 (t - t0)^2 with

        q0min = N mhat^2 / s^2,      S0 = (beta + 2) s^2 / ((beta + 2) mhat^2 + n^2),
        t0 = -n ((3 beta + 4) mhat^2 + (beta + 2) n^2) / ((beta + 2) s^2) <= 0,

    and Q1s depends on t alone: Q1s(t) = (beta + 2) s^2 + 2 b t + k t^2 with
    b = n ((beta + 2) s + 2 mhat^2) >= 0 and k >= 0.  As N surrogate is
    q0min + H (beta + 2) s^2, dropping k t^2 and minimizing over t gives

        N reduced >= N surrogate + 2 H b t0 - H^2 b^2 / S0.

    With phi = mhat / s, x = mhat phi = mhat^2 / s <= 1 and c = H / (1 - nu^2),
    surrogate = phi^2 + c / phi^2, whose second term is H (beta + 2) s^2 / N,
    and n^2 / s^2 <= phi / mhat.  With a = 2 / (beta + 2), g = 2 (beta + 1) /
    (beta + 2) and kappa = a + g + a g, so that (1 + a x)(1 + g x) <= 1 + kappa x,

        -2 H b t0 / N = (c / phi^2) 2 (n^2 / s^2)(1 + a x)(1 + g x)
                     <= 2 c / (mhat phi) + 2 c kappa,
        H^2 b^2 / (S0 N) <= (c / phi^2) H (1 + a)^2 max(beta + 2, 1).

    Divided by the surrogate, with phi / (phi^4 + c) <= 3^(3/4) / (4 c^(3/4))
    and phi^2 / (phi^4 + c) <= 1 / (2 sqrt c), the deficit is at most A / mhat
    plus the first two terms of B:

        A = 3^(3/4) c^(1/4) / 2,   B = kappa sqrt(c) + H (1 + a)^2 max(beta + 2, 1) + eps,

    where A / mhat (0.63 sqrt(h) / mhat at nu = 0.3) is the deficit near the
    origin end of the Koiter circle: at L = pi the window's smallest
    reduced / surrogate, at m = 1, lies within 5 % of A at h = 1e-3 and within
    0.2 % at h = 1e-6.  On n = 0, b = t0 = 0 and reduced equals the surrogate.

    Rounding.  The computed minimum is within eps (beta + 2)(1 + H s^2) / N of
    the exact one, eps = _ROUNDING_ULPS 2^-53.  As surrogate >= lambda_star and
    H (beta + 2) s^2 / N <= surrogate, that is at most (eps + E / mhat^2)
    surrogate with E = eps (beta + 2) / (2 (1 + nu) lambda_star).
    """
    nu, H = problem.elastic.nu, problem.H
    beta = _beta(problem.elastic)
    c = H / (1.0 - nu * nu)
    a, g = 2.0 / (beta + 2.0), 2.0 * (beta + 1.0) / (beta + 2.0)
    eps = _ROUNDING_ULPS * 2.0**-53
    A = 3.0**0.75 / 2.0 * c**0.25
    B = (a + g + a * g) * math.sqrt(c) + H * (1.0 + a) ** 2 * max(beta + 2.0, 1.0) + eps
    E = eps * (beta + 2.0) / (2.0 * (1.0 + nu) * problem.lambda_star)
    return A / m_hat + B + E / (m_hat * m_hat)


def _annulus_ranges(n, outer, inner, per_m, m_lo, m_hi, pad=0):
    """Integer m ranges of rows n in the closed disk ``outer`` but not in the
    open disk ``inner``, which lies inside it; mhat = per_m m.

    A disk is (centre, radius) with its centre on the mhat axis.  Returns
    (lo, hi), each of shape (len(n), 2): the left and the right arc of each
    row, widened by ``pad`` indices on both sides, clipped to [m_lo, m_hi]
    and disjoint (a row that misses the inner disk has one arc, the left one).
    An empty arc has lo > hi.
    """
    (co, ro), (ci, ri) = outer, inner
    wo = np.sqrt(np.maximum(ro * ro - n * n, 0.0))
    wi = np.sqrt(np.maximum(ri * ri - n * n, 0.0))
    holed = n < ri
    left = np.stack((co - wo, np.where(holed, ci - wi, co + wo)), axis=1)
    right = np.stack((np.where(holed, ci + wi, co + wo), co + wo), axis=1)
    edges = np.clip(np.stack((left, right), axis=1) / per_m, m_lo - 1 - pad, m_hi + 1 + pad)
    lo = np.ceil(edges[..., 0]).astype(np.int64) - pad
    hi = np.floor(edges[..., 1]).astype(np.int64) + pad
    lo[:, 1] = np.maximum(lo[:, 1], hi[:, 0] + 1)
    lo, hi = np.maximum(lo, m_lo), np.minimum(hi, m_hi)
    hi[n > ro] = m_lo - 1
    return lo, hi


def _pruned_ranges(problem: CriticalLoadProblem, ceiling: float):
    """The m ranges of each row n = 0 .. n_max that a positive ceiling cannot
    exclude, as (lo, hi) of shape (rows, 3): the columns below m1 whole, then
    the left and the right arc.

    On m >= m1 the deficit is at most delta = surrogate_deficit(pi m1 / L), so
    a pair whose computed minimum is at most the ceiling has surrogate <= T =
    ceiling / (1 - delta).  The surrogate depends on phi = mhat / (mhat^2 + n^2)
    alone, so that sublevel set is phi^2 in [x_lo, x_hi], the roots of
    x + c / x = T: the closed disk of radius 1 / (2 sqrt(x_lo)) centred that
    far out on the mhat axis, less the open disk of radius 1 / (2 sqrt(x_hi))
    placed likewise.  m1 runs over 1, 2, 4, ... (and m_max + 1, the whole
    window) while the whole columns alone keep fewer pairs than the best split
    so far; the split that keeps the fewest pairs wins (m1 = 1 on short
    shells, where delta is small already).
    """
    m_max, n_max = problem.window()
    per_m = math.pi / problem.geom.L
    n = np.arange(n_max + 1, dtype=float)
    c = problem.H / (1.0 - problem.elastic.nu ** 2)
    best = None
    for m1 in [1 << k for k in range(m_max.bit_length())] + [m_max + 1]:
        if best is not None and (m1 - 1) * n.size >= best[0]:
            break
        lo = np.ones((n.size, 3), dtype=np.int64)
        hi = np.zeros_like(lo)
        hi[:, 0] = m1 - 1
        if m1 <= m_max:
            delta = surrogate_deficit(problem, per_m * m1)
            if not delta < 1.0:
                continue
            T = ceiling * (1.0 + _ROOT_SLACK) / (1.0 - delta)
            x_hi = 0.5 * (T + math.sqrt(max(T * T - 4.0 * c, 0.0)))
            r_out, r_in = 0.5 / math.sqrt(c / x_hi), 0.5 / math.sqrt(x_hi)
            lo[:, 1:], hi[:, 1:] = _annulus_ranges(n, (r_out, r_out), (r_in, r_in), per_m, m1, m_max)
        kept = int(np.maximum(hi - lo + 1, 0).sum())
        if best is None or kept < best[0]:
            best = kept, lo, hi
    return best[1], best[2]


def _pair_minima(problem: CriticalLoadProblem, n: np.ndarray, m: np.ndarray):
    """(m_hat, minima) of the pairs (m[k], n[k]), each per_mode_strain bit for bit."""
    m_hat = math.pi * m / problem.geom.L
    m_hat4 = np.array([x**4 for x in m_hat.tolist()])  # Python's float power, as in mode_strain_at
    return m_hat, _mode_minimum(m_hat, m_hat4, n, problem.elastic, problem.geom.h, True)


def window_strains(
    problem: CriticalLoadProblem, ceiling: Optional[float] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, ModeMinimum]]:
    """Reduced minima of the window as flat arrays (n, m, m_hat, minima), a chunk at a time.

    Entry k of each array belongs to the pair (m[k], n[k]); a chunk holds at
    most ``_CHUNK_PAIRS`` pairs, and flattened in order the chunks follow the
    scan order of ``spectral.window_pairs``.  Every entry equals
    ``per_mode_strain`` of its pair bit for bit.

    ``ceiling=None`` (or one that is not positive) scans the whole window.  A
    positive ceiling scans only the pairs that ``surrogate_deficit`` cannot
    exclude (``_pruned_ranges``), in their rows' order; every pair whose
    computed minimum is at most the ceiling is among them.
    """
    m_max, n_max = problem.window()
    n = np.arange(n_max + 1, dtype=float)
    if ceiling is None or not ceiling > 0.0:
        lo, hi = np.ones((n.size, 1), dtype=np.int64), np.full((n.size, 1), m_max)
    else:
        lo, hi = _pruned_ranges(problem, ceiling)
    keep = hi >= lo  # row-major: the ranges in scan order
    n, lo, hi = np.broadcast_to(n[:, None], lo.shape)[keep], lo[keep], hi[keep]
    starts = np.concatenate(([0], np.cumsum(hi - lo + 1)))
    for k0 in range(0, int(starts[-1]), _CHUNK_PAIRS):
        k = np.arange(k0, min(k0 + _CHUNK_PAIRS, int(starts[-1])))
        r = np.searchsorted(starts, k, side="right") - 1
        m = lo[r] + (k - starts[r])
        yield (n[r], m, *_pair_minima(problem, n[r], m))


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


def _seed_ceiling(problem: CriticalLoadProblem) -> float:
    """Smallest computed minimum over the pairs nearest the Koiter circle: in
    each row n <= R, the m nearest each of its two crossings, within the window."""
    m_max, n_max = problem.window()
    R = problem.koiter_radius
    n = np.arange(min(n_max, math.floor(R)) + 1, dtype=float)
    w = np.sqrt(R * R - n * n)
    m = np.clip(np.rint(np.concatenate((R - w, R + w)) * problem.geom.L / math.pi), 1, m_max)
    _, minima = _pair_minima(problem, np.concatenate((n, n)), m.astype(np.int64))
    return float(np.min(minima.value))


def sweep(problem: CriticalLoadProblem) -> BucklingResult:
    """Integer minimization over the window.

    The first minimum in scan order (n ascending, then m) wins, which gives
    the deterministic tie-break: smallest n, then smallest m.  Only the pairs
    that the ceiling of ``_seed_ceiling`` cannot exclude are evaluated
    (``window_strains``); every pair whose computed minimum is at most that
    ceiling is among them, so the winner and its tie-break are those of the
    whole window.  Pruning cannot hide a ``_minimize`` guard either: with
    beta + 1 > 0, m00 m11 >= ((beta + 2)^2 + 1) mhat^2 n^2, so
    m01^2 / (m00 m11) <= (beta + 1)^2 / ((beta + 2)^2 + 1) < 9/17 for
    nu < 1/2, and every pair's det exceeds 8/17 m00 m11 > 0 in exact
    arithmetic.  Raises SingularSystem when that minimum is not positive
    (every other entry is at least as large) and WindowTooSmall when the
    winner touches the window boundary.
    """
    m_max, n_max = problem.window()
    best = None
    for n, m, _, minima in window_strains(problem, _seed_ceiling(problem)):
        i = int(np.argmin(minima.value))  # the chunk's first minimum in scan order
        if best is None or minima.value[i] < best.value:
            wn = problem.wave_numbers(int(m[i]), int(n[i]))
            best = ModeMinimum(*(float(a[i]) for a in minima))
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

    Only each row's band R (1 - rel_tol) <= hypot(mhat - R, n) <= R (1 + rel_tol)
    is enumerated, widened by one index on both sides; ``circle_residual``
    decides membership.  Sorted by circle residual (ties: smaller n, then m).
    Raises ValueError unless rel_tol is finite and >= 0, and EmptySet when the
    tolerance admits no pair.
    """
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {rel_tol}")
    R = problem.koiter_radius
    m_max, n_max = problem.window()
    L = problem.geom.L
    n = np.arange(min(n_max, math.floor(R * (1.0 + rel_tol))) + 1, dtype=float)
    outer, inner = (R, R * (1.0 + rel_tol)), (R, R * (1.0 - rel_tol))
    lo, hi = _annulus_ranges(n, outer, inner, math.pi / L, 1, m_max, pad=1)
    found = []
    for row, arcs in enumerate(zip(lo.tolist(), hi.tolist())):
        for first, last in zip(*arcs):
            for m in range(first, last + 1):
                wn = WaveNumbers(m=m, n=row, L=L)
                residual = circle_residual(wn, R)
                if residual <= rel_tol:
                    found.append((residual, wn.n, wn.m, wn))
    if not found:
        raise EmptySet(f"no integer wave numbers within {rel_tol} of the Koiter circle")
    found.sort(key=lambda t: (t[0], t[1], t[2]))
    return [t[3] for t in found]

"""Admissible two-term buckling modes and their Rayleigh quotient.

A single Fourier mode violates the clamped-in-rotation boundary conditions
(phi_theta must vanish at both ends).  Pairing the axial indices m and m+2
with opposite-sign theta profiles restores them exactly: the cos(mhat z)
factors agree at z = 0 and (same parity) at z = L, so the theta components
cancel there, while the z components vanish through their sine factors.

Each harmonic carries the asymptotically optimal amplitudes and the
energy-minimizing quadratic radial profile; its quotient against the
|phi_{r,z}|^2 destabilizing norm approaches the classical strain as h -> 0
when the wave numbers track the Koiter circle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .critical_load import CriticalLoadProblem
from .errors import OutputTooLarge, WindowTooSmall
from .spectral import (
    FourierMode,
    ShellGeometry,
    displacement,
    mode_energy,
    mode_phi_rz,
    optimal_mode,
)

# Points of the grid that synthesize samples: with the VTK writer streaming a
# z-plane at a time, `cylbuck mode` peaked at 417 MB for the 1.89 M points of
# h = 1e-5 (L = pi, nu = 0.3) and at 1.29 GB for the 7.53 M of h = 1e-6, about
# 220 and 172 bytes a point, so 8 M points stay near 1.4 GB.  That admits
# h = 1e-6 and refuses 1e-7 (30.4 M) and 1e-8 (125 M).
_GRID_POINTS_MAX = 8_000_000


@dataclass(frozen=True)
class BucklingModeSpec:
    """Selects the wave numbers m(h), n(h) of a problem from the scaling
    exponent alpha.

    The target axial wave number is (2R)^alpha with 2R = sqrt(2/lambda_star)
    the Koiter-circle diameter; n(h) is the nonnegative integer closest to
    the circle at that mhat (ties toward smaller n).  Both harmonics must lie
    inside the problem's sweep window (``check_window``).
    """

    problem: CriticalLoadProblem
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def m(self) -> int:
        target = math.sqrt(2.0 / self.problem.lambda_star) ** self.alpha * self.problem.geom.L / math.pi
        if target == math.inf:  # at most the window's m_top, so window() names L as too long
            self.problem.window()
        return max(1, round(target))

    @property
    def m_hat(self) -> float:
        return math.pi * self.m / self.problem.geom.L

    @property
    def n(self) -> int:
        R = self.problem.koiter_radius
        gap = self.m_hat * (2.0 * R - self.m_hat)
        if gap <= 0.0:
            return 0
        exact = math.sqrt(gap)
        lo = math.floor(exact)
        # ties toward smaller n
        return int(lo if exact - lo <= 0.5 else lo + 1)


def closed_form_a_z(nu: float, m_hat: float, n: int, a_theta: float) -> float:
    """The paper's closed-form axial amplitude at frozen a_theta (the minimizer
    of the leading wall moment over a_z)."""
    return -m_hat * (2.0 * nu + (nu + 1.0) * n * a_theta) / (
        2.0 * m_hat**2 + (1.0 - nu) * n**2
    )


def harmonics(spec: BucklingModeSpec) -> Tuple[FourierMode, FourierMode]:
    """The two signed harmonics (m, n) and (m+2, n).

    a_theta is fixed by the leading harmonic; each harmonic's own mhat enters
    its a_z and its energy-minimizing quadratic radial profile
    (:func:`spectral.optimal_mode`); the second harmonic is negated so the
    theta boundary traces cancel.
    """
    problem = spec.problem
    nu = problem.elastic.nu
    n = spec.n
    mh0 = spec.m_hat
    a_theta = -n * (n**2 + (nu + 2.0) * mh0**2) / (mh0**2 + n**2) ** 2
    out = []
    for m in (spec.m, spec.m + 2):
        wn = problem.wave_numbers(m, n)
        a_z = closed_form_a_z(nu, wn.m_hat, n, a_theta)
        out.append(optimal_mode(wn, a_theta, a_z, problem.elastic))
    first, second = out
    return first, FourierMode(wn=second.wn, fr=-second.fr, ftheta=-second.ftheta, fz=-second.fz)


def check_window(spec: BucklingModeSpec):
    """Both harmonics must sit inside the problem's sweep window."""
    m_max, n_max = spec.problem.window()
    if spec.m + 2 >= m_max or spec.n >= n_max:
        raise WindowTooSmall(
            f"harmonics (m={spec.m}, m+2) with n={spec.n} exceed window ({m_max}, {n_max})"
        )


@dataclass(frozen=True)
class DisplacementField:
    """Tensor-grid samples of the two-term displacement field."""

    r: np.ndarray
    theta: np.ndarray
    z: np.ndarray
    phi_r: np.ndarray
    phi_theta: np.ndarray
    phi_z: np.ndarray

    def scale(self) -> float:
        return max(
            float(np.max(np.abs(self.phi_r))),
            float(np.max(np.abs(self.phi_theta))),
            float(np.max(np.abs(self.phi_z))),
        )

    def boundary_trace_max(self) -> float:
        """Largest theta/z component magnitude on the end sections."""
        return max(
            float(np.max(np.abs(self.phi_theta[:, :, 0]))),
            float(np.max(np.abs(self.phi_theta[:, :, -1]))),
            float(np.max(np.abs(self.phi_z[:, :, 0]))),
            float(np.max(np.abs(self.phi_z[:, :, -1]))),
        )


def evaluate(spec: BucklingModeSpec, r, theta, z):
    """Displacement components on the broadcast product of the given arrays."""
    r = np.asarray(r, dtype=float)[:, None, None]
    theta = np.asarray(theta, dtype=float)[None, :, None]
    z = np.asarray(z, dtype=float)[None, None, :]
    fields = [np.zeros(np.broadcast_shapes(r.shape, theta.shape, z.shape)) for _ in range(3)]
    for mode in harmonics(spec):
        for f, part in zip(fields, displacement(mode, r, theta, z)):
            f += part
    return tuple(fields)


def _grid_points(spec: BucklingModeSpec, r_nodes: int) -> int:
    return r_nodes * (8 * spec.n + 16) * (8 * (spec.m + 2) + 16)


def _fits(spec: BucklingModeSpec, r_nodes: int) -> bool:
    """Whether synthesize takes spec: its grid fits the budget and its window holds both harmonics."""
    if _grid_points(spec, r_nodes) > _GRID_POINTS_MAX:
        return False
    try:
        check_window(spec)
    except WindowTooSmall:
        return False
    return True


def synthesize(spec: BucklingModeSpec, r_nodes: int = 9) -> DisplacementField:
    """Sample the two-term mode on a tensor grid.

    The grid resolves the oscillation with Nyquist margin: 8 n + 16 points
    on [0, 2 pi) in theta, 8 (m+2) + 16 on [0, L] in z.  Raises
    OutputTooLarge, before it allocates the grid, when the grid has more than
    _GRID_POINTS_MAX points, naming a larger h below 1 that synthesize takes:
    its grid fits and its window holds both harmonics (check_window).  The
    budget needs only m and n, so it comes before check_window at the given
    h, unless no h fits: then a window too small or too long for the given h
    is named by its own error.  A point count past 2**53 prints to 3 digits.
    """
    geom = spec.problem.geom
    points = _grid_points(spec, r_nodes)
    if points > _GRID_POINTS_MAX:
        steps = np.arange(1, 8 * math.ceil(-math.log10(geom.h)) + 1) / 8  # 10^(1/8) apart, up to h = 1
        larger = (
            BucklingModeSpec(dataclasses.replace(spec.problem, geom=ShellGeometry(h=h, L=geom.L)), spec.alpha)
            for h in (geom.h * 10.0 ** steps).tolist() if h < 1.0
        )
        fits = next((s.problem.geom.h for s in larger if _fits(s, r_nodes)), None)
        if fits is None:
            check_window(spec)
        raise OutputTooLarge(
            f"the mode grid at h={geom.h!r} has {points if points <= 2**53 else format(points, '.3g')} points, "
            f"more than the {_GRID_POINTS_MAX} that fit; "
            + (f"h = {fits:.3g} fits" if fits is not None else f"no h fits at L={geom.L!r}")
        )
    check_window(spec)
    r = np.linspace(geom.r_inner, geom.r_outer, r_nodes)
    theta = np.linspace(0.0, 2.0 * math.pi, 8 * spec.n + 16, endpoint=False)
    z = np.linspace(0.0, geom.L, 8 * (spec.m + 2) + 16)
    pr, pt, pz = evaluate(spec, r, theta, z)
    return DisplacementField(r=r, theta=theta, z=z, phi_r=pr, phi_theta=pt, phi_z=pz)


class QuotientBreakdown(NamedTuple):
    """Per-harmonic stiffness and denominator values of the two-term mode."""

    stiffness: List[float]
    denominators: List[float]


def quotient_breakdown(spec: BucklingModeSpec) -> QuotientBreakdown:
    """Exact per-harmonic quadrature of the quotient; harmonics decouple."""
    check_window(spec)
    geom, elastic = spec.problem.geom, spec.problem.elastic
    stiff, denom = [], []
    for mode in harmonics(spec):
        stiff.append(mode_energy(geom, elastic, mode))
        denom.append(mode_phi_rz(geom, mode))
    return QuotientBreakdown(stiff, denom)


def quotient_ratio(spec: BucklingModeSpec) -> float:
    """R1 of the two-term mode over the classical strain; -> 1 as h -> 0.

    The per-harmonic quadrature is mode_energy's 16-node radial rule."""
    qb = quotient_breakdown(spec)
    return sum(qb.stiffness) / sum(qb.denominators) / spec.problem.lambda_star

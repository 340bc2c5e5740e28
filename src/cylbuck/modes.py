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

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .critical_load import CriticalLoadProblem, classical_strain_at
from .errors import WindowTooSmall
from .material import IsotropicElasticity
from .spectral import (
    FourierMode,
    ShellGeometry,
    WaveNumbers,
    as_fourier,
    displacement,
    mode_denominators,
    mode_energy,
    optimal_mode,
)


@dataclass(frozen=True)
class BucklingModeSpec:
    """Selects the wave numbers m(h), n(h) from the scaling exponent alpha.

    The target axial wave number is (2R)^alpha with 2R = sqrt(2/lambda_star)
    the Koiter-circle diameter; n(h) is the nonnegative integer closest to
    the circle at that mhat (ties toward smaller n).
    """

    geom: ShellGeometry
    elastic: IsotropicElasticity
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def lambda_star(self) -> float:
        return classical_strain_at(self.geom.h, self.elastic.nu)

    @property
    def m(self) -> int:
        target = math.sqrt(2.0 / self.lambda_star) ** self.alpha
        return max(1, round(target * self.geom.L / math.pi))

    @property
    def m_hat(self) -> float:
        return math.pi * self.m / self.geom.L

    @property
    def n(self) -> int:
        R = 1.0 / math.sqrt(2.0 * self.lambda_star)
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
    nu = spec.elastic.nu
    n = spec.n
    mh0 = spec.m_hat
    a_theta = -n * (n**2 + (nu + 2.0) * mh0**2) / (mh0**2 + n**2) ** 2
    out = []
    for m in (spec.m, spec.m + 2):
        wn = WaveNumbers(m=m, n=n, L=spec.geom.L)
        a_z = closed_form_a_z(nu, wn.m_hat, n, a_theta)
        out.append(as_fourier(optimal_mode(wn, a_theta, a_z, spec.elastic)))
    first, second = out
    return first, FourierMode(wn=second.wn, fr=-second.fr, ftheta=-second.ftheta, fz=-second.fz)


def check_window(spec: BucklingModeSpec, margin: float = 3.0):
    """Both harmonics must sit inside the sweep window."""
    problem = CriticalLoadProblem(geom=spec.geom, elastic=spec.elastic, margin=margin)
    m_max, n_max = problem.window()
    if spec.m + 2 >= m_max or spec.n >= n_max:
        raise WindowTooSmall(
            f"harmonics (m={spec.m}, m+2) with n={spec.n} exceed window ({m_max}, {n_max})"
        )


@dataclass(frozen=True)
class DisplacementField:
    """Tensor-grid samples of the two-term displacement field."""

    spec: BucklingModeSpec
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
        fields = [f + part for f, part in zip(fields, displacement(mode, r, theta, z))]
    return tuple(fields)


def synthesize(
    spec: BucklingModeSpec,
    r_nodes: int = 9,
    theta_nodes: int = 0,
    z_nodes: int = 0,
) -> DisplacementField:
    """Sample the two-term mode on a tensor grid.

    Default grid densities resolve the oscillation with Nyquist margin:
    theta >= 8 n + 16 on [0, 2 pi), z >= 8 (m+2) + 16 on [0, L].
    """
    check_window(spec)
    nt = theta_nodes if theta_nodes else 8 * spec.n + 16
    nz = z_nodes if z_nodes else 8 * (spec.m + 2) + 16
    geom = spec.geom
    r = np.linspace(geom.r_inner, geom.r_outer, r_nodes)
    theta = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
    z = np.linspace(0.0, geom.L, nz)
    pr, pt, pz = evaluate(spec, r, theta, z)
    return DisplacementField(spec=spec, r=r, theta=theta, z=z, phi_r=pr, phi_theta=pt, phi_z=pz)


class QuotientBreakdown:
    """Per-harmonic stiffness/denominator values and their combined quotient."""

    def __init__(self, stiffness: List[float], denominators: List[float], lambda_star: float):
        self.stiffness = stiffness
        self.denominators = denominators
        self.lambda_star = lambda_star

    @property
    def quotient(self) -> float:
        return sum(self.stiffness) / sum(self.denominators)

    @property
    def ratio(self) -> float:
        return self.quotient / self.lambda_star

    @property
    def per_harmonic(self) -> List[float]:
        return [s / d for s, d in zip(self.stiffness, self.denominators)]


def quotient_breakdown(spec: BucklingModeSpec, nodes: int = 16) -> QuotientBreakdown:
    """Exact per-harmonic quadrature of the quotient; harmonics decouple."""
    check_window(spec)
    stiff, denom = [], []
    for mode in harmonics(spec):
        stiff.append(mode_energy(spec.geom, spec.elastic, mode, nodes))
        denom.append(mode_denominators(spec.geom, mode, nodes).phi_rz)
    return QuotientBreakdown(stiff, denom, spec.lambda_star)


def quotient_ratio(spec: BucklingModeSpec, nodes: int = 16) -> float:
    """R1 of the two-term mode over the classical strain; -> 1 as h -> 0."""
    return quotient_breakdown(spec, nodes).ratio

"""Single Fourier modes of the shell and their strains.

A mode with circumferential index n and axial index m (axial wave number
mhat = pi m / L) pairs the trigonometric factors as

    phi_r     = f_r(r)     cos(n theta) cos(mhat z)
    phi_theta = f_theta(r) sin(n theta) cos(mhat z)
    phi_z     = f_z(r)     cos(n theta) sin(mhat z)

which is the unique real pairing (up to the equivalent mirrored choice) for
which every strain entry carries a single trigonometric product.  For n = 0
the sin factor kills the theta component; torsional n = 0 content is out of
scope and f_theta is ignored there.

The linearization operator replaces the theta and z profiles by their
first-order Taylor expansion about the mid-surface r = 1, leaving phi_r
untouched.  Its image is parameterized by two amplitudes (a_theta, a_z) once
f_r(1) is normalized to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np
from numpy.polynomial import Polynomial

from .material import IsotropicElasticity, SymStrain


@dataclass(frozen=True)
class ShellGeometry:
    """Slenderness h (thickness over radius) and axial length L, radius = 1."""

    h: float
    L: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise ValueError(f"need 0 < h < 1, got h={self.h}")
        if not self.L > 0.0:
            raise ValueError(f"need L > 0, got L={self.L}")

    @property
    def r_inner(self) -> float:
        return 1.0 - 0.5 * self.h

    @property
    def r_outer(self) -> float:
        return 1.0 + 0.5 * self.h

    def contains_radius(self, r) -> bool:
        r = np.asarray(r)
        return bool(np.all((r >= self.r_inner - 1e-12) & (r <= self.r_outer + 1e-12)))


@dataclass(frozen=True)
class WaveNumbers:
    """Integer Fourier indices and the continuous axial wave number pi m / L."""

    m: int
    n: int
    L: float

    def __post_init__(self):
        if self.m < 1 or self.m != int(self.m):
            raise ValueError(f"axial index m must be an integer >= 1, got {self.m}")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"circumferential index n must be an integer >= 0, got {self.n}")

    @property
    def m_hat(self) -> float:
        return math.pi * self.m / self.L


def window_pairs(window: Tuple[int, int], L: float) -> Iterator[WaveNumbers]:
    """The pairs of the integer window (m_max, n_max) in scan order.

    n is the outer index, ascending from 0; m the inner one, ascending from 1.
    Window scans keep the first minimum in this order, so ties go to the
    smallest n, then the smallest m.
    """
    m_max, n_max = window
    for n in range(n_max + 1):
        for m in range(1, m_max + 1):
            yield WaveNumbers(m=m, n=n, L=L)


@dataclass(frozen=True)
class FourierMode:
    """Single Fourier mode with polynomial radial profiles in r."""

    wn: WaveNumbers
    fr: Polynomial
    ftheta: Polynomial
    fz: Polynomial


def _ftheta(mode: FourierMode) -> Polynomial:
    """The theta profile; zero for n = 0, where its sin(n theta) factor vanishes."""
    return mode.ftheta if mode.wn.n else Polynomial([0.0])


@dataclass(frozen=True)
class LinearizedMode:
    """Image of the linearization operator, normalized to f_r(1) = 1.

    theta profile: r a_theta + (r-1) n,   z profile: a_z + (r-1) mhat.
    ``fr`` defaults to the constant profile 1; use :func:`optimal_mode` for
    the energy-minimizing radial slope.
    """

    wn: WaveNumbers
    a_theta: float
    a_z: float
    fr: Polynomial = field(default_factory=lambda: Polynomial([1.0]))

    def __post_init__(self):
        v1 = float(self.fr(1.0))
        if abs(v1 - 1.0) > 1e-10:
            raise ValueError(f"f_r(1) must equal 1, got {v1}")


def _check_radius(geom: Optional[ShellGeometry], r):
    if geom is not None and not geom.contains_radius(r):
        raise ValueError("radius outside the shell wall")


def simplified_strain(mode: FourierMode, r, geom: Optional[ShellGeometry] = None) -> SymStrain:
    """Pruned strain surrogate: radial shears dropped, f_r frozen at its
    mid-surface value in the hoop strain, sqrt(r) reweighting.

    Designed so the weighted radial integrands of the elastic form become
    polynomial; differs from the exact strain by O(sqrt(h)) in L2 for wave
    numbers within the slender-regime bounds.
    """
    _check_radius(geom, r)
    r = np.asarray(r, dtype=float)
    sq = np.sqrt(r)
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    f_t = _ftheta(mode)(r)
    f_z = mode.fz(r)
    zeros = 0.0 * r
    return SymStrain(
        rr=mode.fr.deriv()(r) / sq,
        tt=(n * f_t + float(mode.fr(1.0))) / sq,
        zz=mh * f_z / sq,
        rt=zeros,
        rz=zeros,
        tz=-(mh * r * f_t + n * f_z) / (2.0 * sq),
    )


def optimal_fr_slope(
    mode: LinearizedMode, r, elastic: IsotropicElasticity, geom: Optional[ShellGeometry] = None
):
    """Pointwise minimizer of the elastic integrand over the radial slope.

    f_r'(r) = -Lambda/(Lambda+2) * p(r) with
    p(r) = n r a_theta + (r-1) n^2 + 1 + mhat a_z + (r-1) mhat^2.
    """
    _check_radius(geom, r)
    r = np.asarray(r, dtype=float)
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    lam = elastic.Lambda
    p = n * r * mode.a_theta + (r - 1.0) * n**2 + 1.0 + mh * mode.a_z + (r - 1.0) * mh**2
    return -lam / (lam + 2.0) * p


def optimal_mode(
    wn: WaveNumbers, a_theta: float, a_z: float, elastic: IsotropicElasticity
) -> LinearizedMode:
    """Linearized mode carrying the energy-minimizing radial profile.

    Integrating the optimal slope from r = 1 gives the quadratic
    f_r(r) = 1 - c (r-1) A - c (r-1)^2 B / 2,  c = nu/(1-nu) = Lambda/(Lambda+2),
    with A = n a_theta + 1 + mhat a_z and B = n a_theta + n^2 + mhat^2.
    """
    n = float(wn.n)
    mh = wn.m_hat
    c = elastic.nu / (1.0 - elastic.nu)
    rm1 = Polynomial([-1.0, 1.0])
    fr = 1.0 - c * (n * a_theta + 1.0 + mh * a_z) * rm1 - 0.5 * c * (
        n * a_theta + n**2 + mh**2
    ) * rm1**2
    return LinearizedMode(wn=wn, a_theta=a_theta, a_z=a_z, fr=fr)


def as_fourier(mode: LinearizedMode) -> FourierMode:
    """Expand a linearized mode into explicit radial profiles."""
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    ftheta = Polynomial([-n, mode.a_theta + n])  # r a_theta + (r-1) n
    fz = Polynomial([mode.a_z - mh, mh])  # a_z + (r-1) mhat
    return FourierMode(wn=mode.wn, fr=mode.fr, ftheta=ftheta, fz=fz)


def strain_amplitudes(mode: FourierMode, r, geom: Optional[ShellGeometry] = None) -> SymStrain:
    """Strain amplitudes of a general mode from the cylindrical
    strain-displacement relations."""
    _check_radius(geom, r)
    r = np.asarray(r, dtype=float)
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    f_r = mode.fr(r)
    fp_r = mode.fr.deriv()(r)
    f_z = mode.fz(r)
    fp_z = mode.fz.deriv()(r)
    ftheta = _ftheta(mode)
    f_t = ftheta(r)
    fp_t = ftheta.deriv()(r)
    return SymStrain(
        rr=fp_r,
        tt=(n * f_t + f_r) / r,
        zz=mh * f_z,
        rt=0.5 * (fp_t - (f_t + n * f_r) / r),
        rz=0.5 * (fp_z - mh * f_r),
        tz=-0.5 * (mh * f_t + n * f_z / r),
    )


def linearize(mode: FourierMode) -> FourierMode:
    """First-order Taylor expansion of the theta and z profiles about r = 1."""
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    fr1 = float(mode.fr(1.0))
    ft1 = float(mode.ftheta(1.0))
    fz1 = float(mode.fz(1.0))
    ftheta = Polynomial([-n * fr1, ft1 + n * fr1])
    fz = Polynomial([fz1 - mh * fr1, mh * fr1])
    return FourierMode(wn=mode.wn, fr=mode.fr, ftheta=ftheta, fz=fz)


# ---------------------------------------------------------------------------
# quadrature over the shell for single modes
# ---------------------------------------------------------------------------

def radial_rule(geom: ShellGeometry, nodes: int = 16):
    """Gauss-Legendre nodes/weights on the wall [1-h/2, 1+h/2]."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * geom.h
    return 1.0 + half * t, half * w


@dataclass(frozen=True)
class TrigFactors:
    """(theta, z)-integrals of the squared trig products over [0,2pi]x[0,L]."""

    cc: float
    sc: float
    cs: float
    ss: float


def trig_factors(wn: WaveNumbers) -> TrigFactors:
    theta_c = 2.0 * math.pi if wn.n == 0 else math.pi
    theta_s = 0.0 if wn.n == 0 else math.pi
    zhalf = 0.5 * wn.L
    return TrigFactors(cc=theta_c * zhalf, sc=theta_s * zhalf, cs=theta_c * zhalf, ss=theta_s * zhalf)


def mode_energy(
    geom: ShellGeometry, elastic: IsotropicElasticity, mode: FourierMode, nodes: int = 16
) -> float:
    """Elastic energy int <L0/E e, e> dx of the mode over the shell.

    The theta/z integrals are done analytically through trig_factors; the
    radial integral uses Gauss-Legendre with the r dr volume weight.
    """
    r, w = radial_rule(geom, nodes)
    e = strain_amplitudes(mode, r)
    f = trig_factors(mode.wn)
    nu = elastic.nu
    tr = e.trace()
    diag = e.rr**2 + e.tt**2 + e.zz**2
    dens = (
        (nu / (1.0 - 2.0 * nu) * tr * tr + diag) * f.cc
        + 2.0 * e.rt**2 * f.sc
        + 2.0 * e.rz**2 * f.cs
        + 2.0 * e.tz**2 * f.ss
    ) / (1.0 + nu)
    return float(np.sum(w * r * dens))


@dataclass(frozen=True)
class DenominatorValues:
    """Squared L2 norms of the z-gradient components of a mode."""

    phi_rz: float
    phi_zz: float
    phi_tz: float
    phi_rz_mid: float

    @property
    def full(self) -> float:
        """Compression measure magnitude |c_h|/E."""
        return self.phi_rz + self.phi_zz + self.phi_tz


def mode_denominators(geom: ShellGeometry, mode: FourierMode, nodes: int = 16) -> DenominatorValues:
    r, w = radial_rule(geom, nodes)
    f = trig_factors(mode.wn)
    mh2 = mode.wn.m_hat**2
    fr = mode.fr(r)
    fz = mode.fz(r)
    ft = _ftheta(mode)(r)
    rw = w * r
    fr1 = float(mode.fr(1.0))
    return DenominatorValues(
        phi_rz=f.cs * mh2 * float(np.sum(rw * fr**2)),
        phi_zz=f.cc * mh2 * float(np.sum(rw * fz**2)),
        phi_tz=f.ss * mh2 * float(np.sum(rw * ft**2)),
        phi_rz_mid=f.cs * mh2 * fr1**2 * geom.h,
    )


def rayleigh_r1(
    geom: ShellGeometry, elastic: IsotropicElasticity, mode: FourierMode, nodes: int = 16
) -> float:
    """Stiffness over the |phi_{r,z}|^2 destabilizing norm for one mode."""
    den = mode_denominators(geom, mode, nodes).phi_rz
    if den == 0.0:
        raise ZeroDivisionError("mode has no radial-axial gradient content")
    return mode_energy(geom, elastic, mode, nodes) / den


def displacement(mode: FourierMode, r, theta, z):
    """Evaluate the physical displacement components; broadcasts over inputs."""
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    r = np.asarray(r, dtype=float)
    ct, st = np.cos(n * theta), np.sin(n * theta)
    cz, sz = np.cos(mh * z), np.sin(mh * z)
    return (
        mode.fr(r) * ct * cz,
        _ftheta(mode)(r) * st * cz,
        mode.fz(r) * ct * sz,
    )


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

The linearized family holds the modes with f_r(1) = 1 whose theta and z
profiles are affine in r, with the mid-surface slopes at which the radial
shears e_rt and e_rz vanish on r = 1:

    f_theta = r a_theta + (r-1) n,    f_z = a_z + (r-1) mhat.

Two amplitudes (a_theta, a_z) parameterize it; ``optimal_mode`` builds the
family's member with the energy-minimizing radial profile.

``leggauss`` is the package's one float64 Gauss-Legendre rule; every Gauss
quadrature of the package, the oracle's and criterion 9's too, starts from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"need finite L > 0, got L={self.L}")

    @property
    def r_inner(self) -> float:
        return 1.0 - 0.5 * self.h

    @property
    def r_outer(self) -> float:
        return 1.0 + 0.5 * self.h


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


def optimal_mode(
    wn: WaveNumbers, a_theta: float, a_z: float, elastic: IsotropicElasticity
) -> FourierMode:
    """The linearized-family mode with amplitudes (a_theta, a_z), f_r(1) = 1,
    and the energy-minimizing radial profile.

    theta profile: r a_theta + (r-1) n,   z profile: a_z + (r-1) mhat.
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
    ftheta = Polynomial([-n, a_theta + n])
    fz = Polynomial([a_z - mh, mh])
    return FourierMode(wn=wn, fr=fr, ftheta=ftheta, fz=fz)


def strain_amplitudes(mode: FourierMode, r) -> SymStrain:
    """Strain amplitudes of a general mode from the cylindrical
    strain-displacement relations."""
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


# ---------------------------------------------------------------------------
# quadrature over the shell for single modes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def leggauss(nodes: int):
    """The float64 Gauss-Legendre rule of nodes nodes on [-1, 1], computed once and read-only."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for a in rule:
        a.setflags(write=False)
    return rule


def radial_rule(geom: ShellGeometry, nodes: int = 16):
    """Gauss-Legendre nodes/weights on the wall [1-h/2, 1+h/2]."""
    t, w = leggauss(nodes)
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


def mode_energy(geom: ShellGeometry, elastic: IsotropicElasticity, mode: FourierMode) -> float:
    """Elastic energy int <L0/E e, e> dx of the mode over the shell.

    The theta/z integrals are done analytically through trig_factors; the
    radial integral uses radial_rule's 16 Gauss-Legendre nodes with the r dr
    volume weight.
    """
    r, w = radial_rule(geom)
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


def mode_phi_rz(geom: ShellGeometry, mode: FourierMode) -> float:
    """The squared L2 norm |phi_{r,z}|^2 of the mode, by radial_rule's 16 nodes."""
    r, w = radial_rule(geom)
    mh2 = mode.wn.m_hat**2
    return trig_factors(mode.wn).cs * mh2 * float(np.sum(w * r * mode.fr(r) ** 2))


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


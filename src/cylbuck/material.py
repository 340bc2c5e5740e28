"""Isotropic linear elasticity in the cylindrical frame.

All Rayleigh quotients downstream work with the Young's-modulus-normalized
tensor ``L0/E``, so the quadratic form implemented here is dimensionless:

    density(e) = 1/(1+nu) * ( nu/(1-2 nu) * tr(e)^2 + |e|^2 )

with ``|e|^2`` the Frobenius norm squared of the symmetric strain; the
docstrings elsewhere write its trace coefficient as Lambda / 2, with
Lambda = 2 nu / (1-2 nu).  ``E`` only scales the dimensional moduli ``mu``
and ``lame_lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IsotropicElasticity:
    """Isotropic moduli.  ``nu`` must lie strictly inside (-1, 1/2).

    Derived constants:
      mu           shear modulus E / (2(1+nu))
      lame_lambda  first Lame parameter E nu / ((1+nu)(1-2 nu))
    """

    nu: float
    E: float = 1.0

    def __post_init__(self):
        if not (-1.0 < self.nu < 0.5):
            raise ValueError(f"Poisson ratio must satisfy -1 < nu < 1/2, got {self.nu}")
        if not self.E > 0:
            raise ValueError(f"Young's modulus must be positive, got {self.E}")

    @property
    def mu(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lame_lambda(self) -> float:
        """First Lame parameter (dimensional)."""
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))


@dataclass(frozen=True)
class SymStrain:
    """Symmetric strain (or stress) tensor in the local cylindrical frame.

    Components may be scalars or numpy arrays of a common shape; all methods
    broadcast.  Off-diagonal entries are the tensor components (not doubled
    engineering shears).
    """

    rr: float = 0.0
    tt: float = 0.0
    zz: float = 0.0
    rt: float = 0.0
    rz: float = 0.0
    tz: float = 0.0

    def trace(self):
        return self.rr + self.tt + self.zz

    def frob2(self):
        """Frobenius norm squared, off-diagonals counted twice."""
        return (
            self.rr**2
            + self.tt**2
            + self.zz**2
            + 2.0 * (self.rt**2 + self.rz**2 + self.tz**2)
        )

    def scaled(self, c: float) -> "SymStrain":
        return SymStrain(
            c * self.rr, c * self.tt, c * self.zz, c * self.rt, c * self.rz, c * self.tz
        )


def energy_density(elastic: IsotropicElasticity, e: SymStrain):
    """Normalized elastic energy density <L0/E e, e>.

    Nonnegative for admissible nu, zero iff e == 0.  Vectorizes over array
    components.
    """
    tr = e.trace()
    return (elastic.nu / (1.0 - 2.0 * elastic.nu) * tr * tr + e.frob2()) / (
        1.0 + elastic.nu
    )


def coercivity_bound(elastic: IsotropicElasticity) -> float:
    """Largest alpha with density(e) >= alpha |e|^2 for every symmetric e.

    The isotropic form has exactly two eigenvalues: 1/(1+nu) on trace-free
    strains (multiplicity 5) and 1/(1-2 nu) on multiples of the identity.
    """
    shear = 1.0 / (1.0 + elastic.nu)
    volumetric = 1.0 / (1.0 - 2.0 * elastic.nu)
    return min(shear, volumetric)

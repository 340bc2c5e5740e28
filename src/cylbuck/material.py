"""Isotropic linear elasticity in the cylindrical frame.

Every output is a dimensionless quotient, so Young's modulus E cancels from
all of them: the material is its Poisson ratio, its moduli are in units of
E, and the quadratic form implemented here is that of the tensor ``L0/E``:

    density(e) = 1/(1+nu) * ( nu/(1-2 nu) * tr(e)^2 + |e|^2 )

with ``|e|^2`` the Frobenius norm squared of the symmetric strain; the
docstrings elsewhere write its trace coefficient as Lambda / 2, with
Lambda = 2 nu / (1-2 nu).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IsotropicElasticity:
    """Isotropic moduli in units of Young's modulus.  ``nu`` must lie
    strictly inside (-1, 1/2).

    Derived constants:
      mu           shear modulus 1 / (2(1+nu))
      lame_lambda  first Lame parameter nu / ((1+nu)(1-2 nu))
    """

    nu: float

    def __post_init__(self):
        if not (-1.0 < self.nu < 0.5):
            raise ValueError(f"Poisson ratio must satisfy -1 < nu < 1/2, got {self.nu}")

    @property
    def mu(self) -> float:
        return 1.0 / (2.0 * (1.0 + self.nu))

    @property
    def lame_lambda(self) -> float:
        return self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))


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

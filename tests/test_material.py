import itertools

import numpy as np
import pytest

from cylbuck.material import IsotropicElasticity, SymStrain, coercivity_bound, energy_density


def voigt_matrix(elastic):
    """Independent route: the 6x6 matrix of the form in orthonormal strain
    coordinates (rr, tt, zz, sqrt2*rt, sqrt2*rz, sqrt2*tz)."""
    nu = elastic.nu
    M = np.zeros((6, 6))
    c = nu / (1.0 - 2.0 * nu)
    for i in range(3):
        for j in range(3):
            M[i, j] = c + (1.0 if i == j else 0.0)
    for i in range(3, 6):
        M[i, i] = 1.0
    return M / (1.0 + nu)


def bulk_modulus(elastic):
    """kappa / E = 1 / (3 (1 - 2 nu))."""
    return 1.0 / (3.0 * (1.0 - 2.0 * elastic.nu))


def lame_ratio(elastic):
    """Lambda = 2 nu / (1 - 2 nu), the dimensionless trace coefficient of the form."""
    return 2.0 * elastic.nu / (1.0 - 2.0 * elastic.nu)


def density_via_voigt(elastic, e):
    v = np.array([e.rr, e.tt, e.zz, np.sqrt(2) * e.rt, np.sqrt(2) * e.rz, np.sqrt(2) * e.tz])
    return float(v @ voigt_matrix(elastic) @ v)


class TestInvariants:
    def test_nu_range_rejected(self):
        for nu in (-1.0, 0.5, 0.7, -1.3):
            with pytest.raises(ValueError):
                IsotropicElasticity(nu=nu)

    def test_derived_constants(self):
        el = IsotropicElasticity(nu=0.3)
        assert el.mu == pytest.approx(1.0 / 2.6)
        assert el.lame_lambda == pytest.approx(0.3 / (1.3 * 0.4))
        assert bulk_modulus(el) == pytest.approx(1.0 / (3 * 0.4))
        assert lame_ratio(el) == pytest.approx(0.6 / 0.4)
        # Lambda/(Lambda+2) stays in [0, 1) on the compressive side
        for nu in (0.0, 0.2, 0.45, 0.49):
            lam = lame_ratio(IsotropicElasticity(nu=nu))
            assert 0.0 <= lam / (lam + 2.0) < 1.0

    def test_strain_norms(self):
        e = SymStrain(1.0, 2.0, 3.0, 0.5, -0.5, 0.25)
        assert e.trace() == pytest.approx(6.0)
        assert e.frob2() == pytest.approx(1 + 4 + 9 + 2 * (0.25 + 0.25 + 0.0625))


class TestEnergyDensity:
    def test_zero_strain(self):
        assert energy_density(IsotropicElasticity(nu=0.3), SymStrain()) == 0.0

    def test_uniaxial_hand_value(self):
        # nu = 0.3, e = diag(1,0,0): (1/1.3)(0.3/0.4 + 1) = 1.75/1.3
        el = IsotropicElasticity(nu=0.3)
        val = energy_density(el, SymStrain(rr=1.0))
        assert val == pytest.approx(1.75 / 1.3, rel=1e-15)
        assert val == pytest.approx(1.3461538461538463, rel=1e-12)

    def test_nu_zero_is_frobenius(self, rng):
        el = IsotropicElasticity(nu=0.0)
        for _ in range(20):
            e = SymStrain(*rng.uniform(-1.0, 1.0, size=6))
            assert energy_density(el, e) == pytest.approx(e.frob2(), rel=1e-14)

    def test_quadratic_homogeneity(self, rng):
        el = IsotropicElasticity(nu=0.27)
        for _ in range(50):
            e = SymStrain(*rng.uniform(-1.0, 1.0, size=6))
            c = rng.uniform(-3.0, 3.0)
            assert energy_density(el, e.scaled(c)) == pytest.approx(
                c * c * energy_density(el, e), rel=1e-12, abs=1e-14
            )

    def test_matches_voigt_route(self, rng):
        for nu in (-0.5, 0.0, 0.3, 0.45):
            el = IsotropicElasticity(nu=nu)
            for _ in range(20):
                e = SymStrain(*rng.uniform(-1.0, 1.0, size=6))
                assert energy_density(el, e) == pytest.approx(
                    density_via_voigt(el, e), rel=1e-12
                )

    def test_isotropy_axis_permutations(self, rng):
        el = IsotropicElasticity(nu=0.35)
        shear_index = {(0, 1): "rt", (0, 2): "rz", (1, 2): "tz"}
        e = SymStrain(*rng.uniform(-1.0, 1.0, size=6))
        diag = [e.rr, e.tt, e.zz]
        shear = {"rt": e.rt, "rz": e.rz, "tz": e.tz}
        base = energy_density(el, e)
        for perm in itertools.permutations(range(3)):
            new_diag = [diag[perm[i]] for i in range(3)]
            new_shear = {}
            for (i, j), name in shear_index.items():
                pi, pj = sorted((perm[i], perm[j]))
                new_shear[name] = shear[shear_index[(pi, pj)]]
            permuted = SymStrain(new_diag[0], new_diag[1], new_diag[2], **new_shear)
            assert energy_density(el, permuted) == pytest.approx(base, rel=1e-12)


class TestCoercivity:
    def test_identity_at_nu_zero(self):
        assert coercivity_bound(IsotropicElasticity(nu=0.0)) == pytest.approx(1.0)

    def test_matches_min_eigenvalue(self):
        for nu in (-0.7, -0.2, 0.0, 0.3, 0.45, 0.499):
            el = IsotropicElasticity(nu=nu)
            eigs = np.linalg.eigvalsh(voigt_matrix(el))
            assert coercivity_bound(el) == pytest.approx(eigs[0], rel=1e-12)

    def test_brute_force_sampling(self, rng):
        el = IsotropicElasticity(nu=0.3)
        alpha = coercivity_bound(el)
        worst = np.inf
        for _ in range(10_000):
            e = SymStrain(*rng.uniform(-1.0, 1.0, size=6))
            f2 = e.frob2()
            if f2 < 1e-12:
                continue
            ratio = energy_density(el, e) / f2
            worst = min(worst, ratio)
            assert ratio >= alpha * (1.0 - 1e-12)
        # the bound is sharp: random sampling gets within a factor of ~1.5
        assert worst < 1.5 * alpha

    def test_incompressible_limit_stays_bounded(self):
        # shear eigenvalue 1/(1+nu) is the minimum for nu >= 0
        for nu in (0.4, 0.45, 0.49, 0.4999):
            el = IsotropicElasticity(nu=nu)
            assert coercivity_bound(el) == pytest.approx(1.0 / (1.0 + nu), rel=1e-12)

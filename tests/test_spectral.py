import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.optimize import minimize_scalar

from cylbuck.material import IsotropicElasticity, energy_density
from cylbuck.spectral import (
    FourierMode,
    LinearizedMode,
    ShellGeometry,
    WaveNumbers,
    as_fourier,
    linearize,
    mode_denominators,
    mode_energy,
    optimal_fr_slope,
    optimal_mode,
    radial_rule,
    rayleigh_r1,
    simplified_strain,
    strain_amplitudes,
    trig_factors,
)

EL = IsotropicElasticity(nu=0.3)


# ---------------------------------------------------------------------------
# independent oracle: complex-step differentiation of the displacement field
# ---------------------------------------------------------------------------

def displacement_functions(mode):
    """Literal transcription of the linearized-mode displacement field."""
    n = float(mode.wn.n)
    mh = mode.wn.m_hat
    at, az = mode.a_theta, mode.a_z

    def fr(r):
        return mode.fr(r)

    def phi_r(r, t, z):
        return fr(r) * np.cos(n * t) * np.cos(mh * z)

    def phi_t(r, t, z):
        return (r * at + (r - 1.0) * n) * np.sin(n * t) * np.cos(mh * z)

    def phi_z(r, t, z):
        return (az + (r - 1.0) * mh) * np.cos(n * t) * np.sin(mh * z)

    return phi_r, phi_t, phi_z


def cstep(f, args, index, h=1e-30):
    """Complex-step partial derivative in the index-th argument."""
    args = list(args)
    args[index] = args[index] + 1j * h
    return np.imag(f(*args)) / h


def strains_by_differentiation(mode, r, t, z):
    """Cylindrical strain-displacement relations applied to the raw field."""
    pr, pt, pz = displacement_functions(mode)
    a = (r, t, z)
    e_rr = cstep(pr, a, 0)
    e_tt = (cstep(pt, a, 1) + pr(*a)) / r
    e_zz = cstep(pz, a, 2)
    e_rt = 0.5 * (cstep(pt, a, 0) + (cstep(pr, a, 1) - pt(*a)) / r)
    e_rz = 0.5 * (cstep(pr, a, 2) + cstep(pz, a, 0))
    e_tz = 0.5 * (cstep(pt, a, 2) + cstep(pz, a, 1) / r)
    return e_rr, e_tt, e_zz, e_rt, e_rz, e_tz


class TestStrainComponents:
    def test_against_complex_step_oracle(self, rng):
        geom = ShellGeometry(h=0.05, L=math.pi)
        for _ in range(20):
            wn = WaveNumbers(m=int(rng.integers(1, 9)), n=int(rng.integers(1, 9)), L=math.pi)
            fr = Polynomial([1.0, 0, 0]) + Polynomial([-1.0, 1.0]) * rng.uniform(-1, 1)
            mode = LinearizedMode(
                wn=wn, a_theta=rng.uniform(-2, 2), a_z=rng.uniform(-2, 2), fr=fr
            )
            r = rng.uniform(geom.r_inner, geom.r_outer)
            t = rng.uniform(0, 2 * math.pi)
            z = rng.uniform(0, math.pi)
            e = strain_amplitudes(as_fourier(mode), r)
            n, mh = float(wn.n), wn.m_hat
            ct, st = math.cos(n * t), math.sin(n * t)
            cz, sz = math.cos(mh * z), math.sin(mh * z)
            got = (
                e.rr * ct * cz,
                e.tt * ct * cz,
                e.zz * ct * cz,
                e.rt * st * cz,
                e.rz * ct * sz,
                e.tz * st * sz,
            )
            want = strains_by_differentiation(mode, r, t, z)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_flat_profile_at_midsurface(self):
        wn = WaveNumbers(m=3, n=2, L=math.pi)
        mode = LinearizedMode(wn=wn, a_theta=0.0, a_z=0.0)
        e = strain_amplitudes(as_fourier(mode), 1.0)
        assert e.rr == 0.0
        assert e.rt == 0.0
        assert e.rz == 0.0
        assert float(e.tt) == pytest.approx(1.0)
        # tz = -(mhat r^2 a_t + n a_z + (r^2-1) mhat n)/(2r) = 0 at r = 1
        assert float(e.tz) == 0.0
        assert float(e.zz) == 0.0

    def test_axisymmetric_shears_vanish(self):
        wn = WaveNumbers(m=4, n=0, L=math.pi)
        mode = LinearizedMode(wn=wn, a_theta=0.0, a_z=0.4)
        for r in (0.96, 1.0, 1.04):
            e = strain_amplitudes(as_fourier(mode), r)
            assert float(e.rt) == 0.0
            assert float(e.tz) == 0.0

    def test_radius_outside_wall_rejected(self):
        geom = ShellGeometry(h=0.02, L=math.pi)
        mode = LinearizedMode(wn=WaveNumbers(m=1, n=1, L=math.pi), a_theta=0.0, a_z=0.0)
        with pytest.raises(ValueError):
            strain_amplitudes(as_fourier(mode), 1.2, geom=geom)


class TestSimplifiedStrain:
    def test_radial_shears_identically_zero(self, rng):
        wn = WaveNumbers(m=5, n=3, L=math.pi)
        mode = as_fourier(optimal_mode(wn, 0.3, -0.2, EL))
        r = rng.uniform(0.95, 1.05, size=7)
        E = simplified_strain(mode, r)
        assert np.all(E.rt == 0.0)
        assert np.all(E.rz == 0.0)

    def test_collapses_at_midsurface(self):
        wn = WaveNumbers(m=5, n=3, L=math.pi)
        mode = as_fourier(optimal_mode(wn, 0.3, -0.2, EL))
        e = strain_amplitudes(mode, 1.0)
        E = simplified_strain(mode, 1.0)
        for name in ("rr", "tt", "zz", "tz"):
            assert float(getattr(E, name)) == pytest.approx(float(getattr(e, name)), rel=1e-12)

    def test_relative_error_scales_with_sqrt_h(self):
        # |E - e| <= C sqrt(h) |e| in L2 for near-circle wave numbers
        from cylbuck.critical_load import CriticalLoadProblem, koiter_circle, per_mode_strain

        coefs = []
        for h in (0.04, 0.01):
            geom = ShellGeometry(h=h, L=math.pi)
            problem = CriticalLoadProblem(geom=geom, elastic=EL)
            for wn in koiter_circle(problem, rel_tol=0.05)[:4]:
                mm = per_mode_strain(problem, wn)
                mode = as_fourier(optimal_mode(wn, mm.a_theta, mm.a_z, EL))
                r, w = radial_rule(geom, 24)
                e = strain_amplitudes(mode, r)
                E = simplified_strain(mode, r)
                diff = E.minus(e)
                num = float(np.sum(w * r * diff.frob2()))
                den = float(np.sum(w * r * e.frob2()))
                coefs.append(math.sqrt(num / den) / math.sqrt(h))
        assert max(coefs) < 2.0


class TestOptimalSlope:
    def test_zero_at_nu_zero(self):
        el0 = IsotropicElasticity(nu=0.0)
        wn = WaveNumbers(m=2, n=1, L=math.pi)
        mode = LinearizedMode(wn=wn, a_theta=0.5, a_z=0.5)
        assert float(optimal_fr_slope(mode, 1.02, el0)) == 0.0

    def test_hand_value(self):
        # nu=0.3, a=0, n=0, mhat=1, r=1: p=1, slope = -(1.5/3.5) = -3/7
        wn = WaveNumbers(m=1, n=0, L=math.pi)
        mode = LinearizedMode(wn=wn, a_theta=0.0, a_z=0.0)
        got = float(optimal_fr_slope(mode, 1.0, EL))
        assert got == pytest.approx(-3.0 / 7.0, rel=1e-14)

    def test_golden_section_oracle(self, rng):
        lam = EL.Lambda
        for _ in range(10):
            wn = WaveNumbers(m=int(rng.integers(1, 7)), n=int(rng.integers(0, 7)), L=math.pi)
            at, az = rng.uniform(-2, 2, size=2)
            mode = LinearizedMode(wn=wn, a_theta=at, a_z=az)
            r = rng.uniform(0.95, 1.05)
            n, mh = float(wn.n), wn.m_hat
            p = n * r * at + (r - 1) * n**2 + 1.0 + mh * az + (r - 1) * mh**2
            integrand = lambda s: lam * (s + p) ** 2 + 2.0 * s**2
            res = minimize_scalar(
                integrand, bounds=(-100, 100), method="bounded", options={"xatol": 1e-12}
            )
            got = float(optimal_fr_slope(mode, r, EL))
            # golden-section localizes the argmin to ~sqrt(eps) only, but the
            # minimum value is quadratically accurate there
            assert got == pytest.approx(res.x, abs=1e-6)
            assert integrand(got) <= res.fun * (1 + 1e-10) + 1e-14
            assert abs(integrand(got) - res.fun) <= 1e-10 * max(1.0, abs(res.fun))
            # stationarity of the integrand at the closed form
            assert abs(2 * lam * (got + p) + 4 * got) <= 1e-12 * max(1.0, abs(p))

    def test_optimal_mode_profile_consistency(self, rng):
        wn = WaveNumbers(m=4, n=5, L=math.pi)
        mode = optimal_mode(wn, -0.7, 0.1, EL)
        assert float(mode.fr(1.0)) == pytest.approx(1.0, rel=1e-14)
        for r in rng.uniform(0.9, 1.1, size=5):
            assert float(mode.fr.deriv()(r)) == pytest.approx(
                float(optimal_fr_slope(mode, r, EL)), rel=1e-13
            )


class TestLinearize:
    def rand_mode(self, rng, m, n, deg=4):
        profs = [Polynomial(rng.uniform(-1, 1, size=deg + 1)) for _ in range(3)]
        wn = WaveNumbers(m=m, n=n, L=math.pi)
        return FourierMode(wn=wn, fr=profs[0], ftheta=profs[1], fz=profs[2])

    def test_fixed_point_on_affine_profiles(self, rng):
        wn = WaveNumbers(m=3, n=2, L=math.pi)
        lin = as_fourier(LinearizedMode(wn=wn, a_theta=0.4, a_z=-0.3))
        again = linearize(lin)
        r = rng.uniform(0.9, 1.1, size=6)
        for name in ("fr", "ftheta", "fz"):
            assert np.allclose(
                getattr(lin, name)(r), getattr(again, name)(r), rtol=1e-13, atol=1e-13
            )

    def test_value_and_slope_at_midsurface(self, rng):
        mode = self.rand_mode(rng, m=4, n=3)
        out = linearize(mode)
        n, mh = float(mode.wn.n), mode.wn.m_hat
        fr1 = float(mode.fr(1.0))
        assert float(out.ftheta(1.0)) == pytest.approx(float(mode.ftheta(1.0)), rel=1e-13)
        assert float(out.fz(1.0)) == pytest.approx(float(mode.fz(1.0)), rel=1e-13)
        assert float(out.ftheta.deriv()(1.0)) == pytest.approx(
            float(mode.ftheta(1.0)) + n * fr1, rel=1e-13
        )
        assert float(out.fz.deriv()(1.0)) == pytest.approx(mh * fr1, rel=1e-13)
        assert np.allclose(out.fr(np.array([0.97, 1.01])), mode.fr(np.array([0.97, 1.01])))

    def test_quotient_inflation_bounded(self, rng):
        # linearization may raise the quotient by at most a factor 1 + C h;
        # measured slack is below 0.02 h, asserted with a wide margin
        for h in (0.08, 0.02):
            geom = ShellGeometry(h=h, L=math.pi)
            count = 0
            while count < 50:
                m = int(rng.integers(1, 12))
                n = int(rng.integers(0, 10))
                mode = self.rand_mode(rng, m, n)
                base = rayleigh_r1(geom, EL, mode)
                after = rayleigh_r1(geom, EL, linearize(mode))
                assert after / base <= 1.0 + 1.0 * h
                count += 1


class TestIntegralShortcut:
    def test_on_random_polynomials(self, rng):
        # int (int_1^r f)^2 dr <= h^2/4 int f^2 dr on the wall, exactly
        for _ in range(50):
            h = rng.uniform(0.01, 0.5)
            f = Polynomial(rng.uniform(-2, 2, size=6))
            F = f.integ()
            g = (F - F(1.0)) ** 2
            lo, hi = 1 - h / 2, 1 + h / 2
            lhs = g.integ()(hi) - g.integ()(lo)
            f2 = (f**2).integ()
            rhs = h**2 / 4.0 * (f2(hi) - f2(lo))
            assert lhs <= rhs * (1 + 1e-12)


class TestParseval:
    def test_three_mode_decoupling(self, rng):
        geom = ShellGeometry(h=0.05, L=math.pi)
        wns = [WaveNumbers(m=m, n=n, L=math.pi) for (m, n) in ((1, 2), (3, 2), (2, 5))]
        modes = []
        for wn in wns:
            profs = [Polynomial(rng.uniform(-1, 1, size=3)) for _ in range(3)]
            modes.append(FourierMode(wn=wn, fr=profs[0], ftheta=profs[1], fz=profs[2]))
        per_mode = sum(mode_energy(geom, EL, mo) for mo in modes)

        # independent 3D quadrature of the superposed field's energy
        r, wr = radial_rule(geom, 24)
        ntheta = 64
        theta = np.linspace(0.0, 2 * math.pi, ntheta, endpoint=False)
        wtheta = 2 * math.pi / ntheta
        zq, wz = np.polynomial.legendre.leggauss(48)
        z = 0.5 * math.pi * (zq + 1.0)
        wz = 0.5 * math.pi * wz

        R = r[:, None, None]
        T = theta[None, :, None]
        Z = z[None, None, :]
        comps = {k: 0.0 for k in ("rr", "tt", "zz", "rt", "rz", "tz")}
        total = {k: np.zeros((len(r), ntheta, len(z))) for k in comps}
        for mo in modes:
            n, mh = float(mo.wn.n), mo.wn.m_hat
            e = strain_amplitudes(mo, r)
            ct, st = np.cos(n * T), np.sin(n * T)
            cz, sz = np.cos(mh * Z), np.sin(mh * Z)
            total["rr"] += e.rr[:, None, None] * ct * cz
            total["tt"] += e.tt[:, None, None] * ct * cz
            total["zz"] += e.zz[:, None, None] * ct * cz
            total["rt"] += e.rt[:, None, None] * st * cz
            total["rz"] += e.rz[:, None, None] * ct * sz
            total["tz"] += e.tz[:, None, None] * st * sz
        nu = EL.nu
        tr = total["rr"] + total["tt"] + total["zz"]
        dens = (
            nu / (1 - 2 * nu) * tr**2
            + total["rr"] ** 2
            + total["tt"] ** 2
            + total["zz"] ** 2
            + 2 * (total["rt"] ** 2 + total["rz"] ** 2 + total["tz"] ** 2)
        ) / (1 + nu)
        weight = (wr * r)[:, None, None] * wtheta * wz[None, None, :]
        grid_energy = float(np.sum(weight * dens))
        assert grid_energy == pytest.approx(per_mode, rel=1e-9)


class TestModeQuadrature:
    def test_energy_matches_density_quadrature(self, rng):
        # mode_energy's analytic trig factors against direct use of the
        # material density on amplitude level
        geom = ShellGeometry(h=0.03, L=math.pi)
        wn = WaveNumbers(m=3, n=4, L=math.pi)
        mode = as_fourier(optimal_mode(wn, 0.2, -0.1, EL))
        r, w = radial_rule(geom, 16)
        e = strain_amplitudes(mode, r)
        f = trig_factors(wn)
        assert f.cc == f.sc == f.cs == f.ss  # n>=1, all pi L/2
        dens = energy_density(EL, e)
        direct = f.cc * float(np.sum(w * r * dens))
        assert mode_energy(geom, EL, mode) == pytest.approx(direct, rel=1e-13)

    def test_denominators_for_flat_mode(self):
        geom = ShellGeometry(h=0.04, L=math.pi)
        wn = WaveNumbers(m=2, n=3, L=math.pi)
        mode = as_fourier(LinearizedMode(wn=wn, a_theta=0.0, a_z=0.0))
        d = mode_denominators(geom, mode)
        mh = wn.m_hat
        # f_r = 1: |phi_rz|^2 = (pi L/2) mhat^2 h; mid-surface trace identical
        want = math.pi * math.pi / 2 * mh**2 * geom.h
        assert d.phi_rz == pytest.approx(want, rel=1e-12)
        assert d.phi_rz_mid == pytest.approx(want, rel=1e-12)
        assert d.full >= d.phi_rz


class TestValidation:
    def test_geometry_bounds(self):
        with pytest.raises(ValueError):
            ShellGeometry(h=0.0, L=1.0)
        with pytest.raises(ValueError):
            ShellGeometry(h=1.5, L=1.0)
        with pytest.raises(ValueError):
            ShellGeometry(h=0.1, L=0.0)

    def test_wave_number_bounds(self):
        with pytest.raises(ValueError):
            WaveNumbers(m=0, n=0, L=math.pi)
        with pytest.raises(ValueError):
            WaveNumbers(m=1, n=-1, L=math.pi)
        wn = WaveNumbers(m=6, n=2, L=2.0)
        assert wn.m_hat == pytest.approx(3.0 * math.pi)

    def test_linearized_mode_normalization_enforced(self):
        wn = WaveNumbers(m=1, n=1, L=math.pi)
        bad = Polynomial([2.0])
        with pytest.raises(ValueError):
            LinearizedMode(wn=wn, a_theta=0.0, a_z=0.0, fr=bad)

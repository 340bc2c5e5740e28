import math

import numpy as np
import pytest

from cylbuck.errors import WindowTooSmall
from cylbuck.material import IsotropicElasticity
from cylbuck.modes import (
    BucklingModeSpec,
    check_window,
    closed_form_a_z,
    evaluate,
    harmonics,
    quotient_breakdown,
    quotient_ratio,
    synthesize,
)
from cylbuck.spectral import ShellGeometry, WaveNumbers, as_fourier, displacement, optimal_mode

EL = IsotropicElasticity(nu=0.3)


def spec_at(h, alpha=0.5, nu=0.3, L=2 * math.pi):
    return BucklingModeSpec(
        geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu), alpha=alpha
    )


class TestConstruction:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            spec_at(0.01, alpha=0.0)
        with pytest.raises(ValueError):
            spec_at(0.01, alpha=1.2)

    def test_wave_numbers_track_the_circle(self):
        spec = spec_at(0.01)
        R = 1.0 / math.sqrt(2.0 * spec.lambda_star)
        # n(h) sits within rounding distance of the circle crossing
        target = math.sqrt(spec.m_hat * (2 * R - spec.m_hat))
        assert abs(spec.n - target) <= 0.5 + 1e-12

    def test_harmonics_signs(self):
        spec = spec_at(0.01)
        h1, h2 = harmonics(spec)
        assert h2.wn.m == h1.wn.m + 2
        assert h1.wn.n == h2.wn.n == spec.n
        r = np.linspace(spec.geom.r_inner, spec.geom.r_outer, 5)
        # theta profiles exactly opposite; leading radial profile normalized
        assert np.allclose(h2.ftheta(r), -h1.ftheta(r), rtol=1e-13)
        assert float(h1.fr(1.0)) == pytest.approx(1.0, rel=1e-13)

    def test_harmonics_are_signed_optimal_modes(self):
        # each harmonic is +-as_fourier(optimal_mode(...)) at the leading
        # harmonic's a_theta and its own closed-form a_z, coefficient for coefficient
        cases = [
            (0.03, 0.5, 0.3, 2 * math.pi),
            (0.01, 0.5, 0.3, 2 * math.pi),
            (0.003, 0.25, 0.27, 7.3),
            (0.03, 1.0, 0.333, 6.2832),
            (0.02, 0.75, -0.2, 3.0),
        ]
        ns = []
        for h, alpha, nu, L in cases:
            spec = spec_at(h, alpha=alpha, nu=nu, L=L)
            n, mh0 = spec.n, spec.m_hat
            ns.append(n)
            a_theta = -n * (n**2 + (nu + 2.0) * mh0**2) / (mh0**2 + n**2) ** 2
            for harm, m, sign in zip(harmonics(spec), (spec.m, spec.m + 2), (1.0, -1.0)):
                wn = WaveNumbers(m=m, n=n, L=L)
                a_z = closed_form_a_z(nu, wn.m_hat, n, a_theta)
                want = as_fourier(optimal_mode(wn, a_theta, a_z, spec.elastic))
                assert harm.wn == wn
                for name in ("fr", "ftheta", "fz"):
                    got, expected = getattr(harm, name).coef, sign * getattr(want, name).coef
                    assert got.shape == expected.shape and np.all(got == expected), (spec, m, name)
        assert 0 in ns and max(ns) > 0

    def test_window_guard(self):
        spec = BucklingModeSpec(
            geom=ShellGeometry(h=0.003, L=math.pi), elastic=EL, alpha=1.0
        )
        with pytest.raises(WindowTooSmall):
            check_window(spec, margin=1.0)


class TestSynthesizedField:
    def test_boundary_traces_vanish(self):
        for alpha in (0.25, 0.5, 0.75):
            field = synthesize(spec_at(0.01, alpha=alpha), r_nodes=5)
            assert field.boundary_trace_max() <= 1e-12 * field.scale()

    def test_periodic_in_theta(self):
        spec = spec_at(0.01)
        r = np.array([1.0])
        z = np.linspace(0.0, spec.geom.L, 7)
        a = evaluate(spec, r, np.array([0.0]), z)
        b = evaluate(spec, r, np.array([2.0 * math.pi]), z)
        scale = max(np.abs(f).max() for f in a)
        for fa, fb in zip(a, b):
            assert np.abs(fa - fb).max() <= 1e-12 * scale

    def test_matches_sum_of_single_modes(self, rng):
        # zeroing one harmonic reproduces a linearized-family Fourier mode:
        # the synthesized field equals the sum of the two spectral-module
        # displacement evaluations
        spec = spec_at(0.02)
        h1, h2 = harmonics(spec)
        r = rng.uniform(spec.geom.r_inner, spec.geom.r_outer, size=4)
        t = rng.uniform(0.0, 2 * math.pi, size=4)
        z = rng.uniform(0.0, spec.geom.L, size=4)
        got = evaluate(spec, r, t, z)
        want = [np.zeros((4, 4, 4)) for _ in range(3)]
        for harm in (h1, h2):
            parts = displacement(harm, r[:, None, None], t[None, :, None], z[None, None, :])
            for i in range(3):
                want[i] = want[i] + parts[i]
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-12, atol=1e-13)

    def test_grid_shape_and_nyquist(self):
        spec = spec_at(0.01)
        field = synthesize(spec, r_nodes=5)
        assert field.phi_r.shape == (5, len(field.theta), len(field.z))
        assert len(field.theta) >= 8 * spec.n + 16
        assert len(field.z) >= 8 * spec.m + 16


class TestQuotient:
    def test_ratio_sequence_decreases(self):
        errs = [abs(quotient_ratio(spec_at(h)) - 1.0) for h in (0.03, 0.01, 0.003)]
        assert errs[0] > errs[1] > errs[2]

    def test_ratio_never_far_below_one(self):
        for h in (0.03, 0.01, 0.003):
            assert quotient_ratio(spec_at(h)) >= 1.0 - 0.05

    def test_per_harmonic_quotients_near_optimal(self):
        qb = quotient_breakdown(spec_at(0.003))
        for q in qb.per_harmonic:
            assert abs(q / qb.lambda_star - 1.0) <= 0.1

    def test_parseval_against_grid_quadrature(self):
        # R1 of the combined field by brute-force 3D quadrature equals the
        # per-harmonic decomposition
        spec = spec_at(0.03)
        qb = quotient_breakdown(spec)
        geom, el = spec.geom, spec.elastic

        nr, ntheta, nz = 16, 96, 160
        tq, wr = np.polynomial.legendre.leggauss(nr)
        r = 1.0 + geom.h / 2 * tq
        wr = geom.h / 2 * wr
        theta = np.linspace(0.0, 2 * math.pi, ntheta, endpoint=False)
        wt = 2 * math.pi / ntheta
        zq, wz = np.polynomial.legendre.leggauss(nz)
        z = geom.L / 2 * (zq + 1.0)
        wz = geom.L / 2 * wz

        eps = 1e-6
        pr0, _, _ = evaluate(spec, r, theta, z)
        prp, _, _ = evaluate(spec, r, theta, z + eps)
        prm, _, _ = evaluate(spec, r, theta, z - eps)
        phi_rz = (prp - prm) / (2 * eps)
        weight = (wr * r)[:, None, None] * wt * wz[None, None, :]
        denom = float(np.sum(weight * phi_rz**2))
        assert denom == pytest.approx(sum(qb.denominators), rel=1e-8)

    def test_scaling_invariance(self):
        qb = quotient_breakdown(spec_at(0.01))
        scaled = [4.0 * s for s in qb.stiffness], [4.0 * d for d in qb.denominators]
        assert sum(scaled[0]) / sum(scaled[1]) == pytest.approx(qb.quotient, rel=1e-14)

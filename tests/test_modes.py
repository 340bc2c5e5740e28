import math

import numpy as np
import pytest

from cylbuck import modes
from cylbuck.critical_load import CriticalLoadProblem
from cylbuck.errors import OutputTooLarge, WindowTooSmall
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
from cylbuck.spectral import ShellGeometry, WaveNumbers, displacement, optimal_mode


def spec_at(h, alpha=0.5, nu=0.3, L=2 * math.pi, margin=3.0):
    problem = CriticalLoadProblem(
        geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu), margin=margin
    )
    return BucklingModeSpec(problem, alpha)


class TestConstruction:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            spec_at(0.01, alpha=0.0)
        with pytest.raises(ValueError):
            spec_at(0.01, alpha=1.2)

    def test_wave_numbers_track_the_circle(self):
        spec = spec_at(0.01)
        R = 1.0 / math.sqrt(2.0 * spec.problem.lambda_star)
        # n(h) sits within rounding distance of the circle crossing
        target = math.sqrt(spec.m_hat * (2 * R - spec.m_hat))
        assert abs(spec.n - target) <= 0.5 + 1e-12

    def test_harmonics_signs(self):
        spec = spec_at(0.01)
        h1, h2 = harmonics(spec)
        assert h2.wn.m == h1.wn.m + 2
        assert h1.wn.n == h2.wn.n == spec.n
        r = np.linspace(spec.problem.geom.r_inner, spec.problem.geom.r_outer, 5)
        # theta profiles exactly opposite; leading radial profile normalized
        assert np.allclose(h2.ftheta(r), -h1.ftheta(r), rtol=1e-13)
        assert float(h1.fr(1.0)) == pytest.approx(1.0, rel=1e-13)

    def test_harmonics_are_signed_optimal_modes(self):
        # each harmonic is +-optimal_mode(...) at the leading
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
                want = optimal_mode(wn, a_theta, a_z, spec.problem.elastic)
                assert harm.wn == wn
                for name in ("fr", "ftheta", "fz"):
                    got, expected = getattr(harm, name).coef, sign * getattr(want, name).coef
                    assert got.shape == expected.shape and np.all(got == expected), (spec, m, name)
        assert 0 in ns and max(ns) > 0

    def test_window_guard(self):
        spec = spec_at(0.003, alpha=1.0, L=math.pi, margin=1.0)
        with pytest.raises(WindowTooSmall):
            check_window(spec)


class TestSynthesizedField:
    def test_boundary_traces_vanish(self):
        for alpha in (0.25, 0.5, 0.75):
            field = synthesize(spec_at(0.01, alpha=alpha), r_nodes=5)
            assert field.boundary_trace_max() <= 1e-12 * field.scale()

    def test_periodic_in_theta(self):
        spec = spec_at(0.01)
        r = np.array([1.0])
        z = np.linspace(0.0, spec.problem.geom.L, 7)
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
        geom = spec.problem.geom
        r = rng.uniform(geom.r_inner, geom.r_outer, size=4)
        t = rng.uniform(0.0, 2 * math.pi, size=4)
        z = rng.uniform(0.0, geom.L, size=4)
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


class TestGridBudget:
    """synthesize refuses a grid above _GRID_POINTS_MAX before it allocates it;
    the sizes are computed, never sampled."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("the grid was sampled")

        monkeypatch.setattr(modes, "evaluate", sampled)

    def test_budget_admits_h_1e_6_and_refuses_1e_7_and_1e_8(self):
        # L = pi, nu = 0.3, alpha = 0.5: 7.53 M, 30.4 M and 125 M points
        points = {h: modes._grid_points(spec_at(h, L=math.pi), 9) for h in (1e-6, 1e-7, 1e-8)}
        assert points == {1e-6: 7526016, 1e-7: 30366720, 1e-8: 125140032}
        assert points[1e-6] <= modes._GRID_POINTS_MAX < points[1e-7]
        for h in (1e-7, 1e-8):
            message = f"has {points[h]} points, more than the 8000000 that fit; h = 1e-06 fits"
            with pytest.raises(OutputTooLarge, match=message):
                synthesize(spec_at(h, L=math.pi))

    @pytest.mark.parametrize("margin", [3.0, 1.0])
    def test_the_named_h_fits(self, margin):
        # the named h takes both the grid and the window: at margin 1 the
        # grid of h = 1e-7 fits, but its window does not hold m + 2
        with pytest.raises(OutputTooLarge, match=r"h = ([0-9.e-]+) fits") as info:
            synthesize(spec_at(1e-8, alpha=1.0, L=math.pi, margin=margin))
        fits = float(info.value.args[0].rsplit("h = ", 1)[1].split()[0])
        spec = spec_at(fits, alpha=1.0, L=math.pi, margin=margin)
        assert modes._grid_points(spec, 9) <= modes._GRID_POINTS_MAX
        check_window(spec)
        if margin == 1.0:
            assert modes._grid_points(spec_at(1e-7, alpha=1.0, L=math.pi, margin=margin), 9) <= modes._GRID_POINTS_MAX
            with pytest.raises(WindowTooSmall):
                check_window(spec_at(1e-7, alpha=1.0, L=math.pi, margin=margin))

    @pytest.mark.parametrize("h", [1e-12, 1e-300])
    def test_the_budget_is_checked_before_the_window(self, monkeypatch, h):
        # the grid's size needs only m and n; sizing the window refuses these
        # h by its row cap (below h ~ 6.8e-12) or its axial cap (ValueError).
        # Only the larger h that the search tries have their window sized
        window = CriticalLoadProblem.window

        def sized(problem):
            assert problem.geom.h > h, "the window was sized at the refused h"
            return window(problem)

        monkeypatch.setattr(CriticalLoadProblem, "window", sized)
        with pytest.raises(OutputTooLarge, match=r"h = ([0-9.e-]+) fits") as info:
            synthesize(spec_at(h, L=math.pi))
        fits = float(info.value.args[0].rsplit("h = ", 1)[1].split()[0])
        assert h < fits < 1.0
        assert modes._grid_points(spec_at(fits, L=math.pi), 9) <= modes._GRID_POINTS_MAX

    def test_point_counts_past_2_53_print_to_three_digits(self):
        # the exact counts of h = 1e-7 and 1e-8 are pinned above
        points = modes._grid_points(spec_at(1e-300, L=math.pi), 9)
        assert points > 2**53
        with pytest.raises(OutputTooLarge) as info:
            synthesize(spec_at(1e-300, L=math.pi))
        assert info.value.args[0].startswith(f"the mode grid at h=1e-300 has {points:.3g} points, ")
        assert "has 3.84e+190 points" in info.value.args[0]

    def test_no_h_fits_a_budget_below_the_smallest_grid(self, monkeypatch):
        # every grid has at least 9 x 16 x 40 points
        monkeypatch.setattr(modes, "_GRID_POINTS_MAX", 9 * 16 * 40 - 1)
        with pytest.raises(OutputTooLarge, match="no h fits at L=6.28"):
            synthesize(spec_at(0.01))


class TestQuotient:
    def test_ratio_sequence_decreases(self):
        errs = [abs(quotient_ratio(spec_at(h)) - 1.0) for h in (0.03, 0.01, 0.003)]
        assert errs[0] > errs[1] > errs[2]

    def test_ratio_never_far_below_one(self):
        for h in (0.03, 0.01, 0.003):
            assert quotient_ratio(spec_at(h)) >= 1.0 - 0.05

    def test_per_harmonic_quotients_near_optimal(self):
        spec = spec_at(0.003)
        qb = quotient_breakdown(spec)
        for s, d in zip(qb.stiffness, qb.denominators):
            assert abs(s / d / spec.problem.lambda_star - 1.0) <= 0.1

    def test_parseval_against_grid_quadrature(self):
        # R1 of the combined field by brute-force 3D quadrature equals the
        # per-harmonic decomposition
        spec = spec_at(0.03)
        qb = quotient_breakdown(spec)
        geom = spec.problem.geom

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
        quotient = sum(qb.stiffness) / sum(qb.denominators)
        assert sum(scaled[0]) / sum(scaled[1]) == pytest.approx(quotient, rel=1e-14)

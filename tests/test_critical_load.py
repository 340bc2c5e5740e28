import dataclasses
import math

import numpy as np
import pytest

from cylbuck import critical_load
from cylbuck.critical_load import (
    BucklingResult,
    CriticalLoadProblem,
    ModeMinimum,
    classical_strain,
    classical_strain_at,
    continuous_mode_strain,
    koiter_circle,
    mode_strain_at,
    per_mode_strain,
    per_mode_strain_full,
    q0_argmin_az,
    q_forms,
    sweep,
    window_strains,
)
from cylbuck.errors import EmptySet, SingularSystem, WindowTooSmall
from cylbuck.material import IsotropicElasticity
from cylbuck.spectral import ShellGeometry, WaveNumbers, window_pairs

EL = IsotropicElasticity(nu=0.3)


def problem(h, nu=0.3, L=math.pi, **kw):
    return CriticalLoadProblem(
        geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu), **kw
    )


def q_forms_by_hand(mh, n, at, az, nu):
    """Literal transcription of the displayed wall-moment forms."""
    beta = 2.0 * (2.0 * nu / (1.0 - 2.0 * nu)) / (2.0 * nu / (1.0 - 2.0 * nu) + 2.0)
    q0 = (
        beta * (1 + n * at + mh * az) ** 2
        + 2 * (n * at + 1) ** 2
        + 2 * mh**2 * az**2
        + (mh * at + n * az) ** 2
    )
    q1s = (
        beta * (n * at + mh**2 + n**2) ** 2
        + 2 * n**2 * (at + n) ** 2
        + 2 * mh**4
        + 4 * mh**2 * (at + n) ** 2
    )
    q1 = q1s + 2 * mh * (at + n) * (mh * at + n * az)
    q2 = mh**2 * (at + n) ** 2
    return q0, q1, q1s, q2


def objective_by_hand(mh, n, at, az, nu, h, reduced):
    q0, q1, q1s, q2 = q_forms_by_hand(mh, n, at, az, nu)
    H = h * h / 12.0
    if reduced:
        num = q0 + H * q1s
    else:
        num = q0 + H * q1 + h**4 / 80.0 * q2
    return num / (2.0 * (1.0 + nu) * mh**2)


class TestQForms:
    def test_zero_amplitude_value(self):
        # Q0(0,0) = 2 Lambda/(Lambda+2) + 2 = 6/7 + 2, independent of (m,n)
        for m, n in ((1, 0), (4, 7)):
            qf = q_forms(WaveNumbers(m=m, n=n, L=math.pi), 0.0, 0.0, EL)
            assert qf.q0 == pytest.approx(2.857142857142857, rel=1e-14)

    def test_axisymmetric_zero_amplitude_q1s(self):
        wn = WaveNumbers(m=3, n=0, L=math.pi)
        qf = q_forms(wn, 0.0, 0.0, EL)
        beta = 6.0 / 7.0
        assert qf.q1_simplified == pytest.approx((beta + 2.0) * wn.m_hat**4, rel=1e-13)

    def test_q2_factored_zero(self):
        wn = WaveNumbers(m=2, n=5, L=math.pi)
        qf = q_forms(wn, -5.0, 1.3, EL)
        assert qf.q2 == pytest.approx(0.0, abs=1e-12)

    def test_against_hand_transcription(self, rng):
        for _ in range(200):
            nu = rng.uniform(-0.4, 0.45)
            el = IsotropicElasticity(nu=nu)
            wn = WaveNumbers(m=int(rng.integers(1, 20)), n=int(rng.integers(0, 20)), L=math.pi)
            at, az = rng.uniform(-5, 5, size=2)
            got = q_forms(wn, at, az, el)
            want = q_forms_by_hand(wn.m_hat, wn.n, at, az, nu)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


class TestAmplitudeMinimization:
    def test_az_closed_form(self, rng):
        # argmin of Q0 over a_z matches the closed-form expression
        for _ in range(1000):
            nu = rng.uniform(-0.45, 0.45)
            el = IsotropicElasticity(nu=nu)
            m = int(rng.integers(1, 30))
            n = int(rng.integers(0, 30))
            L = rng.uniform(1.0, 8.0)
            at = rng.uniform(-5, 5)
            wn = WaveNumbers(m=m, n=n, L=L)
            mh = wn.m_hat
            want = -mh * (2 * nu + (nu + 1) * n * at) / (2 * mh**2 + (1 - nu) * n**2)
            got = q0_argmin_az(wn, at, el)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_gradient_vanishes_at_argmin(self, rng):
        # central differences with step 1 are exact for quadratics
        for _ in range(50):
            nu = rng.uniform(-0.3, 0.45)
            el = IsotropicElasticity(nu=nu)
            h = rng.uniform(0.001, 0.2)
            wn = WaveNumbers(m=int(rng.integers(1, 15)), n=int(rng.integers(0, 15)), L=math.pi)
            for reduced in (True, False):
                mm = mode_strain_at(el, wn, h, reduced=reduced)

                def f(at, az):
                    return objective_by_hand(wn.m_hat, wn.n, at, az, nu, h, reduced)

                g_at = 0.5 * (f(mm.a_theta + 1, mm.a_z) - f(mm.a_theta - 1, mm.a_z))
                g_az = 0.5 * (f(mm.a_theta, mm.a_z + 1) - f(mm.a_theta, mm.a_z - 1))
                scale = max(abs(mm.value), 1e-3)
                assert abs(g_at) <= 1e-10 * max(scale, abs(f(mm.a_theta, mm.a_z)))
                assert abs(g_az) <= 1e-10 * max(scale, abs(f(mm.a_theta, mm.a_z)))

    def test_h_zero_degenerates_to_leading_form(self, rng):
        for _ in range(20):
            wn = WaveNumbers(m=int(rng.integers(1, 10)), n=int(rng.integers(0, 10)), L=math.pi)
            tilde = mode_strain_at(EL, wn, 0.0, reduced=True)
            full = mode_strain_at(EL, wn, 0.0, reduced=False)
            assert full.value == pytest.approx(tilde.value, rel=1e-14)
            # and the a_z closed form holds at the joint minimum of Q0
            want = q0_argmin_az(wn, tilde.a_theta, EL)
            assert tilde.a_z == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_brute_force_grid_oracle(self, rng):
        # two-stage 2001^2 grid search on [-10,10]^2, then zoomed refinement
        for _ in range(5):
            nu = rng.uniform(-0.2, 0.45)
            el = IsotropicElasticity(nu=nu)
            h = rng.uniform(0.005, 0.1)
            wn = WaveNumbers(m=int(rng.integers(1, 6)), n=int(rng.integers(0, 6)), L=math.pi)
            exact = mode_strain_at(el, wn, h, reduced=True)

            grid = np.linspace(-10.0, 10.0, 2001)
            AT, AZ = np.meshgrid(grid, grid, indexing="ij")
            vals = objective_by_hand(wn.m_hat, wn.n, AT, AZ, nu, h, True)
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            at0, az0 = grid[i], grid[j]
            span = grid[1] - grid[0]
            fine_at = np.linspace(at0 - span, at0 + span, 2001)
            fine_az = np.linspace(az0 - span, az0 + span, 2001)
            FT, FZ = np.meshgrid(fine_at, fine_az, indexing="ij")
            fvals = objective_by_hand(wn.m_hat, wn.n, FT, FZ, nu, h, True)
            best = float(fvals.min())
            assert best >= exact.value * (1 - 1e-12)
            assert best == pytest.approx(exact.value, rel=1e-6)

    def test_singularity_test_is_scale_free(self):
        # a well-conditioned diagonal 2x2 whose entries are ~1e-8: only an
        # absolute determinant threshold would call it singular
        mm = mode_strain_at(EL, WaveNumbers(m=1, n=0, L=2e4), 0.01)
        assert mm.value > 0.0

    def test_singular_form_raises_for_the_first_offending_entry(self):
        # (m00, m01, m11): det = 0 for the two singular forms, in scan order 2.0 comes first
        good, first, second = (4.0, 1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0)
        with pytest.raises(SingularSystem, match=r"m00=2\.000e\+00"):
            critical_load._minimize((*first, 0.0, 0.0, 0.0))
        chunk = tuple(np.array([[good[k], first[k]], [second[k], good[k]]]) for k in range(3))
        with pytest.raises(SingularSystem, match=r"m00=2\.000e\+00"):
            critical_load._minimize((*chunk, 0.0, 0.0, 0.0))

    def test_sandwich_inequality(self, rng):
        # (1 - h - h^2) tilde <= full <= (1 + h + h^2) tilde
        for _ in range(100):
            nu = rng.uniform(-0.3, 0.45)
            el = IsotropicElasticity(nu=nu)
            h = rng.uniform(1e-4, 0.1)
            wn = WaveNumbers(m=int(rng.integers(1, 30)), n=int(rng.integers(0, 30)), L=math.pi)
            tilde = mode_strain_at(el, wn, h, reduced=True).value
            full = mode_strain_at(el, wn, h, reduced=False).value
            assert (1 - h - h**2) * tilde <= full * (1 + 1e-12)
            assert full <= (1 + h + h**2) * tilde * (1 + 1e-12)


class TestClassicalStrain:
    def test_reference_value(self):
        # 0.01 / sqrt(3 (1 - 0.09)) evaluated independently
        want = 0.01 / math.sqrt(2.73)
        assert classical_strain_at(0.01, 0.3) == pytest.approx(want, rel=1e-15)
        assert classical_strain_at(0.01, 0.3) == pytest.approx(6.0523e-3, rel=1e-4)

    def test_nu_zero(self):
        assert classical_strain_at(0.02, 0.0) == pytest.approx(0.02 / math.sqrt(3.0), rel=1e-15)

    def test_linear_in_h(self):
        assert classical_strain_at(0.02, 0.3) == pytest.approx(
            2 * classical_strain_at(0.01, 0.3), rel=1e-15
        )


class TestContinuousSurrogate:
    def test_identity_form(self, rng):
        p = problem(0.01)
        nu, H = 0.3, p.H
        for _ in range(20):
            mh = rng.uniform(0.5, 30.0)
            n = rng.uniform(0.0, 20.0)
            s = mh * mh + n * n
            want = (mh**4 * (1 - nu**2) + H * s**4) / ((1 - nu**2) * mh**2 * s**2)
            assert continuous_mode_strain(p, mh, n) == pytest.approx(want, rel=1e-13)

    def test_equals_classical_on_circle(self, rng):
        # AM-GM equality case: the surrogate is constant = lambda_star there
        p = problem(0.01)
        R = p.koiter_radius
        for phi in rng.uniform(0.05, math.pi - 0.05, size=20):
            mh = R + R * math.cos(phi)
            n = R * math.sin(phi)
            if mh <= 0:
                continue
            assert continuous_mode_strain(p, mh, n) == pytest.approx(
                classical_strain(p), rel=1e-12
            )

    def test_circle_is_the_minimum(self, rng):
        p = problem(0.01)
        lam = classical_strain(p)
        for _ in range(200):
            mh = rng.uniform(0.2, 40.0)
            n = rng.uniform(0.0, 30.0)
            assert continuous_mode_strain(p, mh, n) >= lam * (1 - 1e-12)


class TestSweep:
    def test_winner_and_tolerances_at_reference(self):
        p = problem(0.01)
        res = sweep(p)
        lam = classical_strain(p)
        assert abs(res.strain / lam - 1) <= 0.05
        # winner must reproduce the per-mode evaluations exactly
        wn = p.wave_numbers(res.m, res.n)
        assert res.strain == per_mode_strain(p, wn).value
        assert res.strain_full == per_mode_strain_full(p, wn).value
        # circle residual within integer-rounding slack
        slack = (math.pi / (2 * p.geom.L) + 1.0) / (res.m_hat**2 + res.n**2)
        assert res.koiter_residual <= slack

    def test_ratio_sequence_decreasing(self):
        errs = []
        for h in (0.1, 0.03, 0.01):
            p = problem(h)
            errs.append(abs(sweep(p).strain / classical_strain(p) - 1))
        assert errs[0] > errs[1] > errs[2]

    def test_linear_bracket_in_h(self):
        # c h <= strain <= C h with a narrow spread of strain/h
        ratios = []
        for h in (0.001, 0.003, 0.01, 0.03, 0.1):
            p = problem(h)
            ratios.append(sweep(p).strain / h)
        assert min(ratios) > 0.1
        assert max(ratios) / min(ratios) < 2.0

    def test_thick_shell_still_finite(self):
        res = sweep(problem(0.5))
        assert res.strain > 0

    def test_window_boundary_raises(self):
        p = problem(0.01, window_override=(3, 2))
        with pytest.raises(WindowTooSmall):
            sweep(p)

    def test_deterministic_tie_break_order(self):
        # scan order guarantees the first strict minimum wins; rerunning is
        # byte-identical
        p = problem(0.02)
        r1, r2 = sweep(p), sweep(p)
        assert (r1.m, r1.n, r1.strain) == (r2.m, r2.n, r2.strain)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            BucklingResult(
                strain=-1.0, m=1, n=1, m_hat=1.0, a_theta=0.0, a_z=0.0,
                strain_full=1.0, koiter_residual=0.0,
            )


def window_problems(rng, count=24):
    """Random problems with nu in [-0.45, 0.45], L in [0.5, 50] and h log-uniform
    on [1e-7, 0.25], one h per equal stratum of log h (so some windows are
    small and keep their natural size).  A window of more than 4000 pairs is
    replaced by a random one of at most 60 x 41 pairs."""
    lo, hi = math.log(1e-7), math.log(0.25)
    for k in range(count):
        h = math.exp(lo + (k + rng.uniform()) / count * (hi - lo))
        p = problem(h, nu=float(rng.uniform(-0.45, 0.45)), L=float(rng.uniform(0.5, 50.0)))
        m_max, n_max = p.window()
        if m_max * (n_max + 1) > 4000:
            window = (int(rng.integers(8, 61)), int(rng.integers(8, 41)))
            p = dataclasses.replace(p, window_override=window)
        yield p


class TestWindowStrains:
    def test_chunks_equal_the_scalar_minimization(self, rng, monkeypatch):
        interior = 0
        for p in window_problems(rng):
            m_max, n_max = p.window()
            scalar = {
                (wn.n, wn.m): mode_strain_at(p.elastic, wn, p.geom.h, reduced=True)
                for wn in window_pairs(p.window(), p.geom.L)
            }
            # m_max: one row per chunk; 7: every row cut into column slices
            for chunk_pairs in (critical_load._CHUNK_PAIRS, m_max, 7):
                monkeypatch.setattr(critical_load, "_CHUNK_PAIRS", chunk_pairs)
                pairs = []
                for rows, cols, _, minima in window_strains(p):
                    for i, n in enumerate(rows[:, 0]):
                        for j, m in enumerate(cols):
                            want = scalar[int(n), int(m)]
                            got = ModeMinimum(*(float(a[i, j]) for a in minima))
                            assert got == want, (p, n, m, chunk_pairs)
                            pairs.append((want.value, int(n), int(m), want))
                assert [(n, m) for _, n, m, _ in pairs] == list(scalar)
                _, n, m, want = min(pairs, key=lambda t: t[:3])
                if m == m_max or n == n_max:
                    with pytest.raises(WindowTooSmall):
                        sweep(p)
                else:
                    res = sweep(p)
                    assert (res.m, res.n, res.strain, res.a_theta, res.a_z) == (m, n, *want)
            monkeypatch.undo()
            interior += m < m_max and n < n_max
        assert interior > 0

    def test_cut_rows_keep_the_winner(self, monkeypatch):
        # the winner (3, 13) lies in the second 2-pair slice of its row
        p = problem(0.001)
        want = sweep(p)
        assert (want.m, want.n) == (3, 13)
        monkeypatch.setattr(critical_load, "_CHUNK_PAIRS", 2)
        assert sweep(p) == want

    def test_ties_go_to_the_first_pair_across_chunks(self, monkeypatch):
        # every pair gets the same minimum: the strict < across chunks keeps (1, 0)
        def flat(m_hat, m_hat4, n, elastic, h, reduced):
            one = np.ones(np.broadcast_shapes(np.shape(m_hat), np.shape(n)))
            return ModeMinimum(one, 0.0 * one, 0.0 * one)

        monkeypatch.setattr(critical_load, "_mode_minimum", flat)
        for chunk_pairs in (critical_load._CHUNK_PAIRS, 7):
            monkeypatch.setattr(critical_load, "_CHUNK_PAIRS", chunk_pairs)
            res = sweep(problem(0.01))
            assert (res.m, res.n) == (1, 0)

    def test_sweep_at_small_h(self):
        # 14.9 M pairs.  |ratio - 1| is not monotone in h at this scale (0.0042 at
        # h = 1e-3, 0.0063 at 3e-4), so only its level is checked.
        p = problem(1e-6)
        res = sweep(p)
        m_max, n_max = p.window()
        assert abs(res.strain / classical_strain(p) - 1) <= 1e-3
        assert 1 < res.m < m_max and 0 < res.n < n_max


class TestKoiterCircle:
    def test_axisymmetric_point_present(self):
        # n = 0 crossing sits at mhat = sqrt(2/lambda_star) ~ 18.18 for
        # nu=0.3, h=0.01, L=pi
        p = problem(0.01)
        target = math.sqrt(2.0 / classical_strain(p))
        assert target == pytest.approx(18.178, abs=2e-3)
        found = koiter_circle(p, rel_tol=0.05)
        axi = [wn for wn in found if wn.n == 0]
        assert any(wn.m == round(target) for wn in axi)

    def test_members_are_near_optimal(self):
        p = problem(0.01)
        best = sweep(p).strain
        tol = 0.05
        for wn in koiter_circle(p, rel_tol=tol):
            val = per_mode_strain(p, wn).value
            assert val / best <= 1.0 + 5.0 * tol

    def test_sorted_by_residual(self):
        p = problem(0.01)
        R = p.koiter_radius
        found = koiter_circle(p, rel_tol=0.05)
        res = [abs(math.hypot(wn.m_hat - R, wn.n) - R) / R for wn in found]
        assert res == sorted(res)

    def test_empty_for_tiny_tolerance(self):
        with pytest.raises(EmptySet):
            koiter_circle(problem(0.01), rel_tol=1e-9)

    def test_radius_scales_inverse_sqrt(self):
        p1, p2 = problem(0.01), problem(0.02)
        # doubling lambda_star shrinks the radius by sqrt(2)
        assert p1.koiter_radius / p2.koiter_radius == pytest.approx(math.sqrt(2.0), rel=1e-12)

import dataclasses
import math
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from cylbuck import critical_load
from cylbuck.critical_load import (
    BucklingResult,
    CriticalLoadProblem,
    ModeMinimum,
    koiter_circle,
    mode_strain_at,
    per_mode_strain,
    q0_argmin_az,
    surrogate_deficit,
    sweep,
    window_strains,
)
from cylbuck.errors import EmptySet, OutputTooLarge, SingularSystem, WindowTooSmall
from cylbuck.material import IsotropicElasticity
from cylbuck.spectral import ShellGeometry, WaveNumbers
from test_spectral import window_pairs

EL = IsotropicElasticity(nu=0.3)


def problem(h, nu=0.3, L=math.pi):
    return CriticalLoadProblem(geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu))


@dataclasses.dataclass(frozen=True)
class WindowedProblem(CriticalLoadProblem):
    """A problem swept over the given (m_max, n_max) instead of its own window."""

    given: tuple = dataclasses.field(kw_only=True)

    def window(self):
        return self.given


class QForms(NamedTuple):
    q0: float
    q1: float
    q1_simplified: float
    q2: float


def _value(q, a0, a1):
    m00, m01, m11, b0, b1, c = q
    return m00 * a0 * a0 + 2.0 * m01 * a0 * a1 + m11 * a1 * a1 + 2.0 * (b0 * a0 + b1 * a1) + c


def q_forms(wn, a_theta, a_z, elastic):
    """The four wall-moment quadratic forms at given amplitudes, evaluated from
    the coefficient tuples that the sweep minimizes."""
    mh, n = wn.m_hat, float(wn.n)
    beta = critical_load._beta(elastic)
    q1s = _value(critical_load._q1s(mh, mh**4, n, beta), a_theta, a_z)
    return QForms(
        q0=_value(critical_load._q0(mh, n, beta), a_theta, a_z),
        q1=q1s + _value(critical_load._q1_cross(mh, n), a_theta, a_z),
        q1_simplified=q1s,
        q2=_value(critical_load._q2(mh, n), a_theta, a_z),
    )


def continuous_mode_strain(problem, m_hat, n):
    """Leading two-moment surrogate mhat^2/(mhat^2+n^2)^2 + H (mhat^2+n^2)^2 / ((1-nu^2) mhat^2).

    Its continuous minimum equals the classical strain, attained on the
    Koiter circle; surrogate_deficit bounds the reduced minimum below by it.
    """
    s = m_hat * m_hat + n * n
    H = problem.H
    nu = problem.elastic.nu
    return m_hat * m_hat / s**2 + H * s**2 / ((1.0 - nu * nu) * m_hat * m_hat)


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


def exact_reduced_minimum(mh, n, nu, h):
    """The reduced minimum in rational arithmetic at the given float inputs,
    from the displayed forms Q0 + (h^2/12) Q1s."""
    mh, n, nu = Fraction(mh), Fraction(n), Fraction(nu)
    beta, H, s = 2 * nu / (1 - nu), Fraction(h) ** 2 / 12, mh * mh + n * n

    def f(at, az):
        q0 = beta * (1 + n * at + mh * az) ** 2 + 2 * (1 + n * at) ** 2 + 2 * mh**2 * az**2
        q1s = beta * (s + n * at) ** 2 + 2 * n**2 * (n + at) ** 2 + 2 * mh**4 + 4 * mh**2 * (n + at) ** 2
        return q0 + (mh * at + n * az) ** 2 + H * q1s

    c = f(0, 0)
    m00, b0 = (f(1, 0) + f(-1, 0)) / 2 - c, (f(1, 0) - f(-1, 0)) / 4
    m11, b1 = (f(0, 1) + f(0, -1)) / 2 - c, (f(0, 1) - f(0, -1)) / 4
    m01 = (f(1, 1) - c - m00 - m11 - 2 * b0 - 2 * b1) / 2
    value = c - (m11 * b0 * b0 - 2 * m01 * b0 * b1 + m00 * b1 * b1) / (m00 * m11 - m01 * m01)
    return value / (2 * (1 + nu) * mh * mh)


def full_scan_sweep(p, monkeypatch):
    """sweep(p) over the whole window, or the name and message of its error."""
    with monkeypatch.context() as patch:
        patch.setattr(critical_load, "_seed_ceiling", lambda p: None)
        return sweep_outcome(p)


def sweep_outcome(p):
    try:
        return sweep(p)
    except (SingularSystem, WindowTooSmall) as exc:
        return f"{type(exc).__name__}: {exc}"


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
        assert problem(0.01, 0.3).lambda_star == pytest.approx(want, rel=1e-15)
        assert problem(0.01, 0.3).lambda_star == pytest.approx(6.0523e-3, rel=1e-4)

    def test_nu_zero(self):
        assert problem(0.02, 0.0).lambda_star == pytest.approx(0.02 / math.sqrt(3.0), rel=1e-15)

    def test_linear_in_h(self):
        assert problem(0.02, 0.3).lambda_star == pytest.approx(
            2 * problem(0.01, 0.3).lambda_star, rel=1e-15
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
                p.lambda_star, rel=1e-12
            )

    def test_circle_is_the_minimum(self, rng):
        p = problem(0.01)
        lam = p.lambda_star
        for _ in range(200):
            mh = rng.uniform(0.2, 40.0)
            n = rng.uniform(0.0, 30.0)
            assert continuous_mode_strain(p, mh, n) >= lam * (1 - 1e-12)


class TestSweep:
    def test_winner_and_tolerances_at_reference(self):
        p = problem(0.01)
        res = sweep(p)
        lam = p.lambda_star
        assert abs(res.strain / lam - 1) <= 0.05
        # winner must reproduce the per-mode evaluations exactly
        wn = p.wave_numbers(res.m, res.n)
        assert res.strain == per_mode_strain(p, wn).value
        assert res.strain_full == mode_strain_at(p.elastic, wn, p.geom.h, reduced=False).value
        # circle residual within integer-rounding slack
        slack = (math.pi / (2 * p.geom.L) + 1.0) / (res.m_hat**2 + res.n**2)
        assert res.koiter_residual <= slack

    def test_ratio_sequence_decreasing(self):
        errs = []
        for h in (0.1, 0.03, 0.01):
            p = problem(h)
            errs.append(abs(sweep(p).strain / p.lambda_star - 1))
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

    def test_non_positive_seed_raises_before_the_scan(self, monkeypatch):
        # a long thick shell: the column-buckling pairs of row n = 1 cancel
        # down to rounding, and (2, 1) reads -4.97e-6, the window minimum,
        # among 22.1 M pairs; the seeds show it, so no window pair is evaluated
        calls = []

        def counted(problem, n, m):
            calls.append(len(n))
            return pair_minima(problem, n, m)

        pair_minima = critical_load._pair_minima
        monkeypatch.setattr(critical_load, "_pair_minima", counted)
        p = problem(0.5, L=1e6)
        with pytest.raises(SingularSystem, match=r"reduced minimum -4\.969e-06 at \(m=2, n=1\) is not positive"):
            sweep(p)
        assert len(calls) == 1 and calls[0] < 10

    def test_window_boundary_raises(self):
        p = WindowedProblem(ShellGeometry(h=0.01, L=math.pi), EL, given=(3, 2))
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
            p = WindowedProblem(p.geom, p.elastic, given=window)
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
            # the default chunk, one of a row's length, and one of 7 pairs, which cuts every row
            for chunk_pairs in (critical_load._CHUNK_PAIRS, m_max, 7):
                monkeypatch.setattr(critical_load, "_CHUNK_PAIRS", chunk_pairs)
                pairs = []
                for ns, ms, _, minima in window_strains(p):
                    assert ns.size <= chunk_pairs
                    for k, (n, m) in enumerate(zip(ns, ms)):
                        want = scalar[int(n), int(m)]
                        got = ModeMinimum(*(float(a[k]) for a in minima))
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
        assert abs(res.strain / p.lambda_star - 1) <= 1e-3
        assert 1 < res.m < m_max and 0 < res.n < n_max



class TestPrunedScan:
    def test_bound_holds_on_every_window_pair(self, rng):
        for p in window_problems(rng):
            for n, _, m_hat, minima in window_strains(p):
                bound = (1.0 - surrogate_deficit(p, m_hat)) * continuous_mode_strain(p, m_hat, n)
                assert np.all(minima.value >= bound), p

    def test_bound_is_tight_at_the_origin_end(self):
        # the window's smallest reduced / surrogate, at m = 1, is within 5 % of the
        # deficit bound at h = 1e-3 and within 0.2 % at h = 1e-6
        for h, rel in ((1e-3, 0.05), (1e-6, 0.002)):
            p = problem(h)
            deficit = max(
                float(np.max(1.0 - minima.value / continuous_mode_strain(p, m_hat, n)))
                for n, _, m_hat, minima in window_strains(p, 1.5 * p.lambda_star)
            )
            assert (1.0 - rel) * surrogate_deficit(p, 1.0) <= deficit <= surrogate_deficit(p, 1.0)

    def test_rounding_margin_covers_the_computed_minima(self, rng):
        # |computed - exact| <= _ROUNDING_ULPS 2^-53 (beta + 2)(1 + H s^2) / (2 (1 + nu) mhat^2)
        worst = 0.0
        for _ in range(300):
            nu = float(rng.uniform(-0.45, 0.45))
            h = math.exp(rng.uniform(math.log(1e-9), math.log(0.3)))
            L = math.exp(rng.uniform(math.log(0.5), math.log(1e6)))
            m = int(rng.choice([1, 2, rng.integers(1, 100), rng.integers(1, 100_000)]))
            n = int(rng.choice([0, 1, 2, rng.integers(0, 40), rng.integers(0, 30_000)]))
            wn = WaveNumbers(m=m, n=n, L=L)
            got = mode_strain_at(IsotropicElasticity(nu=nu), wn, h).value
            mh, beta, H = wn.m_hat, 2.0 * nu / (1.0 - nu), h * h / 12.0
            scale = (beta + 2.0) * (1.0 + H * (mh * mh + n * n) ** 2) / (2.0 * (1.0 + nu) * mh * mh)
            ulps = float(abs(Fraction(got) - exact_reduced_minimum(mh, n, nu, h))) / (scale * 2.0**-53)
            worst = max(worst, ulps)
        assert worst <= critical_load._ROUNDING_ULPS / 4

    def test_pruned_scan_keeps_every_pair_at_or_below_the_ceiling(self, rng):
        def scan(p, ceiling=None):
            chunks = list(window_strains(p, ceiling))
            n, m, value = (np.concatenate(a) for a in zip(*((n, m, v.value) for n, m, _, v in chunks)))
            return n * (p.window()[0] + 1) + m, value  # pair keys grow in scan order

        # the L = pi windows hold the pairs at m = 1, where the bound is tight
        for p in [problem(1e-3), problem(1e-4)] + list(window_problems(rng)):
            keys, values = scan(p)
            best = values.min()
            for ceiling in [best, 1.02 * best] + list(best * (1.0 + rng.uniform(0.0, 0.5, 8))):
                kept, kept_values = scan(p, ceiling)
                assert np.all(np.diff(kept) > 0)  # scan order, each pair once
                assert np.array_equal(kept_values, values[np.searchsorted(keys, kept)])
                assert np.all(np.isin(keys[values <= ceiling], kept)), (p, ceiling)
        # a ceiling that is not positive scans the whole window
        assert np.array_equal(scan(p, 0.0)[0], keys)

    def test_pruned_sweep_equals_the_full_scan(self, rng, monkeypatch):
        problems = list(window_problems(rng))
        problems += [problem(h) for h in (1e-3, 1e-4, 1e-5, 1e-6)]
        # a long thick shell: the columns m < m1 are kept whole, and they hold
        # the winner (1, 1)
        long_shell = problem(0.3, L=2e4)
        lo, hi = critical_load._pruned_ranges(long_shell, critical_load._seed_ceiling(long_shell))
        assert hi[0, 0] > 1 and np.all(lo[:, 1:] > hi[0, 0])
        for p in problems + [long_shell]:
            assert sweep_outcome(p) == full_scan_sweep(p, monkeypatch), p

    def test_sweep_at_h_1e_8(self):
        # 1.49 G window pairs; the pruned scan evaluates about 61 k of them
        p = problem(1e-8)
        res = sweep(p)
        m_max, n_max = p.window()
        assert (res.m, res.n) == (1, 135)
        assert res.m < m_max and 0 < res.n < n_max
        assert abs(res.strain / p.lambda_star - 1) <= math.sqrt(p.geom.h)


class TestScanBudgets:
    def test_too_many_rows_are_refused_before_anything_is_allocated(self, monkeypatch):
        # 86.2 M rows; the seeds and the pruned ranges would allocate per row
        def allocated(*args):
            raise AssertionError("the window was sized or walked")

        monkeypatch.setattr(critical_load, "_annulus_ranges", allocated)
        monkeypatch.setattr(critical_load, "_range_pairs", allocated)
        start = time.perf_counter()
        message = r"h=1e-15 is too small at margin 3\.0: the window would span 8\.62e\+07 rows n, more than 2\*\*20"
        with pytest.raises(ValueError, match=message):
            sweep(problem(1e-15))
        assert time.perf_counter() - start < 1.0
        # 2.73 M rows at h = 1e-12; the default margin's 862 k rows at 1e-11 fit
        with pytest.raises(ValueError, match="rows n, more than 2\\*\\*20"):
            problem(1e-12).window()
        assert problem(1e-11).window()[1] == 862278

    @pytest.mark.parametrize("L, pairs", [(1e9, 1946157027), (1e12, 1992864825315)])
    def test_too_many_kept_pairs_are_refused_before_the_walk(self, monkeypatch, L, pairs):
        # a long shell whose seed ceiling is positive: the pruned ranges are
        # sized on the window's 29 rows, and nothing is walked
        def walked(*args):
            raise AssertionError("the window was walked")

        def sized(n, *args, **kwargs):
            assert n.size <= 29
            return annulus_ranges(n, *args, **kwargs)

        annulus_ranges = critical_load._annulus_ranges
        monkeypatch.setattr(critical_load, "_annulus_ranges", sized)
        monkeypatch.setattr(critical_load, "_range_pairs", walked)
        start = time.perf_counter()
        with pytest.raises(OutputTooLarge, match=f"would walk {pairs} pairs, more than the 33554432 that one scan walks"):
            sweep(problem(0.01, L=L))
        assert time.perf_counter() - start < 1.0

    def test_a_koiter_band_past_the_row_cap_is_refused_without_a_margin(self):
        # at h = 1e-11 the margin 4 that would hold the band spans 1.15 M rows
        message = r"no --margin holds it: at 4\.0 the window would span more than 2\*\*20 rows n$"
        with pytest.raises(WindowTooSmall, match=message):
            koiter_circle(problem(1e-11), rel_tol=3.0)

    def test_budgets_admit_the_small_h_sweeps(self):
        # 272 k rows and 4.09 M kept pairs at h = 1e-10; 191 k kept pairs at
        # h = 1e-8, L = 30
        for p in (problem(1e-10), problem(1e-8, L=30.0)):
            res = sweep(p)
            assert abs(res.strain / p.lambda_star - 1) <= math.sqrt(p.geom.h) * p.geom.L


def circle_residual(wn, R):
    """Relative distance |hypot(mhat - R, n) - R| / R of a pair from the Koiter circle of radius R."""
    return abs(math.hypot(wn.m_hat - R, wn.n) - R) / R


def band_leaves_window(p, rel_tol):
    """Whether the Koiter band's outer circle, n up to R (1 + rel_tol) and mhat
    up to (2 + rel_tol) R, reaches past the window's last row or column."""
    R = p.koiter_radius
    m_max, n_max = p.window()
    return R * (1.0 + rel_tol) >= n_max + 1 or (2.0 + rel_tol) * R * p.geom.L / math.pi >= m_max + 1


def pairwise_koiter_circle(p, rel_tol):
    """koiter_circle's band enumerated pair by pair, the reference: the sorted
    (residual, n, m) of the pairs of each row's arcs within rel_tol."""
    R = p.koiter_radius
    m_max, n_max = p.window()
    n = np.arange(math.floor(min(n_max, R * (1.0 + rel_tol))) + 1, dtype=float)
    outer, inner = (R, R * (1.0 + rel_tol)), (R, R * (1.0 - rel_tol))
    lo, hi = critical_load._annulus_ranges(n, outer, inner, math.pi / p.geom.L, 1, m_max, pad=1)
    found = []
    for row, arcs in enumerate(zip(lo.tolist(), hi.tolist())):
        for first, last in zip(*arcs):
            for m in range(first, last + 1):
                residual = circle_residual(p.wave_numbers(m, row), R)
                if residual <= rel_tol:
                    found.append((residual, row, m))
    return sorted(found)


@dataclasses.dataclass(frozen=True)
class IntegerRadius(CriticalLoadProblem):
    """A problem whose Koiter radius is exactly 10: at L = pi, where mhat = m,
    pairs at mhat = R -+ d of a row, and Pythagorean triples across rows,
    have bit-equal residuals."""

    @property
    def koiter_radius(self):
        return 10.0


def koiter_pairs(p, rel_tol):
    """The WaveNumbers of koiter_circle's pairs, in its order."""
    m, n, *_ = koiter_circle(p, rel_tol=rel_tol)
    return [p.wave_numbers(mi, ni) for mi, ni in zip(m.tolist(), n.tolist())]


class TestKoiterCircle:
    def test_axisymmetric_point_present(self):
        # n = 0 crossing sits at mhat = sqrt(2/lambda_star) ~ 18.18 for
        # nu=0.3, h=0.01, L=pi
        p = problem(0.01)
        target = math.sqrt(2.0 / p.lambda_star)
        assert target == pytest.approx(18.178, abs=2e-3)
        found = koiter_pairs(p, 0.05)
        axi = [wn for wn in found if wn.n == 0]
        assert any(wn.m == round(target) for wn in axi)

    def test_members_are_near_optimal(self):
        p = problem(0.01)
        best = sweep(p).strain
        tol = 0.05
        for wn in koiter_pairs(p, tol):
            val = per_mode_strain(p, wn).value
            assert val / best <= 1.0 + 5.0 * tol

    def test_sorted_by_residual(self):
        p = problem(0.01)
        R = p.koiter_radius
        found = koiter_pairs(p, 0.05)
        res = [abs(math.hypot(wn.m_hat - R, wn.n) - R) / R for wn in found]
        assert res == sorted(res)

    def test_empty_for_tiny_tolerance(self):
        with pytest.raises(EmptySet):
            koiter_circle(problem(0.01), rel_tol=1e-9)

    def test_overflowing_tolerance_is_refused(self):
        # R (1 + 1e308) overflows to inf; no window holds either band
        p = problem(1e-3)
        for tol in (1e300, 1e308):
            with pytest.raises(WindowTooSmall) as info:
                koiter_circle(p, rel_tol=tol)
            assert str(info.value).endswith(
                f"no --margin holds it: at {1.0 + tol!r} the window would span more than 2**53 indices m"
            )

    @pytest.mark.parametrize(
        "L, tol, window, holds",
        [
            # the band's outer circle reaches n = 1.05 R = 30.2, past n_max = 29
            (math.pi, 0.05, "m_max=58, n_max=29", "a --margin of at least 1.05 holds it"),
            # it reaches m = 2.01 R L / pi = 577.7, past m_max = 575
            (31.41592653589793, 0.01, "m_max=575, n_max=29", "a --margin of at least 1.01 holds it"),
            # margin 1 + 1e300 would span 5.75e301 indices m
            (math.pi, 1e300, "m_max=58, n_max=29",
             "no --margin holds it: at 1e+300 the window would span more than 2**53 indices m"),
        ],
        ids=["row", "column", "no-margin"],
    )
    def test_band_cut_by_the_window_is_refused_before_it_is_counted(self, monkeypatch, L, tol, window, holds):
        def counted(*args):
            raise AssertionError("the band was counted or walked")

        monkeypatch.setattr(critical_load, "_annulus_ranges", counted)
        monkeypatch.setattr(critical_load, "_range_pairs", counted)
        p = dataclasses.replace(problem(1e-3, L=L), margin=1.0)
        with pytest.raises(WindowTooSmall) as info:
            koiter_circle(p, rel_tol=tol)
        assert str(info.value) == f"the Koiter band at tolerance {tol!r} leaves the window ({window}); {holds}"

    def test_refusals_come_in_order(self, monkeypatch):
        # ValueError, WindowTooSmall, OutputTooLarge, EmptySet: the band that
        # the window cuts also holds more than _KOITER_PAIRS_MAX candidates (and
        # at tolerance inf leaves the window), and the cut band of the window
        # (10, 5) holds no pair within 1e-12
        def walked(*args):
            raise AssertionError("the band was walked")

        monkeypatch.setattr(critical_load, "_range_pairs", walked)
        # the margin-1 window cuts this band, of 25.1 M candidate pairs at margin 3
        cut = dataclasses.replace(problem(1e-8), margin=1.0)
        for tol in (math.inf, -1.0, math.nan):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                koiter_circle(cut, rel_tol=tol)
        with pytest.raises(WindowTooSmall):
            koiter_circle(cut)
        monkeypatch.undo()
        with pytest.raises(WindowTooSmall):
            koiter_circle(WindowedProblem(ShellGeometry(h=0.01, L=math.pi), EL, given=(10, 5)), rel_tol=1e-12)
        with pytest.raises(EmptySet):
            koiter_circle(problem(0.01), rel_tol=1e-12)

    @staticmethod
    def band_size(p, tol):
        """The candidate pairs of koiter_circle's band, counted from the rows' ranges."""
        return critical_load._range_size(*critical_load._koiter_band(p, tol)[1:])

    def test_band_budget_admits_h_1e_6_and_refuses_1e_7_and_1e_8(self, monkeypatch):
        # the candidate pairs are counted, never walked
        def walked(*args):
            raise AssertionError("the band was walked")

        sizes = {h: self.band_size(problem(h), 0.05) for h in (1e-6, 1e-7, 1e-8)}
        assert sizes == {1e-6: 253936, 1e-7: 2517070, 1e-8: 25100510}
        assert sizes[1e-6] <= critical_load._KOITER_PAIRS_MAX < sizes[1e-7]
        monkeypatch.setattr(critical_load, "_range_pairs", walked)
        for h in (1e-7, 1e-8):
            message = f"holds {sizes[h]} candidate pairs, more than the 2000000 that fit; tolerance"
            with pytest.raises(OutputTooLarge, match=message) as info:
                koiter_circle(problem(h))
            fits = float(info.value.args[0].rsplit("tolerance ", 1)[1].split()[0])
            assert fits < 0.05 and self.band_size(problem(h), fits) <= critical_load._KOITER_PAIRS_MAX

    def test_no_tolerance_fits_a_budget_below_the_zero_tolerance_band(self, monkeypatch):
        p = problem(0.01)
        monkeypatch.setattr(critical_load, "_KOITER_PAIRS_MAX", self.band_size(p, 0.0) - 1)
        for tol in (0.0, 0.05):
            with pytest.raises(OutputTooLarge, match="no smaller tolerance fits, a larger h does"):
                koiter_circle(p, rel_tol=tol)

    def test_radius_scales_inverse_sqrt(self):
        p1, p2 = problem(0.01), problem(0.02)
        # doubling lambda_star shrinks the radius by sqrt(2)
        assert p1.koiter_radius / p2.koiter_radius == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_band_enumeration_equals_the_window_scan(self, rng, monkeypatch):
        # every tolerance whose band the window holds, with the walk's chunks
        # cutting the rows or not; every other one is refused
        chunks = (critical_load._CHUNK_PAIRS, 7)
        fitted = refused = 0
        for p in window_problems(rng, count=12):
            R = p.koiter_radius
            for tol in (0.01, 0.05, 0.3, 1.5):
                if band_leaves_window(p, tol):
                    with pytest.raises(WindowTooSmall):
                        koiter_circle(p, rel_tol=tol)
                    refused += 1
                    continue
                want = sorted(
                    (circle_residual(wn, R), wn.n, wn.m)
                    for wn in window_pairs(p.window(), p.geom.L)
                    if circle_residual(wn, R) <= tol
                )
                for chunk in chunks:
                    monkeypatch.setattr(critical_load, "_CHUNK_PAIRS", chunk)
                    try:
                        got = [(wn.n, wn.m) for wn in koiter_pairs(p, tol)]
                    except EmptySet:
                        got = []
                    assert got == [(n, m) for _, n, m in want], (p, tol, chunk)
                fitted += 1
        assert fitted > 0 and refused > 0

    def test_equal_residuals_order_by_n_then_m(self):
        p = IntegerRadius(ShellGeometry(h=0.01, L=math.pi), EL)
        m, n, _, residual, _ = koiter_circle(p, rel_tol=0.5)
        assert len(np.unique(residual)) < len(residual) - 50
        assert list(zip(residual.tolist(), n.tolist(), m.tolist())) == pairwise_koiter_circle(p, 0.5)

    @pytest.mark.parametrize("chunk", [critical_load._CHUNK_PAIRS, 7])
    def test_array_band_equals_the_pairwise_enumeration(self, rng, monkeypatch, chunk):
        # the same pairs in the same order with bit-equal residuals, m_hat and
        # lambda3_tilde, on drawn problems and tolerances and at tol = 0 (mostly
        # EmptySet), with the walk's chunks cutting the rows or not; a band past
        # the window, as at the two overflowing tolerances, is refused
        monkeypatch.setattr(critical_load, "_CHUNK_PAIRS", chunk)
        empty = refused = 0
        for p in window_problems(rng, count=12):
            for tol in (0.0, float(rng.uniform(0.0, 0.02)), float(rng.uniform(0.02, 2.0)), 1e300, 1e308):
                if band_leaves_window(p, tol):
                    with pytest.raises(WindowTooSmall):
                        koiter_circle(p, rel_tol=tol)
                    refused += 1
                    continue
                want = pairwise_koiter_circle(p, tol)
                try:
                    m, n, m_hat, residual, value = koiter_circle(p, rel_tol=tol)
                except EmptySet:
                    assert want == [], (p, tol)
                    empty += 1
                    continue
                assert m.dtype == n.dtype == np.int64
                assert m_hat.dtype == residual.dtype == value.dtype == np.float64
                got = list(zip(residual.tolist(), n.tolist(), m.tolist()))
                assert [(r.hex(), n, m) for r, n, m in got] == [(r.hex(), n, m) for r, n, m in want], (p, tol)
                wns = list(map(p.wave_numbers, m.tolist(), n.tolist()))
                assert [x.hex() for x in m_hat.tolist()] == [wn.m_hat.hex() for wn in wns], (p, tol)
                assert [x.hex() for x in value.tolist()] == [per_mode_strain(p, wn).value.hex() for wn in wns], (p, tol)
        assert empty >= 1 and refused >= 24

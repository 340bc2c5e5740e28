import math

import numpy as np
import pytest

from cylbuck import trivial_branch
from cylbuck.errors import NoRoot, NonConvergence
from cylbuck.material import IsotropicElasticity, SymStrain, elastic_map
from cylbuck.trivial_branch import (
    StVenantKirchhoff,
    _brentq,
    _residual,
    linearized_displacement_slope,
    solve_radial_stretch,
    trivial_stress,
)


def residual_by_hand(elastic, lam, a):
    """Literal transcription of the lateral traction condition for the
    St. Venant-Kirchhoff density, written independently of the package."""
    c1 = (1.0 + a) ** 2
    c3 = (1.0 - lam) ** 2
    tr = 2.0 * (c1 - 1.0) + (c3 - 1.0)
    return elastic.lame_lambda / 4.0 * tr + elastic.mu / 2.0 * (c1 - 1.0)


class TestRadialStretch:
    def test_unloaded_state(self):
        model = StVenantKirchhoff(IsotropicElasticity(nu=0.3))
        assert solve_radial_stretch(model, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_residual_zeroed(self):
        el = IsotropicElasticity(nu=0.3)
        model = StVenantKirchhoff(el)
        for lam in (1e-4, 1e-3, 5e-3, 1e-2):
            a = solve_radial_stretch(model, lam)
            assert abs(residual_by_hand(el, lam, a)) <= 1e-12

    def test_first_order_is_poisson(self):
        model = StVenantKirchhoff(IsotropicElasticity(nu=0.3))
        lam = 1e-4
        a = solve_radial_stretch(model, lam)
        slope = linearized_displacement_slope(model)
        # quadratic remainder; C ~ 0.2 for this model, bound with margin
        assert abs(a - slope * lam) <= 1.0 * lam**2 + 1e-10

    def test_quadratic_remainder_bounded(self):
        # |a(lam) - nu lam| <= C lam^2 with stable C over the sweep
        el = IsotropicElasticity(nu=0.3)
        model = StVenantKirchhoff(el)
        cs = []
        for lam in np.geomspace(1e-4, 1e-2, 9):
            a = solve_radial_stretch(model, lam)
            cs.append(abs(a - el.nu * lam) / lam**2)
        assert max(cs) < 2.0
        assert max(cs) / min(cs) < 3.0

    def test_no_root_on_bad_bracket(self):
        model = StVenantKirchhoff(IsotropicElasticity(nu=0.3))
        with pytest.raises(NoRoot):
            solve_radial_stretch(model, 0.0, bracket=(0.2, 0.4))

    def test_tiny_residuals_of_one_sign_are_no_root(self):
        # the product of the end residuals underflows to 0.0; the sign test
        # must not let such a bracket through to the Brent iteration
        class Tiny:
            def __init__(self, sign):
                self.sign = sign

            def residual_rr(self, c1, c3):
                return self.sign * 1e-200 * (1.0 + c1)

        for sign in (1.0, -1.0):
            with pytest.raises(NoRoot):
                solve_radial_stretch(Tiny(sign), 1e-3)

    def test_custom_residual_model(self):
        # any object with residual_rr works; linear toy model with a'(0)=1/4
        class Toy:
            def residual_rr(self, c1, c3):
                return (c1 - 1.0) - 0.25 * (c3 - 1.0)

        a = solve_radial_stretch(Toy(), 1e-3)
        c1 = (1.0 + a) ** 2
        c3 = (1.0 - 1e-3) ** 2
        assert abs((c1 - 1.0) - 0.25 * (c3 - 1.0)) <= 1e-12


class TestBrent:
    """The Brent iteration in trivial_branch against scipy.optimize.brentq,
    which the package itself does not import."""

    @staticmethod
    def both(f, lo, hi):
        """Both solvers' outcomes under trivial_branch's current constants."""
        from scipy.optimize import brentq

        tb = trivial_branch
        outcomes = []
        for solve in (
            lambda: brentq(f, lo, hi, xtol=tb._XTOL, rtol=tb._RTOL, maxiter=tb._MAX_ITER),
            lambda: _brentq(f, lo, hi, f(lo), f(hi)),
        ):
            try:
                root = solve()
                outcomes.append(("root", root, math.copysign(1.0, root)))
            except RuntimeError as exc:
                outcomes.append(("RuntimeError", str(exc)))
        return outcomes

    def test_criterion_7_roots_bit_for_bit(self):
        # criterion 7's nu and lambda values, on the default and random brackets
        rng = np.random.default_rng(11)
        compared = 0
        for nu in (0.0, 0.3, 0.45):
            model = StVenantKirchhoff(IsotropicElasticity(nu=nu))
            for lam in [1e-6, -1e-6, *np.geomspace(1e-4, 1e-2, 7).tolist()]:
                def f(a):
                    return _residual(model, lam, a)

                brackets = [(-0.5, 0.5)] + [tuple(rng.uniform(-0.9, 0.9, 2).tolist()) for _ in range(8)]
                for lo, hi in brackets:
                    if f(lo) * f(hi) < 0.0:
                        want, got = self.both(f, lo, hi)
                        assert got == want, (nu, lam, lo, hi)
                        compared += 1
        assert compared >= 27

    def test_non_polynomial_roots_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(5)
        brackets = []
        for _ in range(100):
            c = float(rng.uniform(0.1, 3.0))
            lo, hi = float(rng.uniform(-5.0, 0.0)), float(rng.uniform(0.0, 5.0))

            def f(x, c=c):
                return math.exp(x) - c - math.sin(3.0 * x)

            if f(lo) * f(hi) < 0.0:
                want, got = self.both(f, lo, hi)
                assert got == want
                brackets.append((f, hi, lo))
        # scipy's default tolerances and cap, on the reversed brackets
        monkeypatch.setattr(trivial_branch, "_MAX_ITER", 100)
        monkeypatch.setattr(trivial_branch, "_XTOL", 2e-12)
        monkeypatch.setattr(trivial_branch, "_RTOL", 4 * np.finfo(float).eps)
        for f, lo, hi in brackets:
            want, got = self.both(f, lo, hi)
            assert got == want

    def test_iteration_cap_raises_like_scipy(self, monkeypatch):
        def f(x):
            return math.atan(x - 0.3) ** 3

        monkeypatch.setattr(trivial_branch, "_MAX_ITER", 3)
        want, got = self.both(f, -4.0, 5.0)
        assert got == want == ("RuntimeError", "Failed to converge after 3 iterations.")

    def test_nan_residual_is_value_error(self):
        # as scipy.optimize.brentq raised it: NaN at an end or inside the bracket
        class NanInside:
            def residual_rr(self, c1, c3):
                return math.nan if 1.0 < c1 < 1.2 else c1 - 1.0 - 0.25 * (c3 - 1.0)

        model = StVenantKirchhoff(IsotropicElasticity(nu=0.3))
        with pytest.raises(ValueError, match="NaN"):
            solve_radial_stretch(model, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            solve_radial_stretch(NanInside(), 1e-3, bracket=(-0.5, 0.9))

    def test_iteration_cap_is_non_convergence(self, monkeypatch):
        model = StVenantKirchhoff(IsotropicElasticity(nu=0.3))
        monkeypatch.setattr(trivial_branch, "_MAX_ITER", 2)
        with pytest.raises(NonConvergence, match="Failed to converge after 2 iterations"):
            solve_radial_stretch(model, 1e-3)


class TestSlope:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.45])
    def test_slope_equals_poisson(self, nu):
        model = StVenantKirchhoff(IsotropicElasticity(nu=nu))
        assert abs(linearized_displacement_slope(model) - nu) <= 1e-6


class TestTrivialStress:
    def test_unit_modulus(self):
        s = trivial_stress(IsotropicElasticity(nu=0.3, E=1.0))
        assert s.zz == -1.0
        assert s.rr == s.tt == s.rt == s.rz == s.tz == 0.0

    def test_linear_scaling(self):
        s = trivial_stress(IsotropicElasticity(nu=0.3, E=200e9))
        assert s.zz == -200e9

    def test_matches_elastic_map_of_trivial_displacement(self):
        # u = nu r e_r - z e_z has strain diag(nu, nu, -1); applying the
        # normalized tensor must give the uniaxial stress -e_z (x) e_z
        for nu in (0.0, 0.3, 0.45):
            el = IsotropicElasticity(nu=nu)
            e = SymStrain(rr=nu, tt=nu, zz=-1.0)
            s = elastic_map(el, e)
            assert s.rr == pytest.approx(0.0, abs=1e-15)
            assert s.tt == pytest.approx(0.0, abs=1e-15)
            assert s.zz == pytest.approx(-1.0, rel=1e-14)
            ref = trivial_stress(el)
            assert s.zz * el.E == pytest.approx(ref.zz, rel=1e-14)

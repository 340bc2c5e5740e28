import math

import numpy as np
import pytest

from cylbuck.errors import NoRoot
from cylbuck.material import IsotropicElasticity
from cylbuck.trivial_branch import StVenantKirchhoff, linearized_displacement_slope, solve_radial_stretch


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

    def test_non_finite_lambda_is_value_error(self):
        model = StVenantKirchhoff(IsotropicElasticity(nu=0.3))
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_radial_stretch(model, lam)

    def test_no_real_stretch_is_no_root(self):
        # (1+a)^2 = 1 + nu lam (2 - lam) <= 0; at nu = 1/8, lam = -2 it is 0.0
        for nu, lam in ((0.3, -1.2), (0.3, 4.0), (0.125, -2.0), (0.45, -1e200)):
            with pytest.raises(NoRoot):
                solve_radial_stretch(StVenantKirchhoff(IsotropicElasticity(nu=nu)), lam)

    def test_overflowing_stretch_is_overflow_error(self):
        model = StVenantKirchhoff(IsotropicElasticity(nu=-0.5))
        with pytest.raises(OverflowError):
            solve_radial_stretch(model, 1e200)

    def test_stretches_below_minus_one_half(self):
        # at nu = 0.3 the root for lam in (-1.08, -0.87) lies below a = -0.5
        el = IsotropicElasticity(nu=0.3)
        model = StVenantKirchhoff(el)
        for lam in (-1.07, -1.0, -0.9):
            a = solve_radial_stretch(model, lam)
            assert -1.0 < a < -0.5
            assert abs(residual_by_hand(el, lam, a)) <= 1e-14

    def test_closed_form_against_scipy_brentq(self):
        # criterion 7's (nu, lambda) values and random cases: the closed form
        # is the root scipy's Brent iteration finds, and it zeroes the
        # independently transcribed residual
        from scipy.optimize import brentq

        cases = [
            (nu, lam)
            for nu in (0.0, 0.3, 0.45)
            for lam in (1e-6, -1e-6, *np.geomspace(1e-4, 1e-2, 7).tolist())
        ]
        rng = np.random.default_rng(13)
        # every one of these draws has a real stretch, (1+a)^2 > 0
        cases += zip(rng.uniform(-0.9, 0.49, 1200).tolist(), rng.uniform(-0.8, 0.9, 1200).tolist())
        for nu, lam in cases:
            el = IsotropicElasticity(nu=nu)
            a = solve_radial_stretch(StVenantKirchhoff(el), lam)
            # the residual is increasing in a on (-1, 1) and changes sign there
            want = brentq(lambda x: residual_by_hand(el, lam, x), -1.0, 1.0, xtol=1e-15, rtol=8.9e-16)
            assert abs(a - want) <= 2e-15, (nu, lam)
            assert abs(residual_by_hand(el, lam, a)) <= 1e-14, (nu, lam)


class TestSlope:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.45])
    def test_slope_equals_poisson(self, nu):
        model = StVenantKirchhoff(IsotropicElasticity(nu=nu))
        assert abs(linearized_displacement_slope(model) - nu) <= 1e-6


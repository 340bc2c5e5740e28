import dataclasses
import itertools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import Polynomial, chebyshev

from cylbuck import critical_load, oracle
from cylbuck.acceptance import EQUIV_H
from cylbuck.critical_load import CriticalLoadProblem, mode_strain_at, per_mode_strain, sweep
from cylbuck.errors import (
    AssemblyDegenerate,
    BoundViolated,
    CylbuckError,
    NonConvergence,
    QuadratureUnderResolved,
    SingularSystem,
    ZeroDenominator,
)
from cylbuck.material import IsotropicElasticity
from cylbuck.oracle import (
    AnsatzRatios,
    KornRatios,
    ModePencil,
    OracleMinimum,
    RadialDiscretization,
    _leggauss_refined,
    ansatz_ratios,
    assemble_pencil,
    equivalence_scan,
    korn_mode_scan,
    min_rayleigh,
    mode_forms,
    oracle_sweep,
)
from cylbuck.spectral import (
    FourierMode,
    ShellGeometry,
    WaveNumbers,
    mode_energy,
    optimal_mode,
    trig_factors,
)
from test_spectral import mode_denominators, window_pairs

EL = IsotropicElasticity(nu=0.3)
PI = math.pi


def cheb_coeffs_on_wall(poly, geom, degree):
    """Chebyshev coefficients (on the wall's scaled variable) of a polynomial
    radial profile given in r."""
    t_to_r = Polynomial([1.0, geom.h / 2.0])
    in_t = poly(t_to_r)
    c = chebyshev.poly2cheb(in_t.coef)
    out = np.zeros(degree + 1)
    out[: len(c)] = c
    return out


def dof_vector(mode, geom, disc):
    """Pack a mode's profiles into oracle DOFs."""
    blocks = [cheb_coeffs_on_wall(mode.fr, geom, disc.degree)]
    if mode.wn.n >= 1:
        blocks.append(cheb_coeffs_on_wall(mode.ftheta, geom, disc.degree))
    blocks.append(cheb_coeffs_on_wall(mode.fz, geom, disc.degree))
    return np.concatenate(blocks)


def direct_forms(geom, elastic, wn, disc):
    """Every form of the mode by per-node quadrature in extended precision:
    each map is placed into its DOF block node by node and integrated as
    C^T diag(r w) C, independently of the oracle's radial moments."""
    t, wt = _leggauss_refined(disc.nodes)
    half = np.longdouble(geom.h) / 2
    r, w = 1 + half * t, half * wt
    V = chebyshev.chebvander(t, disc.degree)
    dV = np.stack(
        [chebyshev.chebval(t, chebyshev.chebder(np.eye(disc.degree + 1)[j])) for j in range(disc.degree + 1)],
        axis=1,
    ) / half
    k = disc.degree + 1
    names = ("r", "theta", "z") if wn.n >= 1 else ("r", "z")
    ndof = k * len(names)

    def placed(tab, name):
        C = np.zeros((len(r), ndof), dtype=np.longdouble)
        if name in names:
            i = names.index(name)
            C[:, i * k:(i + 1) * k] = tab
        return C

    def sym(C):
        M = C.T @ ((w * r)[:, None] * C)
        return 0.5 * (M + M.T)

    n, mh, nu = float(wn.n), wn.m_hat, elastic.nu
    Pr, dPr, Pt, dPt = placed(V, "r"), placed(dV, "r"), placed(V, "theta"), placed(dV, "theta")
    Pz, dPz = placed(V, "z"), placed(dV, "z")
    inv_r = (1 / r)[:, None]
    C_rr, C_tt, C_zz = dPr, (n * Pt + Pr) * inv_r, mh * Pz
    C_rt = 0.5 * (dPt - (Pt + n * Pr) * inv_r)
    C_rz = 0.5 * (dPz - mh * Pr)
    C_tz = -0.5 * (mh * Pt + n * Pz * inv_r)
    f = trig_factors(wn)
    e2 = (
        f.cc * (sym(C_rr) + sym(C_tt) + sym(C_zz))
        + 2 * f.sc * sym(C_rt) + 2 * f.cs * sym(C_rz) + 2 * f.ss * sym(C_tz)
    )
    grad2 = (
        f.cc * sym(dPr) + f.sc * sym((n * Pr + Pt) * inv_r) + f.cs * sym(mh * Pr)
        + f.sc * sym(dPt) + f.cc * sym(C_tt) + f.ss * sym(mh * Pt)
        + f.cs * sym(dPz) + f.ss * sym(n * Pz * inv_r) + f.cc * sym(C_zz)
    )
    v_mid = placed(chebyshev.chebvander(np.zeros(1), disc.degree), "r")[0]
    forms = {
        "stiffness": ((nu / (1 - 2 * nu)) * f.cc * sym(C_rr + C_tt + C_zz) + e2) / (1 + nu),
        "e2": e2,
        "grad2": grad2,
        "phi_rz": f.cs * mh**2 * sym(Pr),
        "phi_zz": f.cc * mh**2 * sym(Pz),
        "phi_tz": f.ss * mh**2 * sym(Pt),
        "phi_rz_mid": f.cs * mh**2 * geom.h * np.outer(v_mid, v_mid),
        "phi_r2": f.cc * sym(Pr),
    }
    return {name: np.asarray(M, dtype=np.float64) for name, M in forms.items()}


def arrays(pairs):
    """The pairs as the int64 arrays (n, m) that the oracle's scans walk."""
    return tuple(np.array([(wn.n, wn.m) for wn in pairs], dtype=np.int64).reshape(-1, 2).T)


def as_pairs(n, m, L):
    """The WaveNumbers of the arrays (n, m), in their order."""
    return [WaveNumbers(m=col, n=row, L=L) for row, col in zip(n.tolist(), m.tolist())]


def slices(pairs):
    """The pairs, a list in scan order, cut into the slices that the scans solve together."""
    return [pairs[s] for s in oracle._slices(arrays(pairs)[0])]


def window_slices(window, L):
    """The window's pairs in scan order, cut into the slices that the scans solve together."""
    return slices(list(window_pairs(window, L)))


def row_groups(pairs):
    """The pairs, a list in scan order, cut into the row groups that oracle._walk assembles."""
    return [pairs[g] for g in oracle._row_groups(arrays(pairs)[0])]


def sweep_pairs(geom, elastic, window, denominator, ceiling):
    """oracle._sweep_pairs as a list of WaveNumbers."""
    return as_pairs(*oracle._sweep_pairs(geom, elastic, window, denominator, ceiling), geom.L)


def walked_minima(geom, elastic, disc, denominator, pairs, ceiling=math.inf):
    """min_rayleigh of every pair in scan order, an array walked as oracle_sweep walks them (oracle._walk),
    each slice solved by oracle._slice_minima under the fixed ceiling."""
    def solve(part, forms):
        return oracle._slice_minima(part, forms["stiffness"], forms[denominator], ceiling)

    return oracle._walk(geom, elastic, disc, *arrays(pairs), ("stiffness", denominator), solve)


def walked_korn(geom, elastic, disc, pairs):
    """The Korn-type ratios of every pair in scan order, one row per pair in KornRatios' order,
    walked as korn_mode_scan walks them."""
    return oracle._korn_rows(geom, elastic, disc, *arrays(pairs))


def gaps(geom, elastic, disc, pairs):
    """oracle._full_gaps and oracle._mid_gaps of the pairs, a list in scan order:
    an array of one row (full_vs_rz, rz_vs_mid) per pair."""
    n, m = arrays(pairs)
    return np.stack([oracle._full_gaps(geom, elastic, disc, n, m), oracle._mid_gaps(geom, elastic, disc, n, m)], 1)


def recorded_assembly(monkeypatch):
    """A list that records the pairs of every oracle._slice_forms call, one list per call, from now on."""
    assembled, assemble = [], oracle._slice_forms

    def counted(geom, elastic, disc, pairs, names=oracle._FORM_NAMES):
        assembled.append(list(pairs))
        return assemble(geom, elastic, disc, pairs, names)

    monkeypatch.setattr(oracle, "_slice_forms", counted)
    return assembled


class TestPencilAssembly:
    @pytest.mark.parametrize("h", [0.1, 0.01, 0.002, 1e-4, 1e-5])
    @pytest.mark.parametrize("degree", [6, 12])
    @pytest.mark.parametrize("nodes", [None, 48])
    def test_moment_assembly_matches_direct_quadrature(self, h, degree, nodes, monkeypatch):
        # the quadratic-in-mhat assembly, up to mhat = 5000 (the h = 1e-5
        # window reaches mhat ~ 1700 at L = pi)
        if nodes is not None:
            monkeypatch.setattr(RadialDiscretization, "nodes", property(lambda self: nodes))
        geom = ShellGeometry(h=h, L=PI)
        disc = RadialDiscretization(degree=degree)
        for m, n in ((4, 0), (1, 1), (9, 12), (25, 18), (300, 2), (2000, 60), (5000, 0)):
            wn = WaveNumbers(m=m, n=n, L=PI)
            forms = mode_forms(geom, EL, wn, disc)
            want = direct_forms(geom, EL, wn, disc)
            for name in oracle._FORM_NAMES:
                got, M = getattr(forms, name), want[name]
                assert got.shape == M.shape
                assert np.abs(got - M).max() <= 1e-14 * np.abs(M).max(), (name, m, n)
            if n == 0:
                # the Korn scan skips the theta_z eigensolve on exactly this
                assert not np.any(forms.phi_tz)
                assert forms.stiffness.shape == (2 * (degree + 1),) * 2

    def test_rigid_motions_excluded(self):
        for h in (0.1, 0.01):
            geom = ShellGeometry(h=h, L=PI)
            forms = mode_forms(geom, EL, WaveNumbers(m=1, n=0, L=PI), RadialDiscretization())
            assert np.linalg.eigvalsh(forms.stiffness)[0] > 0.0

    def test_symmetry(self):
        geom = ShellGeometry(h=0.03, L=PI)
        forms = mode_forms(geom, EL, WaveNumbers(m=4, n=3, L=PI), RadialDiscretization())
        for M in (forms.stiffness, forms.e2, forms.grad2, forms.phi_rz, forms.phi_rz_mid):
            assert np.allclose(M, M.T, atol=1e-14)

    def test_quadratic_form_matches_closed_form_quadrature(self, rng):
        # same linearized mode evaluated through two independent code paths
        geom = ShellGeometry(h=0.02, L=PI)
        disc = RadialDiscretization()
        for n in (0, 3):
            wn = WaveNumbers(m=5, n=n, L=PI)
            mode = optimal_mode(wn, rng.uniform(-1, 1), rng.uniform(-1, 1), EL)
            x = dof_vector(mode, geom, disc)
            forms = mode_forms(geom, EL, wn, disc)
            want_stiff = mode_energy(geom, EL, mode)
            dens = mode_denominators(geom, mode)
            assert float(x @ forms.stiffness @ x) == pytest.approx(want_stiff, rel=1e-12)
            assert float(x @ forms.phi_rz @ x) == pytest.approx(dens.phi_rz, rel=1e-12)
            assert float(x @ forms.phi_zz @ x) == pytest.approx(dens.phi_zz, rel=1e-12)
            assert float(x @ forms.phi_rz_mid @ x) == pytest.approx(dens.phi_rz_mid, rel=1e-12)
            full = forms.phi_rz + forms.phi_zz + forms.phi_tz
            assert float(x @ full @ x) == pytest.approx(dens.full, rel=1e-12)

    def test_compression_measure_for_flat_mode(self):
        # f_r = 1, f_theta, f_z affine: the z-gradient norms have closed forms
        geom = ShellGeometry(h=0.04, L=PI)
        disc = RadialDiscretization()
        wn = WaveNumbers(m=2, n=3, L=PI)
        mh = wn.m_hat
        a_theta, a_z = 0.7, -0.4
        ftheta, fz = Polynomial([-3.0, a_theta + 3.0]), Polynomial([a_z - mh, mh])
        mode = FourierMode(wn=wn, fr=Polynomial([1.0]), ftheta=ftheta, fz=fz)
        x = dof_vector(mode, geom, disc)
        forms = mode_forms(geom, EL, wn, disc)
        half = PI * PI / 2  # theta and z trig integrals for n >= 1, m >= 1

        def wall_int(poly):
            prim = (poly * Polynomial([0.0, 1.0])).integ()
            return prim(geom.r_outer) - prim(geom.r_inner)

        want_rz = half * mh**2 * wall_int(Polynomial([1.0]) ** 2)
        want_zz = half * mh**2 * wall_int(fz**2)
        want_tz = half * mh**2 * wall_int(ftheta**2)
        assert float(x @ forms.phi_rz @ x) == pytest.approx(want_rz, rel=1e-12)
        assert float(x @ forms.phi_zz @ x) == pytest.approx(want_zz, rel=1e-12)
        assert float(x @ forms.phi_tz @ x) == pytest.approx(want_tz, rel=1e-12)

    def test_quadrature_exactness_under_refinement(self, monkeypatch):
        # truncation is zero (polynomial integrands; 1/r analytic on the
        # wall), so doubling the rule moves entries only at summation
        # roundoff level
        cases = ((0.1, (2, 1)), (0.03, (6, 4)), (0.01, (9, 12)))
        disc = RadialDiscretization(degree=12)
        modes = [(ShellGeometry(h=h, L=PI), WaveNumbers(m=m, n=n, L=PI)) for h, (m, n) in cases]
        coarse = [mode_forms(geom, EL, wn, disc) for geom, wn in modes]
        monkeypatch.setattr(RadialDiscretization, "nodes", property(lambda self: 48))
        fine = [mode_forms(geom, EL, wn, disc) for geom, wn in modes]
        for a, b in zip(coarse, fine):
            for Ma, Mb in ((a.stiffness, b.stiffness), (a.phi_rz, b.phi_rz), (a.grad2, b.grad2)):
                diff = np.abs(Ma - Mb).max()
                assert diff <= 1e-13 * np.abs(Ma).max()

    def test_slices_equal_mode_forms(self, rng, monkeypatch):
        # every form a scan requests, bit for bit and sign for sign, whether
        # or not the slice size cuts the rows (n = 0 row included)
        nu, h, L = rng.uniform(0.2, 0.4), rng.uniform(0.04, 0.1), rng.uniform(2.5, 4.0)
        geom, elastic = ShellGeometry(h=h, L=L), IsotropicElasticity(nu=nu)
        disc = RadialDiscretization(degree=8)
        window = CriticalLoadProblem(geom=geom, elastic=elastic).window()
        want = {wn: mode_forms(geom, elastic, wn, disc) for wn in window_pairs(window, L)}
        subsets = [("stiffness",), oracle._KORN_FORMS, oracle._GAP_FORMS, oracle._FORM_NAMES]
        subsets += [("stiffness", denominator) for denominator in oracle.DENOMINATORS]
        for size in (5, window[0], 32):
            monkeypatch.setattr(oracle, "_SLICE_PAIRS", size)
            slices = window_slices(window, L)
            assert [wn for s in slices for wn in s] == list(want)
            assert slices[0][0].n == 0
            for pairs in slices:
                for names in subsets:
                    forms = oracle._slice_forms(geom, elastic, disc, pairs, names)
                    assert sorted(forms) == sorted(names)
                    for i, wn in enumerate(pairs):
                        for name in names:
                            got = forms[name][i]
                            if name == "full":  # the sum of three forms on distinct blocks
                                ref = want[wn].phi_rz + want[wn].phi_zz + want[wn].phi_tz
                            else:
                                ref = getattr(want[wn], name)
                            assert np.array_equal(got, ref), (size, wn, name)
                            assert np.array_equal(np.signbit(got), np.signbit(ref)), (size, wn, name)

    @pytest.mark.parametrize("nu", [0.3, -0.2])
    def test_batched_rows_equal_mode_forms(self, rng, nu):
        # drawn pairs of many rows, in no order, built in one call each for
        # row n = 0 and the rows n >= 1: every form bit for bit and sign for sign
        geom = ShellGeometry(h=math.exp(rng.uniform(math.log(1e-4), math.log(0.05))), L=rng.uniform(0.5, 30.0))
        elastic, disc = IsotropicElasticity(nu=nu), RadialDiscretization()
        pairs = [WaveNumbers(m=int(m), n=int(n), L=geom.L) for m, n in rng.integers((1, 0), (400, 60), (40, 2))]
        pairs += [WaveNumbers(m=int(m), n=0, L=geom.L) for m in rng.integers(1, 400, 4)]
        for zero in (True, False):
            part = [wn for wn in pairs if (wn.n == 0) == zero]
            forms = oracle._slice_forms(geom, elastic, disc, part)
            for i, wn in enumerate(part):
                want = mode_forms(geom, elastic, wn, disc)
                for name in oracle._FORM_NAMES:
                    got, ref = forms[name][i], getattr(want, name)
                    assert np.array_equal(got, ref), (wn, name)
                    assert np.array_equal(np.signbit(got), np.signbit(ref)), (wn, name)
        with pytest.raises(ValueError, match="row n = 0 is assembled apart"):
            oracle._slice_forms(geom, elastic, disc, pairs)

    def test_invalid_denominator_rejected(self, monkeypatch):
        geom = ShellGeometry(h=0.03, L=PI)
        with pytest.raises(ValueError):
            assemble_pencil(geom, EL, WaveNumbers(m=1, n=1, L=PI), "bogus")

        # the sweep rejects it before any other work, its closed-form seed included
        def no_seed(*args):
            raise AssertionError("the seed ran before the denominator was checked")

        monkeypatch.setattr(oracle, "_seed_pair", no_seed)
        with pytest.raises(ValueError, match="denominator must be one of"):
            oracle_sweep(geom, EL, RadialDiscretization(), (4, 3), "bogus")


class TestSmallHAccuracy:
    """phi_rz / reduced - 1 at the closed-form sweep winner, nu = 0.3, pinned at small h.

    Each pin lies within 1e-10 of the quotient of the once-rounded forms
    of direct_forms (per-node quadrature in extended precision, each entry
    rounded once) at degrees 8 and 12.  The tolerance is the float64 noise
    budget of assembly and eigensolve: 1e-11 of the quotient at h = 1e-3
    and 1e-9 at h = 1e-4, where two correct assemblies that round
    differently were measured up to 4e-12 and 6e-10 apart.  Below h = 1e-4
    rounding sets the digits (ROADMAP item 1), so h = 1e-5 and 1e-6 only
    bound the deviation.
    """

    @staticmethod
    def deviations(L, h):
        p = CriticalLoadProblem(geom=ShellGeometry(h=h, L=L), elastic=EL)
        res = sweep(p)
        wn = p.wave_numbers(res.m, res.n)
        return [
            min_rayleigh(assemble_pencil(p.geom, EL, wn, "phi_rz", RadialDiscretization(degree))) / res.strain - 1.0
            for degree in (8, 12, 16)
        ]

    @pytest.mark.parametrize(
        "L, h, want, tol",
        [
            (PI, 1e-3, -1.810558e-5, 1e-11),
            (PI, 1e-4, -3.267e-7, 1e-9),
            (10.0, 1e-3, -3.013536e-6, 1e-11),
            (10.0, 1e-4, -1.422e-7, 1e-9),
        ],
    )
    def test_winner_deviation_pinned(self, L, h, want, tol):
        for degree, got in zip((8, 12, 16), self.deviations(L, h)):
            assert abs(got - want) <= tol, (degree, got)

    @pytest.mark.parametrize("h", [1e-5, 1e-6])
    def test_winner_deviation_bounded_below_the_pins(self, h):
        for degree, got in zip((8, 12, 16), self.deviations(PI, h)):
            assert abs(got) <= 1e-6, (degree, got)

    @pytest.mark.parametrize("L, h, m, n", [(PI, 1e-7, 1, 76), (10.0, 1e-6, 1, 24)])
    @pytest.mark.parametrize("denominator", ["phi_rz", "full"])
    def test_winner_refused_where_float64_is_off(self, L, h, m, n, denominator):
        # With _check_vanishing's absolute test removed, the degree-12 phi_rz
        # minima here answer phi_rz / reduced - 1 = +1.5e-5 (pi, 1e-7) and
        # -5.8e-7 (10, 1e-6), where the extended-precision quotient reads of
        # order 1e-9 and 2e-8: that test is today the only refusal of these
        # wrong values, whatever its error type.  This test changes when
        # ROADMAP item 1 or 11 makes these values accurate.
        p = CriticalLoadProblem(geom=ShellGeometry(h=h, L=L), elastic=EL)
        res = sweep(p)
        wn = p.wave_numbers(res.m, res.n)
        assert (wn.m, wn.n) == (m, n)
        with pytest.raises(CylbuckError):
            min_rayleigh(assemble_pencil(p.geom, EL, wn, denominator, RadialDiscretization()))


class TestMinRayleigh:
    def test_identical_forms_give_one(self):
        geom = ShellGeometry(h=0.02, L=PI)
        pencil = assemble_pencil(geom, EL, WaveNumbers(m=3, n=2, L=PI), "phi_rz")
        unit = ModePencil(wn=pencil.wn, A=pencil.A, B=pencil.A, denominator="phi_rz")
        assert min_rayleigh(unit) == pytest.approx(1.0, rel=1e-10)

    def test_zero_denominator_raises(self):
        geom = ShellGeometry(h=0.02, L=PI)
        pencil = assemble_pencil(geom, EL, WaveNumbers(m=3, n=2, L=PI), "phi_rz")
        broken = ModePencil(wn=pencil.wn, A=pencil.A, B=0.0 * pencil.B, denominator="phi_rz")
        with pytest.raises(ZeroDenominator):
            min_rayleigh(broken)

    def test_indefinite_stiffness_raises_typed_error(self):
        A = np.diag([2.0, -1.0, 3.0])
        pencil = ModePencil(wn=WaveNumbers(m=1, n=1, L=PI), A=A, B=np.eye(3), denominator="phi_rz")
        with pytest.raises(AssemblyDegenerate):
            min_rayleigh(pencil)

    @pytest.mark.parametrize("form", ["A", "B"])
    def test_non_finite_rejected(self, form):
        geom = ShellGeometry(h=0.02, L=PI)
        pencil = assemble_pencil(geom, EL, WaveNumbers(m=3, n=2, L=PI), "full")
        M = getattr(pencil, form).copy()
        M[1, 2] = M[2, 1] = math.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            min_rayleigh(dataclasses.replace(pencil, **{form: M}))

    def test_richer_space_never_above_closed_form(self):
        # on Koiter-circle wave numbers at h=0.01 the oracle sits within 5%
        # below the reduced closed form
        geom = ShellGeometry(h=0.01, L=PI)
        p = CriticalLoadProblem(geom=geom, elastic=EL)
        from cylbuck.critical_load import koiter_circle

        m, n, *_ = koiter_circle(p, rel_tol=0.03)
        for wn in map(p.wave_numbers, m[:5].tolist(), n[:5].tolist()):
            closed = per_mode_strain(p, wn).value
            got = min_rayleigh(assemble_pencil(geom, EL, wn, "phi_rz"))
            assert got <= closed * (1 + 1e-10)
            assert got >= closed * 0.95

    def test_spectral_convergence_in_degree(self):
        geom = ShellGeometry(h=0.01, L=PI)
        wn = WaveNumbers(m=9, n=12, L=PI)
        v12 = min_rayleigh(assemble_pencil(geom, EL, wn, "phi_rz", RadialDiscretization(12)))
        v24 = min_rayleigh(assemble_pencil(geom, EL, wn, "phi_rz", RadialDiscretization(24)))
        assert abs(v12 / v24 - 1) < 1e-8

    def test_enrichment_monotonicity(self):
        geom = ShellGeometry(h=0.05, L=PI)
        wn = WaveNumbers(m=4, n=6, L=PI)
        vals = [
            min_rayleigh(assemble_pencil(geom, EL, wn, "phi_rz", RadialDiscretization(p)))
            for p in (4, 6, 8, 12)
        ]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1 + 1e-12)


class TestSliceMinima:
    """The one slice solve behind every window minimum and min_rayleigh, on the three shapes of B.

    rank-one: scale * outer(v, v), as phi_rz_mid; block: supported on the
    DOFs 0 and 2, not trailing, so the factorization reorders the DOFs, as
    phi_rz; full: positive definite on every DOF, as the full denominator.
    """

    PAIRS = [WaveNumbers(m=m, n=2, L=PI) for m in range(1, 5)]
    SHAPES = {
        "rank-one": np.outer([1.0, 0.5, -1.0], [1.0, 0.5, -1.0]),
        "block": np.array([[2.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0]]),  # positive definite on 0, 2
        "full": np.array([[2.0, 0.3, 0.5], [0.3, 1.0, -0.2], [0.5, -0.2, 1.0]]),  # positive definite
    }

    @pytest.fixture(params=list(SHAPES))
    def W(self, request):
        return self.SHAPES[request.param]

    def inputs(self):
        A = np.stack([np.diag([2.0, 3.0, 4.0]) + 0.5 for _ in self.PAIRS])
        return A, np.ones(len(self.PAIRS))

    @staticmethod
    def forms(W, scale):
        """The destabilizing forms B[i] = scale[i] * W."""
        with np.errstate(invalid="ignore"):  # an infinite scale leaves NaNs where W is 0
            return scale[:, None, None] * W

    def minima(self, W, A, scale):
        return oracle._slice_minima(self.PAIRS, A, self.forms(W, scale))

    def test_matches_eigensolve(self, W):
        A, _ = self.inputs()
        scale = np.array([1.0, 2.0, 0.5, 3.0])
        got = self.minima(W, A, scale)
        for value, wn, a, b in zip(got, self.PAIRS, A, self.forms(W, scale)):
            want = 1.0 / scipy.linalg.eigh(b, a, eigvals_only=True)[-1]
            assert value == pytest.approx(want, rel=1e-14)
            assert value == min_rayleigh(ModePencil(wn=wn, A=a, B=b, denominator="phi_rz"))  # the one-pair case

    @pytest.mark.parametrize("where", ["stiffness", "scale"])
    def test_non_finite_rejected(self, W, where):
        A, scale = self.inputs()
        if where == "stiffness":
            A[2, 1, 1] = math.nan
        else:
            scale[2] = math.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            self.minima(W, A, scale)

    def test_first_indefinite_pair_named(self, W):
        A, scale = self.inputs()
        A[1, 0, 0] = A[3, 0, 0] = -1.0
        with pytest.raises(AssemblyDegenerate, match=r"WaveNumbers\(m=2, n=2"):
            self.minima(W, A, scale)

    def test_vanishing_denominator_raises(self, W):
        for tiny in (1e-17, 0.0):  # identically zero included
            A, scale = self.inputs()
            scale[2] = scale[3] = tiny
            with pytest.raises(ZeroDenominator, match=r"vanishes for WaveNumbers\(m=3, n=2"):
                self.minima(W, A, scale)

    def test_non_positive_denominator_raises(self, W):
        # at -3 the rank-one form's null space solves to a positive rounding
        # error (+6e-17 beside -2.3), which must count as zero too
        for negative in (-1.0, -3.0):
            A, scale = self.inputs()
            scale[1] = scale[3] = negative
            with pytest.raises(ZeroDenominator, match=r"not positive on WaveNumbers\(m=2, n=2"):
                self.minima(W, A, scale)

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_window_matches_min_rayleigh(self, denominator):
        # every pair of the h = 0.02 window: the scan and min_rayleigh are
        # one solve, bit for bit, and agree with scipy's generalized
        # eigensolve on the whole pencil (the block-reduced solves to 1e-12)
        rel = 1e-14 if denominator == "full" else 1e-12
        geom = ShellGeometry(h=0.02, L=PI)
        disc = RadialDiscretization()
        window = CriticalLoadProblem(geom=geom, elastic=EL).window()
        for pairs in window_slices(window, PI):
            got = walked_minima(geom, EL, disc, denominator, pairs)
            for value, wn in zip(got, pairs):
                pencil = assemble_pencil(geom, EL, wn, denominator, disc)
                assert np.float64(value).tobytes() == np.float64(min_rayleigh(pencil)).tobytes(), wn
                want = 1.0 / scipy.linalg.eigh(pencil.B, pencil.A, eigvals_only=True)[-1]
                assert abs(value / want - 1.0) <= rel, wn


def reference_korn(h, e2, grad2, phi_rz, phi_tz, phi_r2):
    """Korn ratios of one mode from full-vector generalized eigensolves on the full pencils."""
    vals, vecs = scipy.linalg.eigh(e2, grad2)
    korn, extremals = vals[0], [vecs[:, 0]]
    vals, vecs = scipy.linalg.eigh(phi_rz, e2)
    r_z = vals[-1]
    extremals.append(vecs[:, -1])
    theta_z = 0.0
    if np.any(phi_tz):
        vals, vecs = scipy.linalg.eigh(phi_tz, e2)
        theta_z = vals[-1]
        extremals.append(vecs[:, -1])
    weighted = 0.0
    for x in extremals:
        e2_x = x @ e2 @ x
        bound = (math.sqrt(x @ phi_r2 @ x) / h + math.sqrt(e2_x)) * math.sqrt(e2_x)
        weighted = max(weighted, (x @ grad2 @ x) / bound)
    return KornRatios(korn=korn, theta_z=theta_z, r_z=r_z, weighted=weighted)


class TestBlockReduction:
    """Forms that live on one or two DOF blocks are solved on those blocks."""

    def test_scans_match_full_pencils(self, rng):
        # two drawn windows, the second with nu < 0, each with the first
        # multi-row group of the window cut to its first 8 columns fed to the
        # kernels at once and the rest a slice at a time, and the first and
        # last rows of the h = 0.005 window, the smallest h of criterion 5
        drawn = [(rng.uniform(*nu), rng.uniform(0.03, 0.1), rng.uniform(2.5, 4.0))
                 for nu in ((0.2, 0.4), (-0.45, -0.05))]
        for nu, h, L in drawn + [(0.3, 0.005, PI)]:
            geom, elastic = ShellGeometry(h=h, L=L), IsotropicElasticity(nu=nu)
            window = CriticalLoadProblem(geom=geom, elastic=elastic).window()
            pairs = list(window_pairs(window, L))
            if h == 0.005:
                batches = []
                pairs = [wn for wn in pairs if wn.n in (0, window[1])]
            else:
                first = [wn for wn in pairs if wn.m <= 8]
                group = next(group for group in row_groups(first) if group[0].n != group[-1].n)
                batches, grouped = [group], set(group)
                pairs = [wn for wn in pairs if wn not in grouped]
            batches += slices(pairs)
            assert pairs[0].n == 0
            self.assert_scans_match_full_pencils(geom, elastic, RadialDiscretization(), batches)

    @staticmethod
    def assert_scans_match_full_pencils(geom, elastic, disc, batches):
        for pairs in batches:
            korn = walked_korn(geom, elastic, disc, pairs)
            walked_gaps = gaps(geom, elastic, disc, pairs)
            phi_rz = walked_minima(geom, elastic, disc, "phi_rz", pairs)  # every slice solved
            # cc M on the r block: the pairs of a batch share cc and their blocks
            phi_r2 = direct_forms(geom, elastic, pairs[0], disc)["phi_r2"]
            for i, wn in enumerate(pairs):
                f = mode_forms(geom, elastic, wn, disc)
                want = reference_korn(geom.h, f.e2, f.grad2, f.phi_rz, f.phi_tz, phi_r2)
                for field, got, value in zip(want._fields, korn[i], want):
                    assert got == pytest.approx(value, rel=1e-10, abs=0.0), (wn, field)
                full_vs_rz = scipy.linalg.eigh(f.phi_zz + f.phi_tz, f.stiffness, eigvals_only=True)[-1]
                mid = scipy.linalg.eigh(f.phi_rz - f.phi_rz_mid, f.stiffness, eigvals_only=True)
                assert walked_gaps[i, 0] == pytest.approx(full_vs_rz, rel=1e-10), wn
                assert walked_gaps[i, 1] == pytest.approx(max(abs(mid[0]), abs(mid[-1])), rel=1e-10), wn
                rz = scipy.linalg.eigh(f.phi_rz, f.stiffness, eigvals_only=True)[-1]
                assert phi_rz[i] == pytest.approx(1.0 / rz, rel=1e-10), wn

    def test_reducers_are_python_extrema_bit_for_bit(self, rng, monkeypatch):
        # two drawn windows, the second with nu < 0: the Korn and gap scans'
        # column extrema equal, by float.hex, Python's min and max over the
        # walked rows, the coefficient divided by WaveNumbers.m_hat sqrt(h);
        # then each pair's coefficient alone (every other gap zero) is the
        # supremum, so a rounding change at any pair fails.  full_vs_rz, the
        # pruned supremum, is checked once; the loop patches it out
        disc = RadialDiscretization(6)
        for nu in ((0.2, 0.4), (-0.45, -0.05)):
            geom = ShellGeometry(h=rng.uniform(0.05, 0.1), L=rng.uniform(2.5, 4.0))
            elastic = IsotropicElasticity(nu=rng.uniform(*nu))
            window = CriticalLoadProblem(geom=geom, elastic=elastic).window()
            pairs = list(window_pairs(window, geom.L))
            korn = walked_korn(geom, elastic, disc, pairs).tolist()
            walked_gaps = gaps(geom, elastic, disc, pairs)
            rows = walked_gaps.tolist()
            want = [min(r[0] for r in korn)] + [max(r[j] for r in korn) for j in (1, 2, 3)]
            got = korn_mode_scan(geom, elastic, disc, window)
            assert [float(v).hex() for v in got] == [v.hex() for v in want], (nu, window)
            scan = equivalence_scan(geom, elastic, disc, window)
            coef = [g[1] / (wn.m_hat * math.sqrt(geom.h)) for g, wn in zip(rows, pairs)]
            assert float(scan.full_vs_rz).hex() == max(g[0] for g in rows).hex(), (nu, window)
            assert float(scan.rz_vs_mid_coef).hex() == max(coef).hex(), (nu, window)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "full_vs_rz_supremum", lambda *args: 0.0)
                for k, wn in enumerate(pairs):
                    alone = np.where(np.arange(len(pairs)) == k, walked_gaps[:, 1], 0.0)
                    patch.setattr(oracle, "_mid_gaps", lambda *args: alone)
                    got = equivalence_scan(geom, elastic, disc, window).rz_vs_mid_coef
                    assert float(got).hex() == coef[k].hex(), (nu, wn)

    def test_indefinite_block_form_keeps_both_extremes(self):
        # phi_rz - phi_rz_mid takes both signs on the r block
        geom, disc = ShellGeometry(h=0.05, L=PI), RadialDiscretization()
        pairs = [WaveNumbers(m=m, n=n, L=PI) for n in (0, 3) for m in (1, 4)]
        for wn in pairs:
            f = mode_forms(geom, EL, wn, disc)
            D = f.phi_rz - f.phi_rz_mid
            want = scipy.linalg.eigh(D, f.stiffness, eigvals_only=True)
            assert want[0] < 0.0 < want[-1]
            k = disc.degree + 1
            got = oracle._block_eigh([wn], f.stiffness[None], D[None, :k, :k], np.arange(k))[0]
            assert got[0] == pytest.approx(want[0], rel=1e-10), wn
            assert got[-1] == pytest.approx(want[-1], rel=1e-10), wn

    @staticmethod
    def break_forms(monkeypatch, name, value=None, at=((2, 1), (4, 2))):
        """Make form name indefinite at the pairs (m, n) at of every slice that holds them,
        or set its first entry there to value."""
        assemble = oracle._slice_forms

        def patched(geom, elastic, disc, pairs, names=oracle._FORM_NAMES):
            forms = assemble(geom, elastic, disc, pairs, names)
            for i, wn in enumerate(pairs):
                if (wn.m, wn.n) in at and name in forms:
                    forms[name][i, 0, 0] = -forms[name][i, 0, 0] if value is None else value
            return forms

        monkeypatch.setattr(oracle, "_slice_forms", patched)

    # the (6, 3) window in scan order: rows n = 0 to 3 of m = 1 to 6, row
    # n = 0 assembled alone and rows 1 to 3 as one group of three slices
    @pytest.mark.parametrize("broken, named", [
        ([(2, 1), (4, 2)], (2, 1)),  # break_forms' pairs, in two slices
        ([(5, 2)], (5, 2)),  # one pair
        ([(3, 3), (5, 2)], (5, 2)),  # the earlier pair in scan order, a slice before the other
        ([(6, 1), (1, 1)], (1, 1)),  # both in one slice
        ([(2, 0), (1, 1)], (2, 0)),  # row n = 0, a row group before the other
    ], ids=["two-slices", "one-pair", "later-first", "one-slice", "row-0"])
    @pytest.mark.parametrize("name", ["e2", "grad2"])
    def test_korn_scan_names_first_indefinite_pair(self, monkeypatch, name, broken, named):
        # e2 is factored for the block ratios and korn, grad2 by its own batched check
        self.break_forms(monkeypatch, name, at=broken)
        m, n = named
        message = rf"^{name} not positive definite for WaveNumbers\(m={m}, n={n}, "
        with pytest.raises(AssemblyDegenerate, match=message):
            korn_mode_scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (6, 3))

    @pytest.mark.parametrize("failing, ratio, named", [
        ((22,), "korn", (4, 1)),
        ((22, 40), "korn", (4, 1)),
        ((5, 19), "korn", (3, 0)),
        ((6,), "r_z", (3, 0)),
        ((24, 40), "theta_z", (4, 1)),
    ], ids=["one-pair", "two-slices", "row-0", "r_z", "theta_z"])
    def test_korn_scan_names_first_unconverged_pair(self, monkeypatch, failing, ratio, named):
        # dsyevr, called in scan order for korn and r_z at each pair of row
        # n = 0 (m = 1 to 6: calls 1 to 12) and for korn, r_z and theta_z at
        # each pair of rows 1 to 3, reports failure on the calls numbered
        # failing: call 22 is korn at (4, 1), 24 theta_z there, 40 korn at
        # (4, 2), in the next slice of the same row group, 5 korn and 6 r_z at
        # (3, 0), and 19 korn at (3, 1); the scan stops at the first
        dsyevr, calls = scipy.linalg.lapack.dsyevr, []

        def reported(*args, **kwargs):
            calls.append(args[0].shape)
            *out, info = dsyevr(*args, **kwargs)
            return (*out, 1 if len(calls) in failing else info)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", reported)
        m, n = named
        message = rf"^{ratio} eigenvector did not converge for WaveNumbers\(m={m}, n={n}, "
        with pytest.raises(NonConvergence, match=message):
            korn_mode_scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (6, 3))
        assert len(calls) == failing[0]
        # korn on 2 or 3 blocks of degree 6, r_z and theta_z on one
        last = (7, 7) if ratio != "korn" else (14, 14) if n == 0 else (21, 21)
        assert calls[0] == (14, 14) and calls[-1] == last

    def test_gap_scan_names_first_indefinite_pair(self, monkeypatch):
        self.break_forms(monkeypatch, "stiffness")
        with pytest.raises(AssemblyDegenerate, match=r"stiffness not positive definite for WaveNumbers\(m=2, n=1,"):
            equivalence_scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (6, 3))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["e2", "grad2", "stiffness"])
    def test_non_finite_form_rejected(self, monkeypatch, name, value):
        # e2 and grad2 feed the Korn scan, the stiffness the gap scan
        self.break_forms(monkeypatch, name, value)
        scan = equivalence_scan if name == "stiffness" else korn_mode_scan
        with pytest.raises(ValueError, match="infs or NaNs"):
            scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (6, 3))

    @pytest.mark.parametrize("scan", ["full", "korn", "phi_rz", "phi_rz_mid", "gap"])
    def test_unconverged_solve_raises(self, monkeypatch, scan):
        # the Korn ratio solves by dsyevr; the window minima and both gaps end in eigvalsh
        geom, disc = ShellGeometry(h=0.05, L=PI), RadialDiscretization(6)
        oracle._cheb_tables(geom.h, disc.degree, disc.nodes)  # its Gauss rule calls eigvalsh: cache it first
        if scan == "korn":
            dsyevr = scipy.linalg.lapack.dsyevr

            def unconverged(*args, **kwargs):
                *out, _ = dsyevr(*args, **kwargs)
                return (*out, 1)

            monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", unconverged)
        else:
            def unconverged(*args, **kwargs):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        with pytest.raises(NonConvergence, match=r"for WaveNumbers\(m=1, n=0,"):
            if scan == "korn":
                korn_mode_scan(geom, EL, disc, (3, 2))
            elif scan == "gap":
                equivalence_scan(geom, EL, disc, (3, 2))
            else:
                oracle_sweep(geom, EL, disc, (3, 2), scan)


def _sym(C, rw):
    # stays in the tables' extended precision; callers cast once at the end
    M = C.T @ (rw[:, None] * C)
    return 0.5 * (M + M.T)


def assemble_reduced_pencil(geom, elastic, wn, disc=RadialDiscretization()):
    """Pencil of the pruned-strain functional on linearized modes.

    DOFs are the f_r coefficients plus (a_theta, a_z) (a_theta dropped for
    n = 0).  Minimizing its Rayleigh quotient must reproduce the closed-form
    per-mode strain exactly: same finite-dimensional problem, independent
    code path.
    """
    r, w, V, dV, v_mid, _ = oracle._cheb_tables(geom.h, disc.degree, disc.nodes)
    k = disc.degree + 1
    n = float(wn.n)
    mh = wn.m_hat
    has_theta = wn.n >= 1
    ndof = k + (2 if has_theta else 1)
    q = len(r)
    i_at = k if has_theta else None
    i_az = k + 1 if has_theta else k

    sq = np.sqrt(r)
    fr1 = np.broadcast_to(v_mid, (q, k))  # f_r(1) as a map of the r-coefficients

    def zeros():
        return np.zeros((q, ndof), dtype=r.dtype)

    E_rr = zeros()
    E_rr[:, :k] = dV / sq[:, None]

    E_tt = zeros()
    E_tt[:, :k] = ((r - 1.0) * n**2 + 1.0)[:, None] / sq[:, None] * fr1
    if has_theta:
        E_tt[:, i_at] = n * r / sq

    E_tz = zeros()
    E_tz[:, :k] = -((r**2 - 1.0) * mh * n)[:, None] / (2.0 * sq[:, None]) * fr1
    if has_theta:
        E_tz[:, i_at] = -mh * r**2 / (2.0 * sq)
    E_tz[:, i_az] = -n / (2.0 * sq)

    E_zz = zeros()
    E_zz[:, :k] = ((r - 1.0) * mh**2)[:, None] / sq[:, None] * fr1
    E_zz[:, i_az] = mh / sq

    f = trig_factors(wn)
    rw = w * r
    nu = elastic.nu
    S_tr = _sym(E_rr + E_tt + E_zz, rw)
    A = np.asarray(
        (
            (nu / (1.0 - 2.0 * nu)) * f.cc * S_tr
            + f.cc * (_sym(E_rr, rw) + _sym(E_tt, rw) + _sym(E_zz, rw))
            + 2.0 * f.ss * _sym(E_tz, rw)
        )
        / (1.0 + nu),
        dtype=np.float64,
    )

    v = np.zeros(ndof, dtype=v_mid.dtype)
    v[:k] = v_mid
    B = np.asarray(f.cs * mh**2 * geom.h * np.outer(v, v), dtype=np.float64)
    return ModePencil(wn=wn, A=A, B=B, denominator="phi_rz_mid")


class TestReducedPencil:
    @pytest.mark.parametrize("mn", [(1, 4), (13, 9), (18, 1), (5, 0)])
    def test_matches_closed_form_minimum(self, mn):
        # same finite-dimensional problem through two independent routes
        geom = ShellGeometry(h=0.01, L=PI)
        p = CriticalLoadProblem(geom=geom, elastic=EL)
        wn = WaveNumbers(m=mn[0], n=mn[1], L=PI)
        closed = mode_strain_at(p.elastic, wn, p.geom.h, reduced=False).value
        eig = min_rayleigh(assemble_reduced_pencil(geom, EL, wn))
        assert eig == pytest.approx(closed, rel=1e-8)


class TestOracleSweep:
    def test_agrees_with_closed_form_and_sits_below(self):
        geom = ShellGeometry(h=0.02, L=PI)
        p = CriticalLoadProblem(geom=geom, elastic=EL)
        from cylbuck.critical_load import sweep

        res = sweep(p)
        om = oracle_sweep(geom, EL, RadialDiscretization(), p.window())
        assert abs(om.value / res.strain - 1) <= 0.1
        at_winner = min_rayleigh(assemble_pencil(geom, EL, p.wave_numbers(res.m, res.n), "phi_rz"))
        assert at_winner <= res.strain * (1 + 1e-8)

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    @pytest.mark.parametrize("h", [0.02, 1e-3])
    def test_jobs_leaves_the_sweep_unchanged(self, caplog, h, denominator):
        # jobs is accepted and ignored: the value's bytes, the pair and the
        # DEBUG counts are those of jobs=1
        p = CriticalLoadProblem(geom=ShellGeometry(h=h, L=PI), elastic=EL)
        args = (p.geom, EL, RadialDiscretization(), p.window(), denominator)
        serial, serial_counts = sweep_log(caplog, *args, jobs=1)
        got, counts = sweep_log(caplog, *args, jobs=4)
        assert got == serial
        assert np.float64(got.value).tobytes() == np.float64(serial.value).tobytes()
        assert counts == serial_counts

    @pytest.mark.parametrize("scan", [korn_mode_scan, equivalence_scan, oracle.full_vs_rz_supremum, oracle_sweep])
    def test_whole_window_scans_assemble_once_per_row_group(self, monkeypatch, scan):
        # the h = 0.02 window has 21 rows of 39 pairs: row n = 0 alone, then
        # the rows n >= 1 one at a time (2 x 39 > 64 pairs), so 21 groups; the
        # window cut to its first 10 columns joins six rows (6 x 10 <= 64).
        # The pruned scans assemble once per row group of the pairs they
        # solve; oracle_sweep assembles its seed alone, first, and walks the
        # kept pairs without it; equivalence_scan walks the whole window,
        # then full_vs_rz_supremum's pairs.
        geom, disc = ShellGeometry(h=0.02, L=PI), RadialDiscretization(6)
        window = CriticalLoadProblem(geom=geom, elastic=EL).window()
        assert window == (39, 20)
        groups = row_groups(list(window_pairs(window, PI)))
        assert [len(group) for group in groups] == [39] * 21
        first = row_groups([wn for wn in window_pairs(window, PI) if wn.m <= 10])
        assert [len(group) for group in first] == [10, 60, 60, 60, 20]
        swept = {}
        for denominator in oracle.DENOMINATORS:
            ceiling = seeded_ceiling(geom, EL, disc, window, denominator)
            kept = sweep_pairs(geom, EL, window, denominator, ceiling)
            seed = oracle._seed_pair(geom, EL, window)
            assert seed in kept
            swept[denominator] = [[seed]] + row_groups([wn for wn in kept if wn != seed])
        assembled = recorded_assembly(monkeypatch)
        if scan is oracle_sweep:
            for denominator, want in swept.items():
                assembled.clear()
                scan(geom, EL, disc, window, denominator)
                assert assembled == want, denominator
                assert len(assembled) < len(groups), denominator
            return
        scan(geom, EL, disc, window)
        if scan is not korn_mode_scan:  # column m = 1 whole, then the pairs the gap bound keeps
            whole = groups if scan is equivalence_scan else []
            assert assembled[:len(whole)] == whole
            solved = [wn for group in assembled[len(whole):] for wn in group]
            column = [wn for wn in window_pairs(window, PI) if wn.m == 1]
            assert solved[:len(column)] == column and len(solved) < len(groups) * 39
            groups = whole + row_groups(column) + row_groups(solved[len(column):])
        assert assembled == groups

    def test_a_window_without_pairs_has_no_minimum(self):
        assert oracle_sweep(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (0, 3)) == (math.inf, None)
        n, m = oracle._window_arrays((0, 3))
        assert n.dtype == m.dtype == np.int64 and n.size == m.size == 0

    # beyond the pairs assembled: the closed-form seed, which critical_load
    # names, and the winner, which oracle_sweep returns
    EXTRA_PAIRS = 2

    @pytest.mark.parametrize("scan", ["full_vs_rz_supremum", "oracle_sweep", "korn_mode_scan"])
    def test_scans_build_wave_numbers_only_for_the_pairs_they_assemble(self, caplog, monkeypatch, scan):
        # at L = pi, nu = 0.3, h = 0.005 the window holds 3120 pairs; the
        # supremum solves 232 of them, the full window minimum assembles 31,
        # the Korn scan walks all 3120 at its coarse degree and solves 4 at
        # degree 12, and none builds a WaveNumbers for any other pair or more
        # than once per walk.  Every WaveNumbers built anywhere counts
        built, check = [], WaveNumbers.__post_init__

        def counted(wn):
            built.append(wn)
            check(wn)

        monkeypatch.setattr(WaveNumbers, "__post_init__", counted)
        geom = ShellGeometry(h=0.005, L=PI)
        window = CriticalLoadProblem(geom=geom, elastic=EL).window()
        args = (geom, EL, RadialDiscretization(), window) + (("full",) if scan == "oracle_sweep" else ())
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cylbuck"):
            getattr(oracle, scan)(*args)
        (record,) = [r for r in caplog.records if r.name == "cylbuck"]
        if scan == "korn_mode_scan":  # (covered, walked at the coarse degree, it, solved, the degree)
            covered, coarse, _, solved, _ = record.args
            assert (covered, coarse, solved) == (window[0] * (window[1] + 1), covered, 4)
            walked = coarse + solved
        else:
            walked = record.args[2]
            assert walked <= window[0] * (window[1] + 1)
        assert len(built) <= walked + self.EXTRA_PAIRS, (scan, len(built), walked)


def exhaustive_values(geom, elastic, disc, window, denominator):
    """(value, pair) of every window pair in scan order, each slice solved exactly."""
    pairs = list(window_pairs(window, geom.L))
    return list(zip(walked_minima(geom, elastic, disc, denominator, pairs), pairs))


def exhaustive_minimum(geom, elastic, disc, window, denominator, values=None):
    """The window minimum with every pair solved: the first minimum in scan
    order of exhaustive_values (or of the given values)."""
    values = values or exhaustive_values(geom, elastic, disc, window, denominator)
    return OracleMinimum(*min(values, key=lambda item: item[0]))


def sweep_log(caplog, *args, **kwargs):
    """oracle_sweep's result and its DEBUG record's (denominator, covered, assembled, solved)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cylbuck"):
        got = oracle_sweep(*args, **kwargs)
    (record,) = [r for r in caplog.records if r.name == "cylbuck"]
    return got, record.args


def seeded_ceiling(geom, elastic, disc, window, denominator):
    """The ceiling oracle_sweep seeds: the exact minimum at the closed-form winner of the window."""
    return min_rayleigh(assemble_pencil(geom, elastic, oracle._seed_pair(geom, elastic, window), denominator, disc))


def gap_bound(p, pairs):
    """oracle._gap_bound of each of the pairs of p."""
    n = np.array([float(wn.n) for wn in pairs])
    return oracle._gap_bound(p.geom, p.elastic, n, np.array([wn.m_hat for wn in pairs]))


def pruning_bound(p, wn, denominator):
    """The lower bound of wn's oracle minimum that the pruned scans rely on: (1 - delta_o) reduced for
    phi_rz and phi_rz_mid, and lb / (1 + G lb) for full, lb = max(0, (1 - delta_o) reduced)."""
    delta = oracle._DEFICIT_C * p.geom.h**2 * (1.0 + wn.m_hat**2 + wn.n**2)
    lb = (1.0 - delta) * per_mode_strain(p, wn).value
    if denominator != "full":
        return lb
    lb = max(lb, 0.0)
    return lb / (1.0 + gap_bound(p, [wn])[0] * lb)


class TestScanOrder:
    """The oracle walks the closed form's scan order as arrays (n, m); window_pairs is the reference."""

    @staticmethod
    def cases(rng):
        """(geom, elastic, window, inside the deficit bound's box): the smallest window, (8, 8), two windows
        drawn in the box and one outside it (h above it, nu or L beyond it)."""
        (h_lo, h_hi), (nu_lo, nu_hi), (L_lo, L_hi) = oracle._DEFICIT_BOX.values()
        geoms = [(ShellGeometry(h=0.25, L=1.0), EL)]
        for _ in range(2):
            h = math.exp(rng.uniform(math.log(5e-3), math.log(h_hi)))
            L = math.exp(rng.uniform(math.log(L_lo), math.log(8.0)))
            geoms.append((ShellGeometry(h=h, L=L), IsotropicElasticity(nu=rng.uniform(nu_lo, nu_hi))))
        outside = rng.integers(3)
        h = rng.uniform(h_hi, 0.4) if outside == 0 else rng.uniform(0.02, 0.1)
        nu = rng.uniform(nu_hi, 0.49) if outside == 1 else 0.3
        L = rng.uniform(L_hi, 80.0) if outside == 2 else rng.uniform(L_lo, 8.0)
        geoms.append((ShellGeometry(h=h, L=L), IsotropicElasticity(nu=nu)))
        return [
            (geom, elastic, CriticalLoadProblem(geom=geom, elastic=elastic).window(), i < len(geoms) - 1)
            for i, (geom, elastic) in enumerate(geoms)
        ]

    def test_arrays_follow_the_reference_order(self, rng):
        cases = self.cases(rng)
        assert cases[0][2] == (8, 8)
        for geom, elastic, window, inside in cases:
            want = list(window_pairs(window, geom.L))
            n, m = oracle._window_arrays(window)
            assert n.dtype == m.dtype == np.int64
            assert as_pairs(n, m, geom.L) == want, window
            # a whole window, and outside the box nothing is pruned under any ceiling
            for ceiling in (math.inf,) if inside else (math.inf, 1e-9):
                for denominator in oracle.DENOMINATORS:
                    assert sweep_pairs(geom, elastic, window, denominator, ceiling) == want, (window, ceiling)

    def test_groups_and_slices_cover_the_pairs_in_order(self, rng):
        for geom, _, window, _ in self.cases(rng):
            n, _ = oracle._window_arrays(window)
            groups, slices = oracle._row_groups(n), oracle._slices(n)
            for ranges in (groups, slices):
                assert [i for r in ranges for i in range(r.start, r.stop)] == list(range(n.size)), window
            for g in groups:  # row n = 0 joins no other row, and no group holds more than 64 pairs
                rows = set(n[g].tolist())
                assert rows == {0} or 0 not in rows, (window, g)
                assert g.stop - g.start <= 4 * oracle._SLICE_PAIRS, (window, g)
            # each group cut into _slices, as _walk cuts it, gives the slices of all the pairs
            assert [slice(g.start + s.start, g.start + s.stop) for g in groups for s in oracle._slices(n[g])] == slices
            for s in slices:
                assert len(set(n[s].tolist())) == 1 and s.stop - s.start <= oracle._SLICE_PAIRS, (window, s)

    def test_a_long_row_walks_in_bounded_groups(self):
        # row n = 0 of 2048 pairs at degree 12 (26 x 26 forms, 5.4 kB a pair):
        # its groups hold 64 pairs and line up with its slices, the walk
        # returns the bits of the row assembled in one call, and its
        # tracemalloc peak is that of one group, whatever the row's length
        # (the whole row at once would hold 11 MB of e2)
        geom, disc = ShellGeometry(h=0.05, L=PI), RadialDiscretization(12)
        row = [WaveNumbers(m=m, n=0, L=PI) for m in range(1, 2049)]
        n, m = arrays(row)
        groups = oracle._row_groups(n)
        assert [g.stop - g.start for g in groups] == [4 * oracle._SLICE_PAIRS] * 32
        assert [slice(g.start + s.start, g.start + s.stop) for g in groups for s in oracle._slices(n[g])] \
            == oracle._slices(n)
        want = oracle._slice_forms(geom, EL, disc, row[:300], ("e2",))["e2"]
        got = oracle._walk(geom, EL, disc, n[:300], m[:300], ("e2",), lambda part, forms: forms["e2"])
        assert got.tobytes() == want.tobytes()

        def peak(count):
            tracemalloc.start()
            oracle._walk(geom, EL, disc, n[:count], m[:count], ("e2",), lambda part, forms: forms["e2"][:, 0, 0].copy())
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return top

        peak(64)  # the moments, cached
        short, long = peak(256), peak(2048)
        assert long <= 1.5 * short, (short, long)

    def test_walk_rows_line_up_with_the_pairs(self):
        # row n = 0 and two rows of 70 pairs, each cut into groups of 64 and 6
        # pairs, the last 6 joined with six rows of 3: row k of the walk is pair k's
        pairs = [wn for wn in window_pairs((70, 8), PI) if wn.n <= 2 or wn.m <= 3]
        n, m = arrays(pairs)
        assert [g.stop - g.start for g in oracle._row_groups(n)] == [64, 6, 64, 6, 64, 24]

        def walk(row):
            def solve(part, forms):
                assert len(forms["phi_rz"]) == len(part)
                return np.array([row(wn) for wn in part], dtype=float)

            return oracle._walk(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(4), n, m, ("phi_rz",), solve)

        assert np.array_equal(walk(lambda wn: (wn.n, wn.m)), np.stack((n, m), 1))
        assert np.array_equal(walk(lambda wn: (wn.m,)), m[:, None])  # one column


class TestCeilingScan:
    """Every window minimum skips the slices that stay definite above the best value so far."""

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    @pytest.mark.parametrize("case", ["h=0.02", "h=0.005", "drawn"])
    def test_equals_the_exhaustive_scan(self, rng, caplog, case, denominator):
        if case == "drawn":
            nu, h, L = rng.uniform(0.0, 0.45), rng.uniform(0.02, 0.1), rng.uniform(2.0, 12.0)
        else:
            nu, h, L = 0.3, float(case[2:]), PI
        geom, elastic, disc = ShellGeometry(h=h, L=L), IsotropicElasticity(nu=nu), RadialDiscretization()
        window = CriticalLoadProblem(geom=geom, elastic=elastic).window()
        want = exhaustive_minimum(geom, elastic, disc, window, denominator)
        got, (den, covered, assembled, solved) = sweep_log(caplog, geom, elastic, disc, window, denominator)
        assert got == want, case
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert (den, covered) == (denominator, window[0] * (window[1] + 1))
        assert solved < covered / 2, case  # the ceiling skipped most of the window
        assert solved <= assembled, case

    def test_ties_go_to_the_first_pair_in_value_n_m_order(self, monkeypatch):
        # every pair assembled, the seed included, solves to the seeded
        # ceiling, or to a value falling in n: the winner is the first
        # assembled pair in (value, n, m) order, and under one of the two
        # every other order of the lexsort keys picks another pair
        window = CriticalLoadProblem(geom=self.GEOM, elastic=EL).window()
        ceiling = seeded_ceiling(self.GEOM, EL, self.DISC, window, "phi_rz")
        seed = oracle._seed_pair(self.GEOM, EL, window)
        values = {"constant": lambda wn: ceiling, "falling in n": lambda wn: ceiling * (1 + seed.n) / (1 + wn.n)}
        orders = list(itertools.permutations(("value", "n", "m")))
        firsts = []
        for value in values.values():
            def solved(pairs, A, B, limit=math.inf):
                return np.array([value(wn) for wn in pairs])

            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_slice_minima", solved)
                assembled = recorded_assembly(patch)
                got = oracle_sweep(self.GEOM, EL, self.DISC, window, "phi_rz")
            pairs = [wn for part in assembled for wn in part]
            first = {
                order: min(pairs, key=lambda wn: tuple({"value": value(wn), "n": wn.n, "m": wn.m}[k] for k in order))
                for order in orders
            }
            assert got == OracleMinimum(value(first[orders[0]]), first[orders[0]])
            firsts.append(first)
        for order in orders[1:]:
            assert any(first[order] != first[orders[0]] for first in firsts), order

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_margin_never_clears_the_pairs_own_minimum(self, h, denominator):
        # a ceiling equal to a pair's computed minimum never skips that pair,
        # so no skipped pair can tie with or undercut the minimum
        p = CriticalLoadProblem(geom=ShellGeometry(h=h, L=PI), elastic=EL)
        res = sweep(p)
        wn, disc = p.wave_numbers(res.m, res.n), RadialDiscretization()
        pencil = assemble_pencil(p.geom, EL, wn, denominator, disc)
        A, B = pencil.A[None], pencil.B[None]
        (value,) = oracle._slice_minima([wn], A, B)
        assert oracle._slice_minima([wn], A, B, value).tolist() == [value]  # solved, not skipped
        assert oracle._slice_minima([wn], A, B, value * (1.0 - 1e-3)).tolist() == [math.inf]  # the test can pass

    GEOM = ShellGeometry(h=0.05, L=PI)
    DISC = RadialDiscretization(8)

    def skipped_slice(self, denominator):
        """The last slice of at least three pairs that the clean scan assembles and skips, and the window.

        The scan walks the kept pairs without the seed, which oracle_sweep
        solves apart, so the slices are cut from those.  A slice whose
        pencils all clear the seeded ceiling also clears the scan's running
        ceiling, which never exceeds it.
        """
        window = CriticalLoadProblem(geom=self.GEOM, elastic=EL).window()
        ceiling = seeded_ceiling(self.GEOM, EL, self.DISC, window, denominator)
        seed = oracle._seed_pair(self.GEOM, EL, window)
        pairs = [wn for wn in sweep_pairs(self.GEOM, EL, window, denominator, ceiling) if wn != seed]
        args = (self.GEOM, EL, self.DISC, denominator)
        skipped = [
            part for part in slices(pairs)
            if len(part) >= 3 and all(v == math.inf for v in walked_minima(*args, part, ceiling))
        ]
        return skipped[-1], window

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    @pytest.mark.parametrize(
        "fault, error, match",
        [
            ("non-finite", ValueError, "infs or NaNs"),
            ("vanishing", ZeroDenominator, "destabilizing form vanishes for"),
            ("indefinite", AssemblyDegenerate, "stiffness not positive definite for"),
        ],
    )
    def test_checks_run_on_skipped_slices(self, monkeypatch, denominator, fault, error, match):
        pairs, window = self.skipped_slice(denominator)
        targets = pairs[1:3]
        assemble = oracle._slice_forms

        def patched(geom, elastic, disc, slice_pairs, names=oracle._FORM_NAMES):
            forms = assemble(geom, elastic, disc, slice_pairs, names)
            A, B = forms["stiffness"], forms[denominator]
            for i, wn in enumerate(slice_pairs):
                if wn in targets:
                    if fault == "non-finite":
                        A[i, 1, 2] = A[i, 2, 1] = math.nan
                    elif fault == "vanishing":
                        B[i] = 0.0
                    else:
                        A[i, 0, 0] *= -1.0
            return forms

        monkeypatch.setattr(oracle, "_slice_forms", patched)
        first = targets[0]
        if fault != "non-finite":  # the error names the first failing pair
            match += rf" WaveNumbers\(m={first.m}, n={first.n},"
        with pytest.raises(error, match=match):
            oracle_sweep(self.GEOM, EL, self.DISC, window, denominator)

    def test_row_groups_bound_the_batched_build(self):
        # scan order kept, row n = 0 apart from the other rows, and every
        # group at most 4 _SLICE_PAIRS pairs: per (window, pairs kept per
        # row, groups, groups of row n = 0), rows of 300 pairs are cut into
        # 4 x 64 + 44, 40 rows of 3 join 21 at a time and 60 rows of 20 join 3
        cases = (((300, 40), 300, 205, 5), ((30, 40), 3, 3, 1), ((30, 60), 20, 21, 1))
        for window, columns, count, zero in cases:
            pairs = [wn for wn in window_pairs(window, PI) if wn.m <= columns]
            groups = row_groups(pairs)
            assert [wn for group in groups for wn in group] == pairs
            assert [wn for group in groups[:zero] for wn in group] == [wn for wn in pairs if wn.n == 0]
            assert len(groups) == count
            for group in groups[zero:]:
                assert 0 not in {wn.n for wn in group}
            assert max(len(group) for group in groups) <= 4 * oracle._SLICE_PAIRS

    def test_silent_by_default(self, caplog, capsys):
        oracle_sweep(self.GEOM, EL, self.DISC, (6, 4), "full")
        assert not [r for r in caplog.records if r.name == "cylbuck"]
        assert capsys.readouterr() == ("", "")

    def test_log_counts_every_denominator(self, caplog):
        window = CriticalLoadProblem(geom=self.GEOM, elastic=EL).window()
        for denominator in oracle.DENOMINATORS:
            _, (den, covered, assembled, solved) = sweep_log(caplog, self.GEOM, EL, self.DISC, window, denominator)
            assert (den, covered) == (denominator, window[0] * (window[1] + 1))
            assert 0 < solved < covered
            assert solved <= assembled


class TestDeficitBound:
    """The measured bound oracle >= (1 - delta_o) reduced that prunes every window scan (full's through G)."""

    @staticmethod
    def drawn_problems(rng, count=6, nu=None):
        """count problems with nu, L and h drawn over the bound's measured box (L and h log-uniform),
        nu from the range nu instead when it is given."""
        (h_lo, h_hi), (nu_lo, nu_hi), (L_lo, L_hi) = oracle._DEFICIT_BOX.values()
        nu_lo, nu_hi = nu or (nu_lo, nu_hi)
        return [
            CriticalLoadProblem(
                geom=ShellGeometry(h=math.exp(rng.uniform(math.log(h_lo), math.log(h_hi))),
                                   L=math.exp(rng.uniform(math.log(L_lo), math.log(L_hi)))),
                elastic=IsotropicElasticity(nu=rng.uniform(nu_lo, nu_hi)),
            )
            for _ in range(count)
        ]

    @staticmethod
    def cut_window(p):
        """p's window cut to its first columns over every row, at most 400 pairs.

        The largest deficit of a window sat at m = 1 in 91 % of the 500
        windows measured, mostly at n = 1.7 R ... 2.3 R and never above 3.3 R.
        """
        m_max, n_max = p.window()
        return min(m_max, max(1, 400 // (n_max + 1))), n_max

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_bound_and_pruned_scan_on_drawn_windows(self, rng, caplog, denominator):
        disc = RadialDiscretization()
        for p in self.drawn_problems(rng):
            geom, elastic, window = p.geom, p.elastic, self.cut_window(p)
            case = (geom.h, elastic.nu, geom.L, window)
            values = exhaustive_values(geom, elastic, disc, window, denominator)
            for value, wn in values:
                assert value >= pruning_bound(p, wn, denominator), (case, wn)
            want = exhaustive_minimum(geom, elastic, disc, window, denominator, values)
            got, (_, covered, _, _) = sweep_log(caplog, geom, elastic, disc, window, denominator)
            assert got == want, case
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes(), case
            assert covered == len(values)

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_a_bound_that_excludes_the_winner_raises(self, monkeypatch, denominator):
        p = CriticalLoadProblem(geom=ShellGeometry(h=0.05, L=PI), elastic=EL)
        geom, disc, window = p.geom, RadialDiscretization(8), p.window()
        winner = oracle_sweep(geom, EL, disc, window, denominator)
        ceiling = seeded_ceiling(geom, EL, disc, window, denominator)
        assert oracle._seed_pair(geom, EL, window) == winner.wn  # the seed pair is the winner
        assert ceiling == winner.value
        level = winner.value * (1.0 + oracle._CEILING_MARGIN)
        reduced = per_mode_strain(p, winner.wn).value
        if denominator == "full":
            # under the proved gap bound no deficit constant C >= 0 excludes
            # the full winner: even lb = reduced gives lb / (1 + G lb) below
            # the level.  A bound that drops the gap (G = 0) does
            G = gap_bound(p, [winner.wn])[0]
            assert reduced / (1.0 + G * reduced) < level
            assert pruning_bound(p, winner.wn, "phi_rz") > level
            monkeypatch.setattr(oracle, "_gap_bound", lambda geom, elastic, n, m_hat: np.zeros_like(n))
        else:
            # half the largest C that still excludes the winner
            k2 = winner.wn.m_hat**2 + winner.wn.n**2
            C = 0.5 * (1.0 - level / reduced) / (geom.h**2 * (1.0 + k2))
            assert 0.0 < C < oracle._DEFICIT_C
            monkeypatch.setattr(oracle, "_DEFICIT_C", C)
        assert winner.wn not in sweep_pairs(geom, EL, window, denominator, ceiling)
        # raised at once, naming the seed: only the seed's own pencil is assembled
        assembled = recorded_assembly(monkeypatch)
        seed = winner.wn
        value = re.escape(repr(float(winner.value)))
        match = rf"drops the seed pair WaveNumbers\(m={seed.m}, n={seed.n},.* whose minimum {value} seeds"
        with pytest.raises(BoundViolated, match=match):
            oracle_sweep(geom, EL, disc, window, denominator)
        assert assembled == [[seed]]

    @pytest.mark.parametrize("h, nu, L", [(0.02, 0.3, PI), (0.005, 0.3, PI), (0.05, 0.45, PI), (0.02, -0.45, 0.5)])
    def test_kept_pairs_are_those_the_bound_cannot_exclude(self, h, nu, L):
        # pair by pair over the whole window, against the certified superset
        # that _sweep_pairs filters; on the last two windows a superset taken
        # at the level itself, not at level / (1 - delta_max), misses pairs
        p = CriticalLoadProblem(geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu))
        ceiling = sweep(p).strain  # a level near the window minimum
        level = ceiling * (1.0 + oracle._CEILING_MARGIN)
        want = []
        for wn in window_pairs(p.window(), L):
            delta = oracle._DEFICIT_C * h * h * (1.0 + wn.m_hat**2 + wn.n**2)
            if delta >= 1.0 or per_mode_strain(p, wn).value * (1.0 - delta) <= level:
                want.append(wn)
        assert sweep_pairs(p.geom, p.elastic, p.window(), "phi_rz", ceiling) == want
        assert len(want) < p.window()[0] * (p.window()[1] + 1) / 10

    @pytest.mark.parametrize(
        "h, nu, L, denominator, ceiling",
        [
            (5e-5, 0.3, PI, "phi_rz", 1e-9),  # below the measured h
            (0.3, 0.3, PI, "phi_rz", 1e-9),  # above it
            (0.02, 0.47, PI, "phi_rz_mid", 1e-9),  # nu outside it
            (0.02, 0.3, 0.4, "phi_rz", 1e-9),  # L outside it
            (0.02, 0.3, 60.0, "phi_rz_mid", 1e-9),
            (0.3, 0.3, PI, "full", 1e-9),  # h above the measured box
            (0.02, 0.3, PI, "phi_rz", math.inf),  # no seeded ceiling
        ],
    )
    def test_nothing_pruned_without_a_measured_bound(self, h, nu, L, denominator, ceiling):
        geom, elastic, window = ShellGeometry(h=h, L=L), IsotropicElasticity(nu=nu), (12, 8)
        assert sweep_pairs(geom, elastic, window, denominator, ceiling) == list(window_pairs(window, L))

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_a_ceiling_below_every_bound_keeps_nothing(self, denominator):
        # an empty superset is no error here: oracle_sweep names the seed it drops
        n, m = oracle._sweep_pairs(ShellGeometry(h=0.02, L=PI), EL, (39, 20), denominator, 1e-9)
        assert n.dtype == m.dtype == np.int64 and n.size == m.size == 0

    # pairs assembled at L = pi, nu = 0.3, each once, the seed included, as
    # measured: (full, phi_rz, phi_rz_mid); at h = 0.005 and 1e-3 the seed is
    # the phi_rz and phi_rz_mid winner, and the annulus keeps it alone, so
    # those two solve the seed and nothing else
    ASSEMBLED = {0.02: (46, 17, 15), 0.005: (31, 1, 1), 1e-3: (74, 1, 1)}

    @pytest.mark.parametrize("h", list(ASSEMBLED))
    def test_pruned_scans_assemble_a_few_pairs(self, caplog, h):
        p = CriticalLoadProblem(geom=ShellGeometry(h=h, L=PI), elastic=EL)
        args = (p.geom, EL, RadialDiscretization(), p.window())
        for denominator, most in zip(oracle.DENOMINATORS, self.ASSEMBLED[h]):
            _, (_, covered, assembled, solved) = sweep_log(caplog, *args, denominator)
            assert assembled <= most, (denominator, assembled)
            assert solved <= assembled
            if denominator != "full" and h < 0.02:
                assert solved == 1, (denominator, solved)

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_no_positive_closed_form_minimum_seeds_nothing(self, monkeypatch, caplog, denominator):
        # a closed form that raises SingularSystem leaves the ceiling
        # unseeded, and the scan covers the whole window
        geom, disc = ShellGeometry(h=0.05, L=PI), RadialDiscretization(8)
        window = CriticalLoadProblem(geom=geom, elastic=EL).window()
        want = exhaustive_minimum(geom, EL, disc, window, denominator)

        def no_minimum(problem):
            raise SingularSystem("reduced minimum -1.000e-07 at (m=1, n=1) is not positive")

        monkeypatch.setattr(critical_load, "_seed_ceiling", no_minimum)
        assert oracle._seed_pair(geom, EL, window) is None
        got, (_, covered, assembled, _) = sweep_log(caplog, geom, EL, disc, window, denominator)
        assert assembled == covered
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes() and got == want

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_a_window_short_of_the_circle_is_still_seeded(self, caplog, denominator):
        # the Koiter circle's crossings of most rows lie far beyond this
        # window's three columns, so the seed is the closed-form winner of
        # the window's own pairs
        geom, window, disc = ShellGeometry(h=5.98e-4, L=15.4), (3, 115), RadialDiscretization()
        seed = oracle._seed_pair(geom, EL, window)
        assert seed.m <= window[0] and seed.n <= window[1]
        want = exhaustive_minimum(geom, EL, disc, window, denominator)
        got, (_, covered, assembled, _) = sweep_log(caplog, geom, EL, disc, window, denominator)
        assert assembled < covered
        assert got == want
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()


class TestGapBound:
    """The proved per-pair bound full_vs_rz <= G that, with the deficit bound, prunes the full scan."""

    @staticmethod
    def even_split_bound(p, pairs):
        """G with the split eps = 1 for every pair: max(4, 1 + 2 t ss / cc) / kappa, 1 / kappa for n = 0."""
        nu = p.elastic.nu
        kappa = 1.0 / (1.0 + nu) if nu >= 0.0 else 1.0 / (1.0 - 2.0 * nu)
        t = np.array([(wn.n / (wn.m_hat * (1.0 - 0.5 * p.geom.h))) ** 2 for wn in pairs])
        return np.where([wn.n > 0 for wn in pairs], np.maximum(4.0, 1.0 + 2.0 * t), 1.0) / kappa

    def test_bound_is_the_derived_formula(self):
        # ss / cc = 1 for n >= 1; t = 1.5 at (1, 1) makes the best split eps = 1 itself
        L = PI * math.sqrt(1.5) * 0.95
        p = CriticalLoadProblem(geom=ShellGeometry(h=0.1, L=L), elastic=IsotropicElasticity(nu=-0.25))
        pairs = [WaveNumbers(m=m, n=n, L=L) for m, n in ((1, 0), (5, 0), (1, 1), (3, 1), (1, 7), (4, 2), (40, 1))]
        G = gap_bound(p, pairs)
        for wn, got, old in zip(pairs, G, self.even_split_bound(p, pairs)):
            st = (wn.n / (wn.m_hat * (1.0 - 0.05))) ** 2
            eps = ((st - 1.0) + math.sqrt((st - 1.0) ** 2 + 8.0 * st)) / 4.0
            g = 2.0 * (1.0 + eps) if wn.n else 1.0
            if wn.n:  # the best split: both terms of the bound are equal there
                assert 1.0 + (1.0 + 1.0 / eps) * st == pytest.approx(g, rel=1e-12), wn
            assert got == pytest.approx(g * (1.0 - 2.0 * -0.25), rel=1e-14), wn
            assert got <= old, wn
        assert G[2] == pytest.approx(4.0 * 1.5, rel=1e-15)  # eps = 1 at t = 1.5: the even split's 4
        assert G[-1] < 2.01 * 1.5  # mhat / n large: g tends to 2, where the even split keeps 4
        assert gap_bound(dataclasses.replace(p, elastic=EL), pairs[:1])[0] == pytest.approx(1.3, rel=1e-15)

    def test_gap_and_full_minimum_within_their_bounds_on_drawn_windows(self, rng):
        # full_vs_rz <= G <= the even split's G on every pair of drawn windows
        # (three with nu < 0, three with nu > 0, each with its n = 0 row), and every exhaustive
        # full minimum at or above the bound that prunes it; at nu = 0 the
        # n = 0 row attains G = 1 up to rounding
        nu_lo, nu_hi = oracle._DEFICIT_BOX["nu"]
        problems = TestDeficitBound.drawn_problems(rng, 3, nu=(nu_lo, 0.0))
        problems += TestDeficitBound.drawn_problems(rng, 3, nu=(0.0, nu_hi))
        problems.append(CriticalLoadProblem(geom=ShellGeometry(h=0.25, L=50.0), elastic=IsotropicElasticity(nu=0.0)))
        disc = RadialDiscretization()
        for p in problems:
            window = TestDeficitBound.cut_window(p)
            case = (p.geom.h, p.elastic.nu, p.geom.L, window)
            groups = row_groups(list(window_pairs(window, p.geom.L)))
            assert groups[0][0].n == 0
            for group in groups:
                walked = gaps(p.geom, p.elastic, disc, group)
                for gap, G, old, wn in zip(walked[:, 0], gap_bound(p, group), self.even_split_bound(p, group), group):
                    assert gap <= G * (1.0 + 1e-12), (case, wn)
                    assert G <= old, (case, wn)  # the best split never loses to eps = 1
            for value, wn in exhaustive_values(p.geom, p.elastic, disc, window, "full"):
                assert value >= pruning_bound(p, wn, "full"), (case, wn)


class TestGapSupremum:
    """full_vs_rz_supremum: the maximum of the theta,z gap kernel walked over every window pair,
    solving only the pairs the proved gap bound keeps; equivalence_scan's full_vs_rz is this supremum."""

    @staticmethod
    def supremum_log(caplog, monkeypatch, *args):
        """The supremum, its DEBUG record's (covered, seed column, solved) and the pairs it assembled."""
        assembled = recorded_assembly(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cylbuck"):
            got = oracle.full_vs_rz_supremum(*args)
        (record,) = [r for r in caplog.records if r.name == "cylbuck"]
        return got, record.args, [wn for pairs in assembled for wn in pairs]

    @pytest.mark.parametrize("case", [f"h={h}" for h in EQUIV_H] + ["drawn nu > 0", "drawn nu < 0"])
    def test_equals_the_whole_window_scan(self, rng, caplog, monkeypatch, case):
        # criterion 6's four windows, and drawn (nu, h, L) windows with nu of both signs
        if case.startswith("drawn"):
            nu = rng.uniform(0.05, 0.45) if ">" in case else rng.uniform(-0.45, -0.05)
            h, L = rng.uniform(0.02, 0.1), rng.uniform(2.0, 8.0)
        else:
            nu, h, L = 0.3, float(case[2:]), PI
        geom, elastic, disc = ShellGeometry(h=h, L=L), IsotropicElasticity(nu=nu), RadialDiscretization()
        window = CriticalLoadProblem(geom=geom, elastic=elastic).window()
        want = oracle._full_gaps(geom, elastic, disc, *oracle._window_arrays(window)).max()
        got, (covered, column, solved), assembled = self.supremum_log(caplog, monkeypatch, geom, elastic, disc, window)
        assert float(got).hex() == float(want).hex(), (case, nu, h, L)
        assert (covered, column) == (window[0] * (window[1] + 1), window[1] + 1)
        assert [wn for wn in assembled if wn.m == 1] == [wn for wn in window_pairs(window, L) if wn.m == 1]
        assert len(set(assembled)) == len(assembled) == solved < covered, (case, nu, h, L)

    def test_silent_by_default(self, caplog, capsys):
        oracle.full_vs_rz_supremum(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (6, 3))
        assert not [r for r in caplog.records if r.name == "cylbuck"]
        assert capsys.readouterr() == ("", "")


class TestEmptyWalks:
    """A walk without pairs returns an empty 1-D array; every scan keeps its result."""

    GEOM, DISC = ShellGeometry(h=0.05, L=PI), RadialDiscretization(6)

    def test_the_seed_alone(self, caplog):
        geom = ShellGeometry(h=0.005, L=PI)
        window = CriticalLoadProblem(geom=geom, elastic=EL).window()
        disc = RadialDiscretization()
        got, (_, _, assembled, solved) = sweep_log(caplog, geom, EL, disc, window, "phi_rz")
        assert (assembled, solved) == (1, 1)
        seed = oracle._seed_pair(geom, EL, window)
        assert got == OracleMinimum(seeded_ceiling(geom, EL, disc, window, "phi_rz"), seed)
        assert oracle._walk(geom, EL, disc, *arrays([]), ("phi_rz",), None).shape == (0,)

    def test_supremum_of_column_one_alone(self, caplog, monkeypatch):
        window = (6, 3)
        got, (covered, column, solved), _ = TestGapSupremum.supremum_log(
            caplog, monkeypatch, self.GEOM, EL, self.DISC, window)
        assert (covered, column, solved) == (24, 4, 4)  # no pair past column m = 1 kept
        want = gaps(self.GEOM, EL, self.DISC, [wn for wn in window_pairs(window, PI) if wn.m == 1])[:, 0].max()
        assert float(got).hex() == float(want).hex()
        whole = oracle._full_gaps(self.GEOM, EL, self.DISC, *oracle._window_arrays(window)).max()
        assert float(got).hex() == float(whole).hex()

    @pytest.mark.parametrize("denominator", oracle.DENOMINATORS)
    def test_no_pairs_no_winner(self, caplog, denominator):
        got, (_, covered, assembled, solved) = sweep_log(caplog, self.GEOM, EL, self.DISC, (0, 3), denominator)
        assert got == OracleMinimum(math.inf, None)
        assert (covered, assembled, solved) == (0, 0, 0)

    @pytest.mark.parametrize("scan", [korn_mode_scan, equivalence_scan, oracle.full_vs_rz_supremum])
    def test_no_pairs_no_extrema(self, scan):
        with pytest.raises(ValueError):
            scan(self.GEOM, EL, self.DISC, (0, 3))


class TestKornScan:
    def test_ratios_positive_and_scale_free(self, rng):
        geom = ShellGeometry(h=0.05, L=PI)
        disc = RadialDiscretization(degree=8)
        ratios = korn_mode_scan(geom, EL, disc, window=(8, 6))
        assert ratios._fields == ("korn", "theta_z", "r_z", "weighted")
        for value in ratios:
            assert value > 0
        # per-mode ratios are quotients of quadratic forms: scaling invariant
        forms = mode_forms(geom, EL, WaveNumbers(m=2, n=3, L=PI), disc)
        x = rng.standard_normal(forms.stiffness.shape[0])
        r1 = (x @ forms.e2 @ x) / (x @ forms.grad2 @ x)
        r2 = ((3 * x) @ forms.e2 @ (3 * x)) / ((3 * x) @ forms.grad2 @ (3 * x))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_korn_below_destabilizing_bounds(self):
        # |e|^2/|grad|^2 <= 1 always; the r_z ratio dominates theta_z's
        geom = ShellGeometry(h=0.02, L=PI)
        ratios = korn_mode_scan(geom, EL, RadialDiscretization(8), (12, 8))
        assert ratios.korn < 1.0
        assert ratios.r_z > ratios.theta_z

    @pytest.mark.parametrize(
        "bad", [KornRatios(1.0, 0.0, 1.0, 1.0), KornRatios(1.0, 1.0, 1.0, math.nan)],
        ids=["zero", "nan-last"],
    )
    def test_non_positive_ratio_raises(self, monkeypatch, bad):
        # a NaN after the first field must fail too: min((1.0, nan)) is 1.0
        monkeypatch.setattr(oracle, "_korn_ratios", lambda h, W, pairs, forms: np.array([bad] * len(pairs)))
        with pytest.raises(ValueError):
            korn_mode_scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (3, 2))

    @staticmethod
    def drawn_windows(rng):
        """(geom, elastic, window, in-box mask on the window's arrays) of three drawn problems, nu in the
        deficit bound's box: h in [0.02, 0.06], L in [0.5, 4], margin 3, nearly all in the box
        h sqrt(mhat^2 + n^2) <= 1; h in [0.06, 0.3], L in [0.5, 4], margin 3 or 6; and h in [0.05, 0.1]
        at L = 0.5, margin 6, most of whose pairs lie outside the box (the first two h and L log-uniform)."""
        (_, _), (nu_lo, nu_hi), _ = oracle._DEFICIT_BOX.values()

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        drawn = [(log_uniform(0.02, 0.06), log_uniform(0.5, 4.0), 3.0),
                 (log_uniform(0.06, 0.3), log_uniform(0.5, 4.0), float(rng.choice([3.0, 6.0]))),
                 (rng.uniform(0.05, 0.1), 0.5, 6.0)]
        out = []
        for h, L, margin in drawn:
            geom, elastic = ShellGeometry(h=h, L=L), IsotropicElasticity(nu=rng.uniform(nu_lo, nu_hi))
            window = CriticalLoadProblem(geom=geom, elastic=elastic, margin=margin).window()
            n, m = oracle._window_arrays(window)
            box = h * np.sqrt((math.pi * m / L) ** 2 + n * n) <= oracle._KORN_BOX
            out.append((geom, elastic, window, box))
        return out

    def test_degrees_nest(self, rng):
        # the radial spaces are nested (Rayleigh-Ritz): from degree 6 to 8 to
        # 12 a pair's korn, a minimum over the fields, cannot rise, and its
        # r_z and theta_z, maxima, cannot fall.  Allowance: 1e-12 relative,
        # the rounding of the assembled moments and of the eigensolve
        for geom, elastic, window, box in self.drawn_windows(rng):
            n, m = oracle._window_arrays(window)
            pick = rng.choice(np.flatnonzero(box), size=min(12, box.sum()), replace=False)
            pick.sort()
            rows = [oracle._korn_rows(geom, elastic, RadialDiscretization(p), n[pick], m[pick]) for p in (6, 8, 12)]
            for low, high in zip(rows, rows[1:]):
                assert (high[:, 0] <= low[:, 0] * (1.0 + 1e-12)).all(), window
                assert (high[:, 1:3] >= low[:, 1:3] * (1.0 - 1e-12)).all(), window

    def test_pruned_scan_equals_the_whole_window(self, rng, caplog):
        # every in-box pair's coarse row lies within a tenth of the band of
        # degree 12, and the scan at degrees 8 and 12 returns the whole-window
        # scan's extrema by float.hex, solving at that degree only the pairs
        # outside the box and those near a coarse extremum
        band = oracle._KORN_BAND
        for geom, elastic, window, box in self.drawn_windows(rng):
            n, m = oracle._window_arrays(window)
            coarse = oracle._korn_rows(geom, elastic, RadialDiscretization(oracle._KORN_COARSE_DEGREE), n, m)
            near = np.zeros(n.size, dtype=bool)  # the in-box pairs near a coarse extremum of the box
            if box.any():
                near = (coarse[:, 0] <= coarse[box, 0].min() * (1 + 2 * band) / (1 - band)) | (
                    coarse[:, 1:] >= coarse[box, 1:].max(axis=0) * (1 - 2 * band) / (1 + band)).any(axis=1)
                near &= box
            for degree in (8, 12):
                rows = oracle._korn_rows(geom, elastic, RadialDiscretization(degree), n, m)
                if degree == 12:
                    assert (np.abs(rows - coarse)[box] <= band / 10 * np.abs(rows[box])).all(), window
                want = [rows[:, 0].min()] + list(rows[:, 1:].max(axis=0))
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="cylbuck"):
                    got = korn_mode_scan(geom, elastic, RadialDiscretization(degree), window)
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want], (window, degree)
                (record,) = [r for r in caplog.records if r.name == "cylbuck"]
                covered, walked, coarse_degree, solved, at = record.args
                assert (covered, walked, coarse_degree, at) == (n.size, box.sum(), 6, degree)
                assert solved == (~box).sum() + near.sum(), window

    @pytest.mark.parametrize("degree", [4, 6])
    def test_no_coarse_walk_at_or_below_the_coarse_degree(self, caplog, monkeypatch, degree):
        # the whole window is solved once, at the requested degree
        sizes, kernel = [], oracle._korn_ratios

        def recorded(h, W, pairs, forms):
            sizes.append(len(W))
            return kernel(h, W, pairs, forms)

        monkeypatch.setattr(oracle, "_korn_ratios", recorded)
        geom = ShellGeometry(h=0.02, L=PI)
        with caplog.at_level(logging.DEBUG, logger="cylbuck"):
            korn_mode_scan(geom, EL, RadialDiscretization(degree), (12, 8))
        assert set(sizes) == {degree + 1}
        (record,) = [r for r in caplog.records if r.name == "cylbuck"]
        assert record.args == (108, 0, 6, 108, degree)

    def test_no_pairs_no_extrema_above_the_coarse_degree(self):
        with pytest.raises(ValueError):
            korn_mode_scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(), (0, 3))

    # the h = 0.02 window at L = pi, nu = 0.3: 819 pairs, all inside the box
    GEOM, WINDOW = ShellGeometry(h=0.02, L=PI), (39, 20)

    @pytest.mark.parametrize("column", range(4), ids=KornRatios._fields)
    def test_patched_coarse_row_raises(self, monkeypatch, column):
        # the coarse row of the pair that holds a column's coarse extremum,
        # moved 3 bands further out, keeps it solved, and there its degree-12
        # ratio lies about 3 bands off: BoundViolated names that pair
        geom, window, band = self.GEOM, self.WINDOW, oracle._KORN_BAND
        n, m = oracle._window_arrays(window)
        coarse = oracle._korn_rows(geom, EL, RadialDiscretization(oracle._KORN_COARSE_DEGREE), n, m)
        k = np.argmin(coarse[:, 0]) if column == 0 else np.argmax(coarse[:, column])
        target = (int(m[k]), int(n[k]))
        kernel = oracle._korn_ratios

        def patched(h, W, pairs, forms):
            rows = kernel(h, W, pairs, forms)
            for i, wn in enumerate(pairs):
                if len(W) == oracle._KORN_COARSE_DEGREE + 1 and (wn.m, wn.n) == target:
                    rows[i, column] *= 1.0 - 3.0 * band if column == 0 else 1.0 + 3.0 * band
            return rows

        monkeypatch.setattr(oracle, "_korn_ratios", patched)
        with pytest.raises(BoundViolated, match=rf"WaveNumbers\(m={target[0]}, n={target[1]}, .* at degree 12 "):
            korn_mode_scan(geom, EL, RadialDiscretization(), window)

    def test_band_below_the_measured_error_raises(self, monkeypatch):
        # with no band only the pairs at a coarse extremum are solved, and the
        # first of them in scan order whose degree-12 row differs is named
        geom, window = self.GEOM, self.WINDOW
        n, m = oracle._window_arrays(window)
        coarse = oracle._korn_rows(geom, EL, RadialDiscretization(oracle._KORN_COARSE_DEGREE), n, m)
        at = (coarse[:, 0] == coarse[:, 0].min()) | (coarse[:, 1:] == coarse[:, 1:].max(axis=0)).any(axis=1)
        fine = oracle._korn_rows(geom, EL, RadialDiscretization(), n[at], m[at])
        k = np.flatnonzero(at)[np.argmax((fine != coarse[at]).any(axis=1))]
        monkeypatch.setattr(oracle, "_KORN_BAND", 0.0)
        with pytest.raises(BoundViolated, match=rf"^the Korn ratios of WaveNumbers\(m={m[k]}, n={n[k]}, "):
            korn_mode_scan(geom, EL, RadialDiscretization(), window)

    def test_indefinite_e2_named_by_the_coarse_walk(self, monkeypatch):
        # a degree-12 scan factors e2 first at the coarse degree, in scan
        # order, so the coarse walk names the first indefinite pair and no
        # form is assembled at degree 12
        degrees, assemble = [], oracle._slice_forms
        TestBlockReduction.break_forms(monkeypatch, "e2", at=((3, 3), (5, 2)))
        broken = oracle._slice_forms

        def recorded(geom, elastic, disc, pairs, names=oracle._FORM_NAMES):
            degrees.append(disc.degree)
            return broken(geom, elastic, disc, pairs, names)

        monkeypatch.setattr(oracle, "_slice_forms", recorded)
        with pytest.raises(AssemblyDegenerate, match=r"^e2 not positive definite for WaveNumbers\(m=5, n=2, "):
            korn_mode_scan(ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(), (6, 3))
        assert set(degrees) == {oracle._KORN_COARSE_DEGREE}


def mpmath_top(A, *B):
    """The top eigenvalue of each float64 pencil (B[j], A), A positive definite, by 30-digit mpmath:
    a list of floats, one per B[j], from one factorization of A."""
    import mpmath

    with mpmath.workdps(30):
        Li = mpmath.inverse(mpmath.cholesky(mpmath.matrix(A.tolist())))
        tops = []
        for Bj in B:
            mu = mpmath.eigsy(Li * mpmath.matrix(Bj.tolist()) * Li.T, eigvals_only=True)
            tops.append(float(max(mu[i] for i in range(mu.rows))))
        return tops


class TestKornAccuracy:
    """korn, r_z and theta_z against a 30-digit mpmath eigenvalue of the same float64 pencil."""

    @pytest.mark.parametrize("m, n", [(1, 5), (2, 12)])
    def test_korn_within_1e_12_of_mpmath(self, m, n):
        # h = 0.005 is criterion 5's smallest h (L = pi, nu = 0.3, degree 12,
        # window (78, 39)).  1 / korn = mu_max(grad2, e2), read from e2's
        # Cholesky factor, measured -1.6e-13 and -7.0e-14 off here; a dsygvx
        # eigenpair of (e2, grad2) read -3.1e-12 and +7.8e-13
        geom, disc = ShellGeometry(h=0.005, L=PI), RadialDiscretization()
        window = CriticalLoadProblem(geom=geom, elastic=EL).window()
        assert m <= window[0] and n <= window[1]
        wn = WaveNumbers(m=m, n=n, L=PI)
        forms = mode_forms(geom, EL, wn, disc)
        got = walked_korn(geom, EL, disc, [wn])[0, 0]
        want = 1.0 / mpmath_top(forms.e2, forms.grad2)[0]
        assert abs(got - want) <= 1e-12 * want, (wn, (got - want) / want)

    @pytest.mark.parametrize("h, m, n, tol", [(0.005, 1, 5, 1e-12), (1e-4, 2, 19, 5e-11)])
    def test_single_block_ratios_within_tol_of_mpmath(self, h, m, n, tol):
        # r_z = mu_max(phi_rz, e2) and theta_z = mu_max(phi_tz, e2), each the
        # top eigenpair of Y_b^T Y_b from e2's inverse factor, at criterion
        # 5's smallest h and at the closed-form winner of h = 1e-4 (L = pi,
        # nu = 0.3).  Both measured +1.6e-13 off at (1, 5) and -1.5e-11 at
        # (2, 19), as close as the block-last phi_rz minimum there (-1.1e-11)
        geom, disc, wn = ShellGeometry(h=h, L=PI), RadialDiscretization(), WaveNumbers(m=m, n=n, L=PI)
        if h == 1e-4:
            assert critical_load._window_minimum(CriticalLoadProblem(geom=geom, elastic=EL))[0] == wn
        forms = mode_forms(geom, EL, wn, disc)
        _, theta_z, r_z, _ = walked_korn(geom, EL, disc, [wn])[0]
        wants = mpmath_top(forms.e2, forms.phi_rz, forms.phi_tz)
        for ratio, got, want in zip(("r_z", "theta_z"), (r_z, theta_z), wants):
            assert abs(got - want) <= tol * want, (wn, ratio, (got - want) / want)


class TestBlockSolveAccuracy:
    """The block solve (_block_eigh) against a 30-digit mpmath eigenvalue of the same float64 pencil."""

    @pytest.mark.parametrize("degree", [8, 12])
    def test_phi_rz_minimum_within_5e_11_of_mpmath(self, degree):
        # (2, 19) is the closed-form winner at h = 1e-4 (L = pi, nu = 0.3).
        # The r block ordered last measured -2.1e-11 (degree 8) and -1.1e-11
        # (12) off; read from the natural-order inverse's r block, as the
        # Korn kernel reads r_z, the same minimum was +1.5e-10 and +8.5e-11 off
        geom, wn = ShellGeometry(h=1e-4, L=PI), WaveNumbers(m=2, n=19, L=PI)
        assert critical_load._window_minimum(CriticalLoadProblem(geom=geom, elastic=EL))[0] == wn
        disc = RadialDiscretization(degree)
        forms = mode_forms(geom, EL, wn, disc)
        got = min_rayleigh(assemble_pencil(geom, EL, wn, "phi_rz", disc))
        want = 1.0 / mpmath_top(forms.stiffness, forms.phi_rz)[0]
        assert abs(got - want) <= 5e-11 * want, (degree, (got - want) / want)

    def test_full_gap_within_1e_13_of_mpmath(self):
        # full_vs_rz = mu_max(phi_zz + phi_tz, stiffness) at h = 0.005, degree
        # 12: the theta and z blocks ordered last measured -1.9e-14 off, read
        # from the stiffness's whole inverse -2.0e-14
        geom, disc, wn = ShellGeometry(h=0.005, L=PI), RadialDiscretization(), WaveNumbers(m=1, n=4, L=PI)
        forms = mode_forms(geom, EL, wn, disc)
        (got,) = oracle._full_gaps(geom, EL, disc, *arrays([wn]))
        (want,) = mpmath_top(forms.stiffness, forms.phi_zz + forms.phi_tz)
        assert abs(got - want) <= 1e-13 * want, (got - want) / want


class TestEquivalenceGap:
    def test_full_gap_nonnegative_definite(self):
        # 1/R - 1/R1 = (|phi_zz|^2 + |phi_tz|^2)/stiffness >= 0 modewise
        geom = ShellGeometry(h=0.02, L=PI)
        disc = RadialDiscretization()
        import scipy.linalg

        for mn in ((1, 1), (4, 5), (3, 0)):
            forms = mode_forms(geom, EL, WaveNumbers(m=mn[0], n=mn[1], L=PI), disc)
            D = forms.phi_zz + forms.phi_tz
            vals = scipy.linalg.eigh(D, forms.stiffness, eigvals_only=True)
            assert vals[0] >= -1e-12

    def test_gap_values_positive(self):
        geom = ShellGeometry(h=0.02, L=PI)
        full_vs_rz, rz_vs_mid = gaps(geom, EL, RadialDiscretization(), [WaveNumbers(m=4, n=5, L=PI)])[0]
        assert full_vs_rz > 0
        assert rz_vs_mid > 0

    def test_mid_gap_coefficient_stable_in_h(self):
        # sup |1/R1 - 1/R2| <= C mhat sqrt(h): the fitted C barely moves
        from cylbuck.oracle import equivalence_scan

        coefs = []
        for h in (0.05, 0.01):
            geom = ShellGeometry(h=h, L=PI)
            p = CriticalLoadProblem(geom=geom, elastic=EL)
            scan = equivalence_scan(geom, EL, RadialDiscretization(), p.window())
            coefs.append(scan.rz_vs_mid_coef)
        assert max(coefs) / min(coefs) < 2.0


@pytest.mark.parametrize("scan", [korn_mode_scan, equivalence_scan])
def test_scan_logs_pairs_covered(caplog, scan):
    args = (ShellGeometry(h=0.05, L=PI), EL, RadialDiscretization(6), (6, 3))
    scan(*args)
    assert not [r for r in caplog.records if r.name == "cylbuck"]  # silent by default
    with caplog.at_level(logging.DEBUG, logger="cylbuck"):
        scan(*args)
    records = [r for r in caplog.records if r.name == "cylbuck"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(records)
    want = [f"{scan.__name__}: 24 pairs covered"]
    if scan is korn_mode_scan:  # at degree 6 no pair is walked at the coarse degree
        want = ["korn_mode_scan: 24 pairs covered, 0 walked at degree 6, 24 solved at degree 6"]
    if scan is equivalence_scan:  # then its full_vs_rz, the pruned supremum
        want.append("full_vs_rz_supremum: 24 pairs covered, 4 in column m = 1, 4 solved")
    assert [r.getMessage() for r in records] == want


def dense_ansatz_norms(geom, eta_nodes, z_nodes, r_nodes, dtype=float):
    """The ansatz norms on the dense r x eta x z grid of the tensor Gauss rule,
    in dtype, from the float64 nodes, weights and bump values: the reference
    for oracle._ansatz_norms, which sums the same rule as 1-D Gram products."""
    bump = oracle._bump_derivatives
    cast = lambda x: np.asarray(x, dtype=dtype)
    h, L = cast(geom.h), cast(geom.L)
    q, s = h ** cast(0.25), np.sqrt(h)
    t_eta, w_eta = np.polynomial.legendre.leggauss(eta_nodes)
    t_z, w_z = np.polynomial.legendre.leggauss(z_nodes)
    t_r, w_r = np.polynomial.legendre.leggauss(r_nodes)
    rho_r = cast(0.5 * t_r) * h  # r - 1, formed without cancellation
    R, rho = (1.0 + rho_r)[:, None, None], rho_r[:, None, None]
    B = [cast(b)[None, :, None] for b in bump(t_eta, 4)]
    C = [cast(c)[None, None, :] * (2.0 / L) ** j for j, c in enumerate(bump(t_z, 2))]

    phi_r = -B[2] * C[0]
    phi_t = R * q * B[1] * C[0] + rho / q * B[3] * C[0]
    p_rt = -B[3] * C[0] / q
    p_rz = -B[2] * C[1]
    p_tr = q * B[1] * C[0] + B[3] * C[0] / q
    p_tt = R * B[2] * C[0] + rho / q**2 * B[4] * C[0]
    p_tz = R * q * B[1] * C[1] + rho / q * B[3] * C[1]
    p_zr = B[2] * C[1]
    p_zt = (rho * B[3] * C[1] - s * B[1] * C[1]) / q
    p_zz = rho * B[2] * C[2] - s * B[0] * C[2]
    g = {
        "rt": (p_rt - phi_t) / R, "rz": p_rz, "tr": p_tr, "tt": (p_tt + phi_r) / R,
        "tz": p_tz, "zr": p_zr, "zt": p_zt / R, "zz": p_zz,
    }
    weight = (
        (cast(0.5 * w_r) * h * (1.0 + rho_r))[:, None, None]
        * (q * cast(w_eta))[None, :, None]
        * (cast(0.5 * w_z) * L)[None, None, :]
    )

    def norm2(field):
        return np.sum(weight * field * field)

    def sym(a, b):
        return 0.5 * (g[a] + g[b])

    e2 = norm2(g["tt"]) + norm2(g["zz"]) + 2.0 * (
        norm2(sym("rt", "tr")) + norm2(sym("rz", "zr")) + norm2(sym("tz", "zt"))
    )
    grad2 = sum(norm2(v) for v in g.values())
    return {"e2": e2, "grad2": grad2, "phi_rz2": norm2(p_rz), "phi_tz2": norm2(p_tz)}


class TestAnsatz:
    def test_under_resolved_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_ANSATZ_NODES", (10, 10, 8))
        with pytest.raises(QuadratureUnderResolved):
            ansatz_ratios(ShellGeometry(h=0.01, L=PI))

    @pytest.mark.parametrize("h", [5e-324, 1e-300])
    def test_vanishing_norms_raise_before_any_division(self, h):
        # at 5e-324 every norm is 0.0; at 1e-300 e2 underflows but grad2 does not
        with pytest.raises(ValueError, match="e2.* vanish"):
            ansatz_ratios(ShellGeometry(h=h, L=PI))

    def test_bump_derivative_stack_consistent(self):
        # orders 1..4 against finite differences of order 0 stack
        bump = oracle._bump_derivatives
        t = np.linspace(-0.95, 0.95, 41)
        step = 1e-6
        d = bump(t, 4)
        for order in range(1, 5):
            up = bump(t + step, order - 1)[order - 1]
            dn = bump(t - step, order - 1)[order - 1]
            fd = (up - dn) / (2 * step)
            assert np.allclose(fd, d[order], rtol=5e-6, atol=5e-6 * np.abs(d[order]).max())

    def test_ratio_magnitudes(self):
        r = ansatz_ratios(ShellGeometry(h=0.01, L=PI))
        assert isinstance(r, AnsatzRatios)
        assert 0 < r.korn < 1
        assert r.r_z > 0 and r.theta_z > 0

    @pytest.mark.parametrize("h", [1e-2, 1e-4])
    @pytest.mark.parametrize("z_nodes", [40, 24])
    def test_separable_norms_match_the_dense_grid(self, h, z_nodes):
        geom = ShellGeometry(h=h, L=PI)
        got = oracle._ansatz_norms(geom, 40, z_nodes, 8)
        want = dense_ansatz_norms(geom, 40, z_nodes, 8)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
    def test_e2_at_small_h_against_extended_precision(self):
        # the dense float64 grid loses ~3e-9 of e2 here to R B - B cancellations
        geom = ShellGeometry(h=1e-8, L=PI)
        got = oracle._ansatz_norms(geom, 40, 40, 8)["e2"]
        want = dense_ansatz_norms(geom, 40, 40, 8, dtype=np.longdouble)["e2"]
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_memory_stays_small(self):
        tracemalloc.start()
        try:
            ansatz_ratios(ShellGeometry(h=1e-5, L=PI))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_slopes_at_small_h(self):
        hs = (1e-6, 1e-7, 1e-8)
        ratios = [ansatz_ratios(ShellGeometry(h=h, L=PI)) for h in hs]
        for kind, target in (("korn", 1.5), ("theta_z", -0.5), ("r_z", -1.0)):
            slope = oracle.fitted_slope(hs, [getattr(r, kind) for r in ratios])
            assert abs(slope - target) <= 0.01, kind

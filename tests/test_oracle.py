import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial, chebyshev

from cylbuck.critical_load import CriticalLoadProblem, per_mode_strain, per_mode_strain_full
from cylbuck.errors import AssemblyDegenerate, QuadratureUnderResolved, ZeroDenominator
from cylbuck.material import IsotropicElasticity
from cylbuck.oracle import (
    AnsatzRatios,
    BumpProfile,
    ModePencil,
    RadialDiscretization,
    _leggauss_refined,
    ansatz_ratios,
    assemble_pencil,
    assemble_reduced_pencil,
    equivalence_gap,
    equivalence_scan,
    korn_mode_scan,
    min_rayleigh,
    mode_forms,
    oracle_sweep,
)
from cylbuck.spectral import (
    LinearizedMode,
    ShellGeometry,
    WaveNumbers,
    as_fourier,
    mode_denominators,
    mode_energy,
    optimal_mode,
    trig_factors,
)

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
    """Pack a linearized mode's profiles into oracle DOFs."""
    n, mh = mode.wn.n, mode.wn.m_hat
    ftheta = Polynomial([-float(n), mode.a_theta + float(n)])
    fz = Polynomial([mode.a_z - mh, mh])
    k = disc.degree + 1
    blocks = [cheb_coeffs_on_wall(mode.fr, geom, disc.degree)]
    if n >= 1:
        blocks.append(cheb_coeffs_on_wall(ftheta, geom, disc.degree))
    blocks.append(cheb_coeffs_on_wall(fz, geom, disc.degree))
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


class TestPencilAssembly:
    @pytest.mark.parametrize("h", [0.1, 0.01, 0.002])
    @pytest.mark.parametrize("degree", [6, 12])
    @pytest.mark.parametrize("nodes", [None, 48])
    def test_moment_assembly_matches_direct_quadrature(self, h, degree, nodes):
        geom = ShellGeometry(h=h, L=PI)
        disc = RadialDiscretization(degree=degree, quad_nodes=nodes)
        for m, n in ((4, 0), (1, 1), (9, 12), (25, 18)):
            wn = WaveNumbers(m=m, n=n, L=PI)
            forms = mode_forms(geom, EL, wn, disc)
            want = direct_forms(geom, EL, wn, disc)
            for name, M in want.items():
                got = getattr(forms, name)
                assert got.shape == M.shape
                assert np.abs(got - M).max() <= 1e-14 * np.abs(M).max(), (name, m, n)
            if n == 0:
                # the Korn scan skips the theta_z eigensolve on exactly this
                assert not np.any(forms.phi_tz)
                assert "theta" not in forms.blocks
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
            fmode = as_fourier(mode)
            want_stiff = mode_energy(geom, EL, fmode, nodes=disc.nodes)
            dens = mode_denominators(geom, fmode, nodes=disc.nodes)
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
        mode = LinearizedMode(wn=wn, a_theta=0.7, a_z=-0.4)
        x = dof_vector(mode, geom, disc)
        forms = mode_forms(geom, EL, wn, disc)
        mh = wn.m_hat
        half = PI * PI / 2  # theta and z trig integrals for n >= 1, m >= 1

        def wall_int(poly):
            prim = (poly * Polynomial([0.0, 1.0])).integ()
            return prim(geom.r_outer) - prim(geom.r_inner)

        want_rz = half * mh**2 * wall_int(Polynomial([1.0]) ** 2)
        want_zz = half * mh**2 * wall_int(Polynomial([mode.a_z - mh, mh]) ** 2)
        want_tz = half * mh**2 * wall_int(Polynomial([-3.0, mode.a_theta + 3.0]) ** 2)
        assert float(x @ forms.phi_rz @ x) == pytest.approx(want_rz, rel=1e-12)
        assert float(x @ forms.phi_zz @ x) == pytest.approx(want_zz, rel=1e-12)
        assert float(x @ forms.phi_tz @ x) == pytest.approx(want_tz, rel=1e-12)

    def test_quadrature_exactness_under_refinement(self):
        # truncation is zero (polynomial integrands; 1/r analytic on the
        # wall), so doubling the rule moves entries only at summation
        # roundoff level
        for h, mn in ((0.1, (2, 1)), (0.03, (6, 4)), (0.01, (9, 12))):
            geom = ShellGeometry(h=h, L=PI)
            wn = WaveNumbers(m=mn[0], n=mn[1], L=PI)
            a = mode_forms(geom, EL, wn, RadialDiscretization(degree=12))
            b = mode_forms(geom, EL, wn, RadialDiscretization(degree=12, quad_nodes=48))
            for Ma, Mb in ((a.stiffness, b.stiffness), (a.phi_rz, b.phi_rz), (a.grad2, b.grad2)):
                diff = np.abs(Ma - Mb).max()
                assert diff <= 1e-13 * np.abs(Ma).max()

    def test_invalid_denominator_rejected(self):
        geom = ShellGeometry(h=0.03, L=PI)
        with pytest.raises(ValueError):
            assemble_pencil(geom, EL, WaveNumbers(m=1, n=1, L=PI), "bogus")


class TestMinRayleigh:
    def test_identical_forms_give_one(self):
        geom = ShellGeometry(h=0.02, L=PI)
        pencil = assemble_pencil(geom, EL, WaveNumbers(m=3, n=2, L=PI), "phi_rz")
        unit = ModePencil(
            wn=pencil.wn, A=pencil.A, B=pencil.A, denominator="phi_rz", blocks=pencil.blocks
        )
        assert min_rayleigh(unit) == pytest.approx(1.0, rel=1e-10)

    def test_zero_denominator_raises(self):
        geom = ShellGeometry(h=0.02, L=PI)
        pencil = assemble_pencil(geom, EL, WaveNumbers(m=3, n=2, L=PI), "phi_rz")
        broken = ModePencil(
            wn=pencil.wn, A=pencil.A, B=0.0 * pencil.B, denominator="phi_rz", blocks=pencil.blocks
        )
        with pytest.raises(ZeroDenominator):
            min_rayleigh(broken)

    def test_indefinite_stiffness_raises_typed_error(self):
        A = np.diag([2.0, -1.0, 3.0])
        pencil = ModePencil(
            wn=WaveNumbers(m=1, n=1, L=PI), A=A, B=np.eye(3), denominator="phi_rz", blocks={}
        )
        with pytest.raises(AssemblyDegenerate):
            min_rayleigh(pencil)

    def test_richer_space_never_above_closed_form(self):
        # on Koiter-circle wave numbers at h=0.01 the oracle sits within 5%
        # below the reduced closed form
        geom = ShellGeometry(h=0.01, L=PI)
        p = CriticalLoadProblem(geom=geom, elastic=EL)
        from cylbuck.critical_load import koiter_circle

        for wn in koiter_circle(p, rel_tol=0.03)[:5]:
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


class TestReducedPencil:
    @pytest.mark.parametrize("mn", [(1, 4), (13, 9), (18, 1), (5, 0)])
    def test_matches_closed_form_minimum(self, mn):
        # same finite-dimensional problem through two independent routes
        geom = ShellGeometry(h=0.01, L=PI)
        p = CriticalLoadProblem(geom=geom, elastic=EL)
        wn = WaveNumbers(m=mn[0], n=mn[1], L=PI)
        closed = per_mode_strain_full(p, wn).value
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

    def test_jobs_parallel_same_result(self):
        # 70 pairs: above the serial cut-off, so jobs=2 runs the process pool
        geom = ShellGeometry(h=0.05, L=PI)
        disc = RadialDiscretization(degree=6)
        window = (10, 6)
        for scan in (oracle_sweep, korn_mode_scan, equivalence_scan):
            serial = scan(geom, EL, disc, window, jobs=1)
            assert scan(geom, EL, disc, window, jobs=2) == serial, scan.__name__


class TestKornScan:
    def test_ratios_positive_and_scale_free(self, rng):
        geom = ShellGeometry(h=0.05, L=PI)
        disc = RadialDiscretization(degree=8)
        ests = korn_mode_scan(geom, EL, disc, window=(8, 6))
        kinds = {e.kind for e in ests}
        assert kinds == {"korn", "theta_z", "r_z", "weighted"}
        for e in ests:
            assert e.value > 0
        # per-mode ratios are quotients of quadratic forms: scaling invariant
        forms = mode_forms(geom, EL, WaveNumbers(m=2, n=3, L=PI), disc)
        x = rng.standard_normal(forms.stiffness.shape[0])
        r1 = (x @ forms.e2 @ x) / (x @ forms.grad2 @ x)
        r2 = ((3 * x) @ forms.e2 @ (3 * x)) / ((3 * x) @ forms.grad2 @ (3 * x))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_korn_below_destabilizing_bounds(self):
        # |e|^2/|grad|^2 <= 1 always; the r_z ratio dominates theta_z's
        geom = ShellGeometry(h=0.02, L=PI)
        ests = {e.kind: e.value for e in korn_mode_scan(geom, EL, RadialDiscretization(8), (12, 8))}
        assert ests["korn"] < 1.0
        assert ests["r_z"] > ests["theta_z"]


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
        gaps = equivalence_gap(geom, EL, WaveNumbers(m=4, n=5, L=PI))
        assert gaps.full_vs_rz > 0
        assert gaps.rz_vs_mid > 0

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


class TestAnsatz:
    def test_zero_bump_rejected(self):
        class ZeroBump:
            max_order = 4

            def derivatives(self, t, order):
                t = np.asarray(t, dtype=float)
                return [np.zeros_like(t)] * (order + 1)

        with pytest.raises(ValueError):
            ansatz_ratios(ShellGeometry(h=0.01, L=PI), bump=ZeroBump())

    def test_under_resolved_raises(self):
        with pytest.raises(QuadratureUnderResolved):
            ansatz_ratios(ShellGeometry(h=0.01, L=PI), eta_nodes=10, z_nodes=10)

    def test_bump_derivative_stack_consistent(self):
        # orders 1..4 against finite differences of order 0 stack
        bump = BumpProfile()
        t = np.linspace(-0.95, 0.95, 41)
        step = 1e-6
        d = bump.derivatives(t, 4)
        for order in range(1, 5):
            up = bump.derivatives(t + step, order - 1)[order - 1]
            dn = bump.derivatives(t - step, order - 1)[order - 1]
            fd = (up - dn) / (2 * step)
            assert np.allclose(fd, d[order], rtol=5e-6, atol=5e-6 * np.abs(d[order]).max())

    def test_ratio_magnitudes(self):
        r = ansatz_ratios(ShellGeometry(h=0.01, L=PI))
        assert isinstance(r, AnsatzRatios)
        assert 0 < r.korn < 1
        assert r.r_z > 0 and r.theta_z > 0

    def test_invalid_exponent_scale(self):
        with pytest.raises(ValueError):
            BumpProfile(a=0.0)

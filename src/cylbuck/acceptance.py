"""Acceptance criteria: quantitative desk-scale checks of every headline claim.

Each criterion returns a CriterionResult with a PASS/FAIL verdict and a
one-line summary of the measured numbers; `run_all` drives them in order.
Tolerances are fixed here, not configurable: they are the package's exit
criteria.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np
from numpy.polynomial import Polynomial

from . import critical_load as cl
from . import modes as modes_mod
from . import oracle as oracle_mod
from . import spectral
from .material import IsotropicElasticity, SymStrain, coercivity_bound, energy_density
from .spectral import FourierMode, ShellGeometry, WaveNumbers
from .trivial_branch import StVenantKirchhoff, linearized_displacement_slope, solve_radial_stretch

NU_DEFAULT = 0.3
L_DEFAULT = math.pi
SWEEP_H = (0.1, 0.03, 0.01, 0.003, 0.001)
KORN_H = (0.1, 0.05, 0.02, 0.01, 0.005)
ANSATZ_H = (1e-4, 3e-5, 1e-5)
EQUIV_H = (0.05, 0.02, 0.01, 0.005)
MODE_H = (0.03, 0.01, 0.003)
MODE_L = 2 * math.pi  # finer axial lattice so both harmonics track the circle


def _seed() -> int:
    return int(os.environ.get("KOITER_SEED", "42"))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number}: {self.name} -- {self.details}"


def _problem(h: float, nu: float = NU_DEFAULT, L: float = L_DEFAULT) -> cl.CriticalLoadProblem:
    return cl.CriticalLoadProblem(
        geom=ShellGeometry(h=h, L=L), elastic=IsotropicElasticity(nu=nu)
    )


def criterion_1() -> CriterionResult:
    """Integer sweep converges to the classical strain formula."""
    errs = []
    for h in SWEEP_H:
        p = _problem(h)
        errs.append(abs(cl.sweep(p).strain / cl.classical_strain(p) - 1.0))
    at_001 = errs[SWEEP_H.index(0.01)]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    passed = at_001 <= 0.05 and decreasing
    details = (
        f"|ratio-1| at h=0.01 is {at_001:.4f} (<= 0.05); sequence "
        + " > ".join(f"{e:.4f}" for e in errs)
        + (" decreasing" if decreasing else " NOT decreasing")
    )
    return CriterionResult(1, "classical formula convergence", passed, details)


def criterion_2(jobs: int = 1) -> CriterionResult:
    """Discretized-elasticity window minimum agrees with the closed-form
    sweep, and at the h = 0.005 sweep winner the oracle's phi_rz quotient
    does not exceed the reduced strain.

    Both checks are made at h = 0.005 only.  The second does not hold for
    every h: at the (1, 1) winner with nu = 0.3 and h = 0.3 the phi_rz
    quotient sits +1.63 % above the reduced strain at L = 10 and +1.51 %
    at L = 30."""
    h = 0.005
    p = _problem(h)
    res = cl.sweep(p)
    disc = oracle_mod.RadialDiscretization()
    om = oracle_mod.oracle_sweep(p.geom, p.elastic, disc, p.window(), jobs=jobs)
    agree = abs(om.value / res.strain - 1.0)
    at_winner = oracle_mod.min_rayleigh(
        oracle_mod.assemble_pencil(p.geom, p.elastic, p.wave_numbers(res.m, res.n), "phi_rz", disc)
    )
    below = at_winner <= res.strain * (1.0 + 1e-8)
    passed = agree <= 0.10 and below
    details = (
        f"window min {om.value:.6e} at (m={om.wn.m}, n={om.wn.n}) vs closed form "
        f"{res.strain:.6e}: rel gap {agree:.2e} (<= 0.1); at the winner the oracle "
        f"is {'below' if below else 'ABOVE'} (ratio-1 = {at_winner / res.strain - 1:.2e})"
    )
    return CriterionResult(2, "oracle independence", passed, details)


def criterion_3() -> CriterionResult:
    """Near-optimal integer pairs populate the Koiter circle.

    Evidence that the minimum is attained on the circle: at least five
    distinct pairs are simultaneously within 2% of the sweep minimum and
    within integer-rounding distance 1 of the circle.  (The 2% level set is
    wider than the unit tube -- the landscape is flat transverse to the
    circle -- so the tube condition selects among the near-optimal pairs.)
    The scan skips only pairs that the ceiling 1.02 * best excludes.
    """
    h = 0.001
    p = _problem(h)
    best = cl.sweep(p).strain
    R = p.koiter_radius
    near = 0
    on_circle = 0
    for n, _, m_hat, minima in cl.window_strains(p, 1.02 * best):
        close = minima.value <= 1.02 * best
        near += int(np.count_nonzero(close))
        on_circle += int(np.count_nonzero(close & (np.abs(np.hypot(m_hat - R, n) - R) <= 1.0)))
    passed = on_circle >= 5
    details = (
        f"{near} pairs within 2% of the minimum, of which {on_circle} lie "
        f"within circle distance 1 (need >= 5)"
    )
    return CriterionResult(3, "Koiter circle population", passed, details)


def criterion_4() -> CriterionResult:
    """Exact amplitude solve reproduces the closed-form axial amplitude."""
    rng = np.random.default_rng(_seed())
    worst = 0.0
    for _ in range(1000):
        nu = float(rng.uniform(-0.45, 0.45))
        el = IsotropicElasticity(nu=nu)
        m = int(rng.integers(1, 40))
        n = int(rng.integers(0, 40))
        L = float(rng.uniform(0.5, 10.0))
        at = float(rng.uniform(-5.0, 5.0))
        wn = WaveNumbers(m=m, n=n, L=L)
        want = modes_mod.closed_form_a_z(nu, wn.m_hat, n, at)
        got = cl.q0_argmin_az(wn, at, el)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    passed = worst <= 1e-12
    return CriterionResult(
        4, "axial amplitude closed form", passed, f"worst mismatch {worst:.2e} (<= 1e-12)"
    )


def criterion_5(jobs: int = 1) -> CriterionResult:
    """Korn-type ratios scale with the predicted powers of h."""
    targets = {"korn": 1.5, "theta_z": -0.5, "r_z": -1.0}
    disc = oracle_mod.RadialDiscretization()
    scan = []
    for h in KORN_H:
        p = _problem(h)
        scan.append(oracle_mod.korn_mode_scan(p.geom, p.elastic, disc, p.window(), jobs=jobs))
    ansatz = [oracle_mod.ansatz_ratios(ShellGeometry(h=h, L=L_DEFAULT)) for h in ANSATZ_H]

    def fit(hs, ratios):
        return {k: oracle_mod.fitted_slope(hs, [getattr(r, k) for r in ratios]) for k in targets}

    slopes, aslopes = fit(KORN_H, scan), fit(ANSATZ_H, ansatz)
    scan_ok = all(abs(slopes[k] - targets[k]) <= 0.15 for k in targets)
    ansatz_ok = all(abs(aslopes[k] - targets[k]) <= 0.2 for k in targets)
    passed = scan_ok and ansatz_ok
    details = (
        "mode-scan slopes "
        + ", ".join(f"{k}={slopes[k]:+.3f}" for k in targets)
        + " (targets 1.5/-0.5/-1.0 +-0.15); ansatz slopes "
        + ", ".join(f"{k}={aslopes[k]:+.3f}" for k in targets)
        + " (+-0.2)"
    )
    return CriterionResult(5, "Korn scalings", passed, details)


def criterion_6(jobs: int = 1) -> CriterionResult:
    """Reciprocal-quotient gap vanishes against the classical strain scale."""
    el = IsotropicElasticity(nu=NU_DEFAULT)
    disc = oracle_mod.RadialDiscretization()
    prods = []
    for h in EQUIV_H:
        geom = ShellGeometry(h=h, L=L_DEFAULT)
        p = cl.CriticalLoadProblem(geom=geom, elastic=el)
        scan = oracle_mod.equivalence_scan(geom, el, disc, p.window(), jobs=jobs)
        prods.append(cl.classical_strain(p) * scan.full_vs_rz)
    decreasing = all(b < a for a, b in zip(prods, prods[1:]))
    slope = oracle_mod.fitted_slope(EQUIV_H, prods)
    passed = decreasing and slope >= 0.3
    details = (
        "lambda_star * sup|1/R - 1/R1| = "
        + " > ".join(f"{v:.3e}" for v in prods)
        + f"; fitted slope {slope:+.3f} (>= 0.3, theory 0.5)"
    )
    return CriterionResult(6, "buckling-equivalence gap decay", passed, details)


def criterion_7() -> CriterionResult:
    """Pre-buckled radial stretch: slope, quadratic remainder, and every
    sampled stretch zeroing the energy's lateral traction to 1e-12."""
    rows = []
    ok = True
    for nu in (0.0, 0.3, 0.45):
        model = StVenantKirchhoff(IsotropicElasticity(nu=nu))
        slope_err = abs(linearized_displacement_slope(model) - nu)
        lams = np.geomspace(1e-4, 1e-2, 7).tolist()
        stretches = [solve_radial_stretch(model, lam) for lam in lams]
        rem = max(abs(a - nu * lam) / lam**2 for lam, a in zip(lams, stretches))
        zeroed = all(
            abs(model.residual_rr((1.0 + a) ** 2, (1.0 - lam) ** 2)) <= 1e-12
            for lam, a in zip(lams, stretches)
        )
        ok = ok and slope_err <= 1e-6 and rem < 10.0 and zeroed
        rows.append(
            f"nu={nu}: |a'(0)-nu|={slope_err:.1e}, remainder C={rem:.2f}"
            + ("" if zeroed else ", residual NOT zeroed to 1e-12")
        )
    return CriterionResult(7, "trivial branch", ok, "; ".join(rows))


def criterion_8() -> CriterionResult:
    """Admissible two-term mode: boundary traces and quotient convergence."""
    el = IsotropicElasticity(nu=NU_DEFAULT)
    errs = []
    trace_ok = True
    for h in MODE_H:
        spec = modes_mod.BucklingModeSpec(
            geom=ShellGeometry(h=h, L=MODE_L), elastic=el, alpha=0.5
        )
        field = modes_mod.synthesize(spec, r_nodes=5)
        trace_ok = trace_ok and field.boundary_trace_max() <= 1e-12 * field.scale()
        errs.append(abs(modes_mod.quotient_ratio(spec) - 1.0))
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    passed = trace_ok and decreasing
    details = (
        f"traces {'vanish' if trace_ok else 'DO NOT vanish'} to 1e-12 relative; "
        "|ratio-1| = " + " > ".join(f"{e:.4f}" for e in errs)
        + (" decreasing" if decreasing else " NOT decreasing")
    )
    return CriterionResult(8, "two-term buckling mode", passed, details)


def _grid_energy(geom: ShellGeometry, elastic: IsotropicElasticity, modes) -> float:
    """Elastic energy of the summed modes by tensor-grid quadrature over the
    shell: Gauss-Legendre in r (24 nodes) and z (48), uniform in theta (64)."""
    r, wr = spectral.radial_rule(geom, 24)
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[None, :, None]
    zq, wz = np.polynomial.legendre.leggauss(48)
    z = 0.5 * geom.L * (zq + 1.0)[None, None, :]
    total = [0.0] * 6
    for mode in modes:
        e = spectral.strain_amplitudes(mode, r[:, None, None])
        n, mh = float(mode.wn.n), mode.wn.m_hat
        cc = np.cos(n * theta) * np.cos(mh * z)
        sc = np.sin(n * theta) * np.cos(mh * z)
        cs = np.cos(n * theta) * np.sin(mh * z)
        ss = np.sin(n * theta) * np.sin(mh * z)
        terms = (e.rr * cc, e.tt * cc, e.zz * cc, e.rt * sc, e.rz * cs, e.tz * ss)
        total = [t + term for t, term in zip(total, terms)]
    weight = (wr * r)[:, None, None] * (2.0 * math.pi / 64) * (0.5 * geom.L * wz)[None, None, :]
    return float(np.sum(weight * energy_density(elastic, SymStrain(*total))))


def _strain_samples(rng: np.random.Generator):
    """Criterion 9's random strains as arrays: 200 strains with their factors
    for the homogeneity check, then 10 000 strains for coercivity.

    The draws are those of 200 rounds of ``random_strain(rng)`` and
    ``rng.uniform(-3, 3)``, then 10 000 calls of ``random_strain(rng)``:
    numpy's uniform is ``low + range * next_double``, so one block of
    ``rng.random`` scaled the same way takes the same doubles.
    """
    u = rng.random((200, 7))
    strains = SymStrain(*(-1.0 + 2.0 * u[:, :6]).T)
    factors = -3.0 + 6.0 * u[:, 6]
    return strains, factors, SymStrain(*rng.uniform(-1.0, 1.0, (10_000, 6)).T)


# f(1 + y) = sum_k d_k y^k with d = c @ _SHIFT_TO_1 for f(x) = sum_j c_j x^j
_SHIFT_TO_1 = np.array([[math.comb(j, k) for k in range(6)] for j in range(6)], dtype=float)


def _wall_sides(rng: np.random.Generator):
    """Both sides of criterion 9's wall inequality

        int (F(x) - F(1))^2 dx  <=  h^2 / 4  int f(x)^2 dx   over 1 - h/2 <= x <= 1 + h/2,

    F' = f, as arrays (lhs, rhs) over 100 random wall widths h and quintics f.

    The draws are those of 100 rounds of ``rng.uniform(0.01, 0.5)`` and
    ``rng.uniform(-2, 2, size=6)`` (h, then f's coefficients), taken as one
    block of ``rng.random`` scaled as uniform scales it.  Both integrands have
    degree at most 12, so the 7-point Gauss-Legendre rule is exact; f is
    expanded about x = 1, so F(x) - F(1) at the nodes does not cancel.
    """
    u = rng.random((100, 7))
    h = 0.01 + (0.5 - 0.01) * u[:, 0]
    d = (-2.0 + 4.0 * u[:, 1:]) @ _SHIFT_TO_1
    t, w = np.polynomial.legendre.leggauss(7)
    y = 0.5 * h[:, None] * t  # x - 1 at the nodes
    powers = y[..., None] ** np.arange(6)
    f = np.einsum("ijk,ik->ij", powers, d)
    G = y * np.einsum("ijk,ik->ij", powers, d / np.arange(1, 7))  # F(x) - F(1)
    half = 0.5 * h
    return half * ((G * G) @ w), h * h / 4.0 * (half * ((f * f) @ w))


def criterion_9() -> CriterionResult:
    """Property suite: homogeneity, coercivity, decoupling, wall inequality,
    sandwich."""
    rng = np.random.default_rng(_seed())
    el = IsotropicElasticity(nu=NU_DEFAULT)
    checks: List[bool] = []

    # quadratic homogeneity
    e, c, sampled = _strain_samples(rng)
    a = energy_density(el, e.scaled(c))
    b = c * c * energy_density(el, e)
    checks += (np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1e-12)).tolist()
    # coercivity sampling
    alpha = coercivity_bound(el)
    f2 = sampled.frob2()
    keep = f2 > 1e-12
    checks += (energy_density(el, sampled)[keep] >= alpha * f2[keep] * (1 - 1e-12)).tolist()
    # Parseval decoupling of the stiffness over distinct modes
    geom = ShellGeometry(h=0.05, L=L_DEFAULT)
    modes = []
    for (m, n) in ((1, 2), (3, 2), (2, 5)):
        profs = [Polynomial(rng.uniform(-1, 1, size=3)) for _ in range(3)]  # fr, ftheta, fz
        modes.append(FourierMode(WaveNumbers(m=m, n=n, L=L_DEFAULT), *profs))
    per_mode = sum(spectral.mode_energy(geom, el, mo) for mo in modes)
    checks.append(abs(_grid_energy(geom, el, modes) - per_mode) <= 1e-9 * abs(per_mode))

    # wall integral inequality on random polynomials
    lhs, rhs = _wall_sides(rng)
    checks += (lhs <= rhs * (1 + 1e-12)).tolist()

    # sandwich between the reduced and unreduced objectives
    for _ in range(100):
        nu = float(rng.uniform(-0.3, 0.45))
        ell = IsotropicElasticity(nu=nu)
        h = float(rng.uniform(1e-4, 0.1))
        wn = WaveNumbers(m=int(rng.integers(1, 30)), n=int(rng.integers(0, 30)), L=L_DEFAULT)
        tilde = cl.mode_strain_at(ell, wn, h, reduced=True).value
        full = cl.mode_strain_at(ell, wn, h, reduced=False).value
        checks.append((1 - h - h * h) * tilde <= full * (1 + 1e-12))
        checks.append(full <= (1 + h + h * h) * tilde * (1 + 1e-12))

    passed = all(checks)
    return CriterionResult(
        9, "property suites", passed, f"{sum(checks)}/{len(checks)} sampled properties hold"
    )


CRITERIA: Dict[int, Callable[..., CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}

_JOBS_AWARE = {2, 5, 6}


def run_all(numbers: Optional[Iterable[int]] = None, jobs: int = 1) -> List[CriterionResult]:
    selected = sorted(set(numbers)) if numbers else sorted(CRITERIA)
    results = []
    for num in selected:
        if num not in CRITERIA:
            raise ValueError(f"unknown criterion {num}")
        fn = CRITERIA[num]
        results.append(fn(jobs=jobs) if num in _JOBS_AWARE else fn())
    return results

"""Discretized 3D-elasticity verification engine.

Everything here deliberately avoids the closed-form reduction: each Fourier
mode keeps *exact* strains (no radial linearization, no pruning) with the
radial profiles discretized in a Chebyshev polynomial basis on the wall.
Quadratic functionals become small symmetric matrices ("pencils"); infima of
Rayleigh quotients become generalized eigenvalue problems, solved as the
largest eigenvalue of the destabilizing form with respect to the stiffness
(Cholesky congruence), which sidesteps the denominator's null space.

The same machinery measures Korn-type ratios per mode:

    |e(phi)|^2 / |grad phi|^2      (slenderness; scales like h^{3/2})
    |phi_{theta,z}|^2 / |e|^2      (scales like h^{-1/2})
    |phi_{r,z}|^2 / |e|^2          (scales like h^{-1})

and evaluates the same three ratios on the wave-packet ansatz that attains
all of them simultaneously.

Assembly precision: every strain and gradient map of a mode is a Chebyshev
value or derivative table, times a polynomial in (n, mhat), times r^0 or
r^-1.  Each form is therefore a fixed combination of twelve radial moment
matrices, which are computed once per (h, degree, nodes) in extended
precision, rounded once to float64, and combined per mode in float64.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import AssemblyDegenerate, QuadratureUnderResolved, ZeroDenominator
from .material import IsotropicElasticity
from .spectral import ShellGeometry, WaveNumbers, radial_rule, trig_factors, window_pairs

DENOMINATORS = ("full", "phi_rz", "phi_rz_mid")


@dataclass(frozen=True)
class RadialDiscretization:
    """Chebyshev polynomial degree per displacement component on the wall.

    The quadrature rule (default 2*degree Gauss-Legendre nodes) integrates
    every polynomial part of the radial moments exactly; the 1/r factors are
    analytic on the wall and converge at machine precision well before that.
    The moments are summed in extended precision and rounded once to
    float64, so refining the rule moves assembled entries only at the
    float64 rounding level.
    """

    degree: int = 12
    quad_nodes: Optional[int] = None

    def __post_init__(self):
        if self.degree < 4:
            raise ValueError("radial degree must be >= 4")

    @property
    def nodes(self) -> int:
        return self.quad_nodes if self.quad_nodes is not None else 2 * self.degree


def _leggauss_refined(nodes: int):
    """Gauss-Legendre rule with nodes Newton-polished in extended precision.

    float64 nodes limit assembled integrals to ~1e-13 relative (node error
    times the integrand's t-derivative); two Newton steps through the
    Legendre recurrence push that to the longdouble level.
    """

    def legendre(t):
        """P_nodes(t) and its derivative through the three-term recurrence."""
        p_prev = np.ones_like(t)
        p = t.copy()
        for k in range(2, nodes + 1):
            p, p_prev = ((2 * k - 1) * t * p - (k - 1) * p_prev) / k, p
        return p, nodes * (t * p - p_prev) / (t * t - 1.0)

    t64, _ = np.polynomial.legendre.leggauss(nodes)
    t = t64.astype(np.longdouble)
    for _ in range(2):
        p, dp = legendre(t)
        t = t - p / dp
    _, dp = legendre(t)
    return t, 2.0 / ((1.0 - t * t) * dp * dp)


class _WallTables(NamedTuple):
    r: np.ndarray        # quadrature nodes on the wall (extended precision)
    w: np.ndarray        # weights, Jacobian h/2 included
    V: np.ndarray        # Chebyshev values, nodes x (degree + 1)
    dV: np.ndarray       # their r-derivatives
    v_mid: np.ndarray    # values at the mid-surface r = 1
    moments: np.ndarray  # float64, (12, k*k): int X^T Y r^(1-q) dr, index (X, Y, q)


@lru_cache(maxsize=64)
def _cheb_tables(h: float, degree: int, nodes: int) -> _WallTables:
    """Quadrature rule, basis tables and radial moments on the wall.

    The tables are evaluated in extended precision.  The moments
    int X^T Y r^(1-q) dr for X, Y in {V, dV} and q in {0, 1, 2} are summed
    in extended precision and rounded once to float64; mode_forms combines
    them per mode in float64.
    """
    t, wt = _leggauss_refined(nodes)
    half = np.longdouble(0.5) * np.longdouble(h)
    r = 1.0 + half * t
    w = half * wt
    V = np.polynomial.chebyshev.chebvander(t, degree)
    dV = np.zeros_like(V)
    for k in range(1, degree + 1):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        dV[:, k] = np.polynomial.chebyshev.chebval(t, np.polynomial.chebyshev.chebder(coef))
    dV *= np.longdouble(2.0) / np.longdouble(h)
    v_mid = np.polynomial.chebyshev.chebvander(np.zeros(1, dtype=np.longdouble), degree)[0]

    k = degree + 1
    tabs = (V, dV)
    moments = np.empty((2, 2, 3, k, k))
    for q in range(3):
        wq = (w * r ** (1 - q))[:, None]
        for x in range(2):
            for y in range(x, 2):
                M = tabs[x].T @ (wq * tabs[y])
                if x == y:
                    M = 0.5 * (M + M.T)
                moments[x, y, q] = M
                moments[y, x, q] = moments[x, y, q].T
    return _WallTables(r, w, V, dV, v_mid, moments.reshape(12, k * k))


@dataclass(frozen=True)
class ModePencil:
    """Pair (A, B): stiffness and a destabilizing quadratic form of one mode."""

    wn: WaveNumbers
    A: np.ndarray
    B: np.ndarray
    denominator: str
    blocks: Dict[str, slice]


class ModeForms(NamedTuple):
    """All quadratic forms of one discretized mode, trig factors included."""

    wn: WaveNumbers
    stiffness: np.ndarray
    e2: np.ndarray
    grad2: np.ndarray
    phi_rz: np.ndarray
    phi_zz: np.ndarray
    phi_tz: np.ndarray
    phi_rz_mid: np.ndarray
    phi_r2: np.ndarray
    blocks: Dict[str, slice]


def _sym(C: np.ndarray, rw: np.ndarray) -> np.ndarray:
    # stays in the tables' extended precision; callers cast once at the end
    M = C.T @ (rw[:, None] * C)
    return 0.5 * (M + M.T)


# One-hot radial atoms indexed (block r/theta/z, table V/dV, power p of 1/r).
# A map's coefficient array c stands for sum c[b, X, p] X r^-p placed in
# block b, and its quadratic form for the outer product of c with itself.
_ATOMS = np.eye(12).reshape(12, 3, 2, 2)
# pairs the 1/r powers (p, p') of two atoms with the moment weight r^(1-q), q = p + p'
_POWER_SUM = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def _over_r(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    out[..., 1] = c[..., 0]
    return out


def _gram(c: np.ndarray) -> np.ndarray:
    return np.multiply.outer(c, c)


def mode_forms(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    wn: WaveNumbers,
    disc: RadialDiscretization,
) -> ModeForms:
    """Assemble every quadratic form of the mode in one pass.

    DOF layout: [f_r coefficients | f_theta coefficients | f_z coefficients];
    the theta block is dropped for n = 0 (no torsion in this pairing).
    """
    tabs = _cheb_tables(geom.h, disc.degree, disc.nodes)
    k = disc.degree + 1
    n = float(wn.n)
    mh = wn.m_hat
    names = ("r", "theta", "z") if wn.n >= 1 else ("r", "z")
    blocks = {name: slice(i * k, (i + 1) * k) for i, name in enumerate(names)}

    Pr, dPr, Pt, dPt, Pz, dPz = _ATOMS[::2]  # the r^0 atoms
    # strain amplitude maps
    C_rr = dPr
    C_tt = _over_r(n * Pt + Pr)
    C_zz = mh * Pz
    C_rt = 0.5 * (dPt - _over_r(Pt + n * Pr))
    C_rz = 0.5 * (dPz - mh * Pr)
    C_tz = -0.5 * (mh * Pt + n * _over_r(Pz))
    # gradient amplitude maps (component, direction)
    G_rt = -_over_r(n * Pr + Pt)
    G_rz = -mh * Pr
    G_tz = -mh * Pt
    G_zt = -n * _over_r(Pz)

    f = trig_factors(wn)
    S_rr, S_tt, S_zz = _gram(C_rr), _gram(C_tt), _gram(C_zz)
    S_rt, S_rz, S_tz = _gram(C_rt), _gram(C_rz), _gram(C_tz)
    S_tr = _gram(C_rr + C_tt + C_zz)  # trace map shares the cos-cos factor

    nu = elastic.nu
    e2 = f.cc * (S_rr + S_tt + S_zz) + 2.0 * f.sc * S_rt + 2.0 * f.cs * S_rz + 2.0 * f.ss * S_tz
    stiffness = ((nu / (1.0 - 2.0 * nu)) * f.cc * S_tr + e2) / (1.0 + nu)
    grad2 = (
        f.cc * _gram(dPr)
        + f.sc * _gram(G_rt)
        + f.cs * _gram(G_rz)
        + f.sc * _gram(dPt)
        + f.cc * S_tt
        + f.ss * _gram(G_tz)
        + f.cs * _gram(dPz)
        + f.ss * _gram(G_zt)
        + f.cc * S_zz
    )
    coef = np.stack([
        stiffness,
        e2,
        grad2,
        f.cs * mh**2 * _gram(Pr),  # phi_rz
        f.cc * mh**2 * _gram(Pz),  # phi_zz
        f.ss * mh**2 * _gram(Pt),  # phi_tz
        f.cc * _gram(Pr),          # phi_r2
    ])

    keep = [0, 1, 2] if wn.n >= 1 else [0, 2]
    nf, nb = coef.shape[0], len(keep)
    # (form, block, table, p, block', table', p') -> (form, block, block', table, table', q)
    coef = coef[:, keep][:, :, :, :, keep].transpose(0, 1, 4, 2, 5, 3, 6)
    coef = coef.reshape(-1, 4) @ _POWER_SUM
    F = (coef.reshape(-1, 12) @ tabs.moments).reshape(nf, nb, nb, k, k)
    F = F.transpose(0, 1, 3, 2, 4).reshape(nf, nb * k, nb * k)
    F = 0.5 * (F + F.transpose(0, 2, 1))

    v = np.zeros(nb * k)
    v[blocks["r"]] = tabs.v_mid
    phi_rz_mid = f.cs * mh**2 * geom.h * np.outer(v, v)

    return ModeForms(
        wn=wn,
        stiffness=F[0],
        e2=F[1],
        grad2=F[2],
        phi_rz=F[3],
        phi_zz=F[4],
        phi_tz=F[5],
        phi_rz_mid=phi_rz_mid,
        phi_r2=F[6],
        blocks=blocks,
    )


def assemble_pencil(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    wn: WaveNumbers,
    denominator: str = "phi_rz",
    disc: RadialDiscretization = RadialDiscretization(),
) -> ModePencil:
    """Stiffness plus the chosen destabilizing form as a symmetric pencil.

    denominator: "full" for the compression measure magnitude
    |phi_{r,z}|^2 + |phi_{z,z}|^2 + |phi_{theta,z}|^2, "phi_rz" for the
    |phi_{r,z}|^2 norm, "phi_rz_mid" for its mid-surface trace.
    """
    if denominator not in DENOMINATORS:
        raise ValueError(f"denominator must be one of {DENOMINATORS}")
    forms = mode_forms(geom, elastic, wn, disc)
    if denominator == "full":
        B = forms.phi_rz + forms.phi_zz + forms.phi_tz
    elif denominator == "phi_rz":
        B = forms.phi_rz
    else:
        B = forms.phi_rz_mid
    return ModePencil(wn=wn, A=forms.stiffness, B=B, denominator=denominator, blocks=forms.blocks)


def min_rayleigh(pencil: ModePencil) -> float:
    """inf over the mode space of (x.A.x)/(x.B.x) = 1 / mu_max(B w.r.t. A).

    Raises AssemblyDegenerate when the stiffness A is not positive definite
    (the Cholesky factorization inside the generalized eigensolve fails).
    """
    scale_a = np.linalg.norm(pencil.A)
    if np.linalg.norm(pencil.B) <= 1e-15 * scale_a:
        raise ZeroDenominator(f"destabilizing form vanishes for {pencil.wn}")
    try:
        mu = scipy.linalg.eigh(pencil.B, pencil.A, eigvals_only=True)[-1]
    except scipy.linalg.LinAlgError as exc:
        raise AssemblyDegenerate(f"stiffness not positive definite for {pencil.wn}") from exc
    if mu <= 0.0:
        raise ZeroDenominator(f"destabilizing form is not positive on {pencil.wn}")
    return 1.0 / mu


# ---------------------------------------------------------------------------
# window scans
# ---------------------------------------------------------------------------

class OracleMinimum(NamedTuple):
    value: float
    wn: WaveNumbers


def _mode_min_rayleigh(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    denominator: str,
    wn: WaveNumbers,
) -> float:
    return min_rayleigh(assemble_pencil(geom, elastic, wn, denominator, disc))


def _run_jobs(per_mode: Callable, pairs: Sequence[WaveNumbers], jobs: int) -> List:
    """per_mode(wn) for every pair, in order; in a process pool for large windows."""
    if jobs <= 1 or len(pairs) < 32:
        return [per_mode(wn) for wn in pairs]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(per_mode, pairs, chunksize=max(1, len(pairs) // (4 * jobs))))


def oracle_sweep(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    window: Tuple[int, int],
    denominator: str = "phi_rz",
    jobs: int = 1,
) -> OracleMinimum:
    """Minimize the discretized Rayleigh quotient over the integer window.

    Deterministic tie-break as in the closed-form sweep (smallest n, then m);
    the reduction order never affects the winner.
    """
    pairs = list(window_pairs(window, geom.L))
    values = _run_jobs(partial(_mode_min_rayleigh, geom, elastic, disc, denominator), pairs, jobs)
    best = None
    for value, wn in zip(values, pairs):  # scan order is (n, m) lexicographic
        if best is None or value < best.value:
            best = OracleMinimum(value=value, wn=wn)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Korn-type measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KornEstimate:
    """Measured extremal ratio at one slenderness.

    kind: "korn" (min |e|^2/|grad|^2 over the window; an upper bound on the
    true constant since the mode set is restricted), "r_z" and "theta_z"
    (max destabilizing ratios), or "weighted" (consistency ratio of the
    product-form gradient bound on eigen-extremal fields).
    """

    h: float
    kind: str
    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise ValueError("Korn estimates are positive by construction")


def _mode_korn(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    wn: WaveNumbers,
) -> Tuple[float, float, float, float]:
    """Per-mode (korn, r_z, theta_z, weighted) ratios; see KornEstimate."""
    forms = mode_forms(geom, elastic, wn, disc)

    vals_korn, vecs_korn = scipy.linalg.eigh(forms.e2, forms.grad2)
    korn = vals_korn[0]
    extremals = [vecs_korn[:, 0]]

    vals_rz, vecs_rz = scipy.linalg.eigh(forms.phi_rz, forms.e2)
    rz = vals_rz[-1]
    extremals.append(vecs_rz[:, -1])

    if np.linalg.norm(forms.phi_tz) > 0.0:
        vals_tz, vecs_tz = scipy.linalg.eigh(forms.phi_tz, forms.e2)
        tz = vals_tz[-1]
        extremals.append(vecs_tz[:, -1])
    else:
        tz = 0.0

    weighted = 0.0
    for x in extremals:
        g2 = float(x @ forms.grad2 @ x)
        e2 = float(x @ forms.e2 @ x)
        pr2 = float(x @ forms.phi_r2 @ x)
        bound = (math.sqrt(pr2) / geom.h + math.sqrt(e2)) * math.sqrt(e2)
        if bound > 0.0:
            weighted = max(weighted, g2 / bound)
    return korn, rz, tz, weighted


def korn_mode_scan(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    window: Tuple[int, int],
    jobs: int = 1,
) -> List[KornEstimate]:
    """Extremal Korn-type ratios over all modes in the window.

    Returns four estimates: kinds "korn", "theta_z", "r_z", "weighted".
    """
    pairs = list(window_pairs(window, geom.L))
    results = _run_jobs(partial(_mode_korn, geom, elastic, disc), pairs, jobs)
    korn = min(r[0] for r in results)
    rz = max(r[1] for r in results)
    tz = max(r[2] for r in results)
    weighted = max(r[3] for r in results)
    return [
        KornEstimate(h=geom.h, kind="korn", value=korn),
        KornEstimate(h=geom.h, kind="theta_z", value=tz),
        KornEstimate(h=geom.h, kind="r_z", value=rz),
        KornEstimate(h=geom.h, kind="weighted", value=weighted),
    ]


# ---------------------------------------------------------------------------
# buckling-equivalence gaps
# ---------------------------------------------------------------------------

class GapValues(NamedTuple):
    """Per-mode suprema of the reciprocal-quotient differences."""

    full_vs_rz: float     # sup |1/R - 1/R1| = sup (|phi_zz|^2+|phi_tz|^2)/stiffness
    rz_vs_mid: float      # sup |1/R1 - 1/R2|


def equivalence_gap(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    wn: WaveNumbers,
    disc: RadialDiscretization = RadialDiscretization(),
) -> GapValues:
    forms = mode_forms(geom, elastic, wn, disc)
    D1 = forms.phi_zz + forms.phi_tz
    vals1 = scipy.linalg.eigh(D1, forms.stiffness, eigvals_only=True)
    D2 = forms.phi_rz - forms.phi_rz_mid
    vals2 = scipy.linalg.eigh(D2, forms.stiffness, eigvals_only=True)
    return GapValues(
        full_vs_rz=float(vals1[-1]),
        rz_vs_mid=float(max(abs(vals2[0]), abs(vals2[-1]))),
    )


class EquivalenceScan(NamedTuple):
    full_vs_rz: float        # sup over the window of |1/R - 1/R1|
    rz_vs_mid_coef: float    # sup of |1/R1 - 1/R2| / (mhat sqrt(h))


def equivalence_scan(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    window: Tuple[int, int],
    jobs: int = 1,
) -> EquivalenceScan:
    pairs = list(window_pairs(window, geom.L))
    gaps = _run_jobs(partial(equivalence_gap, geom, elastic, disc=disc), pairs, jobs)
    sup1 = max(g.full_vs_rz for g in gaps)
    coef = max(g.rz_vs_mid / (wn.m_hat * math.sqrt(geom.h)) for g, wn in zip(gaps, pairs))
    return EquivalenceScan(full_vs_rz=sup1, rz_vs_mid_coef=coef)


# ---------------------------------------------------------------------------
# reduced-model cross-check pencil
# ---------------------------------------------------------------------------

def assemble_reduced_pencil(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    wn: WaveNumbers,
    disc: RadialDiscretization = RadialDiscretization(),
) -> ModePencil:
    """Pencil of the pruned-strain functional on linearized modes.

    DOFs are the f_r coefficients plus (a_theta, a_z) (a_theta dropped for
    n = 0).  Minimizing its Rayleigh quotient must reproduce the closed-form
    per-mode strain exactly: same finite-dimensional problem, independent
    code path.
    """
    r, w, V, dV, v_mid, _ = _cheb_tables(geom.h, disc.degree, disc.nodes)
    k = disc.degree + 1
    n = float(wn.n)
    mh = wn.m_hat
    has_theta = wn.n >= 1
    ndof = k + (2 if has_theta else 1)
    q = len(r)
    i_at = k if has_theta else None
    i_az = k + 1 if has_theta else k
    blocks = {"r": slice(0, k)}

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
    return ModePencil(wn=wn, A=A, B=B, denominator="phi_rz_mid", blocks=blocks)


# ---------------------------------------------------------------------------
# the optimal-scaling ansatz
# ---------------------------------------------------------------------------

class BumpProfile:
    """C-infinity bump exp(-a/(1-t^2)) on (-1, 1) with derivatives to order 4.

    The exponent scale ``a`` trades interior flatness against edge-layer
    sharpness; it controls how early in h the asymptotic Korn scalings of
    the ansatz become visible (smaller derivative-norm ratios -> earlier).
    """

    max_order = 4

    def __init__(self, a: float = 1.0):
        if not a > 0.0:
            raise ValueError("bump exponent scale must be positive")
        self.a = float(a)

    def derivatives(self, t: np.ndarray, order: int) -> List[np.ndarray]:
        if order > self.max_order:
            raise ValueError(f"bump derivatives available up to order {self.max_order}")
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        a = self.a
        s = 1.0 - ti * ti
        u1 = a * (-2.0 * ti / s**2)
        u2 = a * (-2.0 / s**2 - 8.0 * ti**2 / s**3)
        u3 = a * (-24.0 * ti / s**3 - 48.0 * ti**3 / s**4)
        u4 = a * (-24.0 / s**3 - 288.0 * ti**2 / s**4 - 384.0 * ti**4 / s**5)
        b = np.exp(-a / s)
        chain = [
            b,
            u1 * b,
            (u2 + u1**2) * b,
            (u3 + 3.0 * u1 * u2 + u1**3) * b,
            (u4 + 4.0 * u1 * u3 + 3.0 * u2**2 + 6.0 * u1**2 * u2 + u1**4) * b,
        ]
        out = []
        for d in chain[: order + 1]:
            full = np.zeros_like(t)
            full[inside] = d
            out.append(full)
        return out


class AnsatzRatios(NamedTuple):
    korn: float      # |e|^2 / |grad phi|^2, tracks h^{3/2}
    theta_z: float   # |phi_{theta,z}|^2 / |e|^2, tracks h^{-1/2}
    r_z: float       # |phi_{r,z}|^2 / |e|^2, tracks h^{-1}


def _ansatz_norms(geom: ShellGeometry, bump: BumpProfile, eta_nodes: int, z_nodes: int, r_nodes: int):
    h, L = geom.h, geom.L
    q = h**0.25  # theta = q * eta compresses the circumferential profile

    t_eta, w_eta = np.polynomial.legendre.leggauss(eta_nodes)
    zt, wz = np.polynomial.legendre.leggauss(z_nodes)
    z = 0.5 * L * (zt + 1.0)
    wz = 0.5 * L * wz
    r, wr = radial_rule(geom, r_nodes)

    b = bump.derivatives(t_eta, 4)                      # b, b', b'', b''', b''''
    c_raw = bump.derivatives(2.0 * z / L - 1.0, 2)
    c = [c_raw[j] * (2.0 / L) ** j for j in range(3)]    # c, c', c''

    R = r[:, None, None]
    B = [bi[None, :, None] for bi in b]
    C = [ci[None, None, :] for ci in c]

    phi_r = -B[2] * C[0]
    phi_t = R * q * B[1] * C[0] + (R - 1.0) / q * B[3] * C[0]

    # raw coordinate partials (theta derivative = eta derivative / q)
    p_rt = -B[3] * C[0] / q
    p_rz = -B[2] * C[1]
    p_tr = q * B[1] * C[0] + B[3] * C[0] / q
    p_tt = R * B[2] * C[0] + (R - 1.0) / q**2 * B[4] * C[0]
    p_tz = R * q * B[1] * C[1] + (R - 1.0) / q * B[3] * C[1]
    p_zr = B[2] * C[1]
    p_zt = ((R - 1.0) * B[3] * C[1] - math.sqrt(h) * B[1] * C[1]) / q
    p_zz = (R - 1.0) * B[2] * C[2] - math.sqrt(h) * B[0] * C[2]

    # gradient tensor entries in the cylindrical frame
    g = {
        "rr": np.zeros_like(phi_r),
        "rt": (p_rt - phi_t) / R,
        "rz": p_rz,
        "tr": p_tr,
        "tt": (p_tt + phi_r) / R,
        "tz": p_tz,
        "zr": p_zr,
        "zt": p_zt / R,
        "zz": p_zz,
    }
    e_tt = g["tt"]
    e_zz = g["zz"]
    e_rt = 0.5 * (g["rt"] + g["tr"])
    e_rz = 0.5 * (g["rz"] + g["zr"])
    e_tz = 0.5 * (g["tz"] + g["zt"])

    weight = (wr * r)[:, None, None] * (q * w_eta)[None, :, None] * wz[None, None, :]

    def norm2(field):
        return float(np.sum(weight * field * field))

    e2 = norm2(g["rr"]) + norm2(e_tt) + norm2(e_zz) + 2.0 * (norm2(e_rt) + norm2(e_rz) + norm2(e_tz))
    grad2 = sum(norm2(g[key]) for key in g)
    return {
        "e2": e2,
        "grad2": grad2,
        "phi_rz2": norm2(p_rz),
        "phi_tz2": norm2(p_tz),
    }


def ansatz_ratios(
    geom: ShellGeometry,
    bump: Optional[BumpProfile] = None,
    eta_nodes: int = 160,
    z_nodes: int = 160,
    r_nodes: int = 8,
) -> AnsatzRatios:
    """Korn-type ratios of the wave-packet ansatz by tensor quadrature.

    The circumferential integral is taken in the stretched variable so the
    rule resolves the h^{1/4}-compressed bump at any h; a refined-rule
    self-check guards against under-resolution and raises
    QuadratureUnderResolved.
    """
    bump = bump or BumpProfile()
    norms = _ansatz_norms(geom, bump, eta_nodes, z_nodes, r_nodes)
    if norms["grad2"] <= 0.0:
        raise ValueError("ansatz field vanishes (zero bump)")
    check = _ansatz_norms(geom, bump, int(1.5 * eta_nodes), int(1.5 * z_nodes), r_nodes)
    for key, val in norms.items():
        ref = check[key]
        if abs(val - ref) > 1e-6 * max(abs(ref), 1e-300):
            raise QuadratureUnderResolved(
                f"{key} changed by {abs(val - ref) / max(abs(ref), 1e-300):.2e} under refinement"
            )
    return AnsatzRatios(
        korn=norms["e2"] / norms["grad2"],
        theta_z=norms["phi_tz2"] / norms["e2"],
        r_z=norms["phi_rz2"] / norms["e2"],
    )


def fitted_slope(h_values: Iterable[float], values: Iterable[float]) -> float:
    """Least-squares slope of log(value) against log(h)."""
    hs = np.log(np.asarray(list(h_values), dtype=float))
    vs = np.log(np.asarray(list(values), dtype=float))
    return float(np.polyfit(hs, vs, 1)[0])

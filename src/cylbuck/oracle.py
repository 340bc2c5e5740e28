"""Discretized 3D-elasticity verification engine.

Everything here deliberately avoids the closed-form reduction: each Fourier
mode keeps *exact* strains (no radial linearization, no dropped terms) with
the radial profiles discretized in a Chebyshev polynomial basis on the wall.
The one exception is the choice of pairs that the window minima assemble:
oracle_sweep reads the reduced minima to drop the pairs that a measured
lower bound, phi_rz >= (1 - delta_o) reduced (and for full that bound
through the proved per-pair gap 1/full <= 1/phi_rz + G), places above its
ceiling.  Every value it returns is still the oracle's own solve.
Quadratic functionals become small symmetric matrices ("pencils"); infima of
Rayleigh quotients become generalized eigenvalue problems, solved as the
largest eigenvalue of the destabilizing form with respect to the stiffness,
which sidesteps the denominator's null space.

The same machinery measures Korn-type ratios per mode:

    |e(phi)|^2 / |grad phi|^2      (slenderness; scales like h^{3/2})
    |phi_{theta,z}|^2 / |e|^2      (scales like h^{-1/2})
    |phi_{r,z}|^2 / |e|^2          (scales like h^{-1})

and evaluates the same three ratios on the wave-packet ansatz that attains
all of them simultaneously.

Block reduction: a form B that vanishes off some DOFs b (its support) has
the same nonzero eigenvalues w.r.t. A as its block B_b w.r.t. the Schur
complement S_b of A onto b.  Every pencil whose eigenvalue alone is read is
solved on such a block, through one block eigensolve (_block_eigh: a
batched factorization per slice with b ordered last, whose trailing block
factors S_b, and the trailing-block congruence).  Every window minimum
solves on the support of its destabilizing form: phi_rz on the r block,
13 x 13 at the default degree instead of 39 x 39, phi_rz_mid on the even
Chebyshev coefficients of the r block (7 x 7, rank one), and full on every
DOF.  The gaps have one kernel each and assemble no form: full_vs_rz is
c mu_max of blockdiag(M, M) on the theta and z blocks, the stiffness's
trailing DOFs, and rz_vs_mid the extreme eigenvalues of M - h v v^T on the
r block, M being the mass moment.  equivalence_scan walks the whole window
for rz_vs_mid only and takes full_vs_rz from full_vs_rz_supremum.  That is
the oracle's one rule: a pencil whose eigenvalue alone is read is one block
eigensolve, and a pencil whose extremal field is also read, as every Korn
ratio's is, is one top dsyevr eigenpair from the inverse factor L^-1 of
e2 = L L^T (_korn_ratios): korn of L^-1 grad2 L^-T, r_z and theta_z of
Y_b^T Y_b with Y_b = L^-1[:, b] W, W W^T = M.

Window minimum: the buckling load is where the second variation stops being
positive definite, and every denominator's scan uses that directly.  The
smallest minimum found so far is a ceiling c; a slice whose pencils
A - c (1 + margin) B all admit a Cholesky factorization holds no pair at or
below c and is skipped unsolved.  Every other slice is solved exactly by the
same slice solve (_slice_minima) as min_rayleigh, so the minimum and its
pair are those of the exhaustive scan, bit for bit, and min_rayleigh at the
winner returns the scan's value.  The ceiling comes from the oracle's own
solves only.  It is seeded, before the scan, by one exact solve at the
closed-form winner of the window (the extremal fields lie near the Koiter
circle, where the reduced winner sits within delta_o of the oracle's); the
closed form only places that pair, which the scan does not solve again.
Every denominator assembles only the closed-form annulus that its lower
bound cannot exclude under that ceiling, and a bound that drops the seed
pair raises BoundViolated before any other pair is assembled.  At L = pi,
nu = 0.3, seed included: 17 pairs for phi_rz and 15 for phi_rz_mid at
h = 0.02 and the seed alone from h = 0.005 on; 46, 31, 74 and 211 for full
at h = 0.02, 0.005, 1e-3 and 1e-4, its bound adding the gap G to the
reciprocal.  The same G prunes full_vs_rz_supremum exactly.

Korn scan: the radial spaces are nested, and inside the box
h sqrt(mhat^2 + n^2) <= 1 a pair's Korn ratios at degree 6 lie within
1.7e-8 (relative, measured) of degree 12.  So korn_mode_scan walks those
pairs once at degree 6 and solves at the requested degree only the pairs
outside the box and those whose coarse ratios lie within the band 1e-6 of
a coarse window extremum; the extrema are the whole-window scan's, bit for
bit, and every in-box pair it solves checks the band (BoundViolated).  At
h = 0.005 it solves 4 of the 3120 pairs at degree 12.

Assembly precision: every strain and gradient map of a mode is a Chebyshev
value or derivative table, times a coefficient that is linear in mhat for a
fixed n, times r^0 or r^-1.  Each form is therefore a fixed combination of
twelve radial moment matrices, which are computed once per (h, degree,
nodes) in extended precision and rounded once to float64.  The map
coefficients are split exactly by power of mhat per row n, each power of
every distinct row of a call is contracted with the moments in one batched
pass, and every pair is formed as F0 + mhat F1 + mhat^2 F2 in float64.  n
stays exact in the coefficients, and nothing assembled is interpolated.
Row n = 0 has no theta block, so it is built apart from the rows n >= 1.
Every scan, the window minima and the Korn and gap scans alike, goes through
one walker (_walk): int64 arrays (n, m) in the closed form's scan order, cut
into row groups (_row_groups: at most 64 pairs each, a longer row cut, row
n = 0 apart from the rows n >= 1), each built as WaveNumbers only when it is
assembled, in one call, and solved slice by slice.  Each slice solve
returns a float array of one row per pair (the minima, the four Korn ratios
or one gap), and the walker joins them in scan order, so its rows line up
with (n, m): the reducers take column extrema, and a mask on (n, m) selects
rows.  phi_rz, phi_zz, phi_tz and phi_rz_mid are each a scalar per pair
times one moment on one block (int V^T V r dr, or h v v^T for phi_rz_mid),
and full, the sum of the first three, is one block-diagonal scaled mass.  A
call builds only the forms it asks for, and a pair's forms come out bit for
bit the same in every call, whatever rows, slice or single pair it holds, so
the window scans and the one-pair mode_forms agree exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .critical_load import CriticalLoadProblem, _range_pairs, _window_minimum, window_strains
from .errors import (
    AssemblyDegenerate,
    BoundViolated,
    CylbuckError,
    NonConvergence,
    QuadratureUnderResolved,
    SingularSystem,
    ZeroDenominator,
)
from .material import IsotropicElasticity
from .spectral import ShellGeometry, WaveNumbers, leggauss, trig_factors

DENOMINATORS = ("full", "phi_rz", "phi_rz_mid")
_log = logging.getLogger("cylbuck")


@dataclass(frozen=True)
class RadialDiscretization:
    """Chebyshev polynomial degree per displacement component on the wall.

    The quadrature rule (2*degree Gauss-Legendre nodes) integrates
    every polynomial part of the radial moments exactly; the 1/r factors are
    analytic on the wall and converge at machine precision well before that.
    The moments are summed in extended precision and rounded once to
    float64, so refining the rule moves assembled entries only at the
    float64 rounding level.
    """

    degree: int = 12

    def __post_init__(self):
        if self.degree < 4:
            raise ValueError("radial degree must be >= 4")

    @property
    def nodes(self) -> int:
        return 2 * self.degree


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

    t64, _ = leggauss(nodes)
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
    in extended precision and rounded once to float64; _slice_forms
    contracts them once per row and power of mhat, in float64.
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


_FORM_NAMES = ModeForms._fields[1:]
# the forms the Korn and gap scans read; a call assembles only the ones it is asked for
_KORN_FORMS = ("e2", "grad2")
_GAP_FORMS = ("stiffness",)
# Pairs per slice: the ceiling test, the solves and the Korn and gap kernels
# run on slices of at most this many pairs of one row, and every scan builds
# its rows n >= 1 in groups of at most four times this many pairs.  Through
# perfbench/run.py (--seconds 15, seed 0, four pairs of 8 and 16
# alternated): korn_pool wall_ref medians 1.51 (8) and 1.47 (16),
# oracle_window 0.068 and 0.066, 16 the faster in three pairs of four on
# each; in-process the h = 0.02 window minima ran 4-8 % faster at 8 or 12
# in 8-10 of 15 repetitions.  No size was faster on both workloads, so 16
# stays.  64 pairs per group bound the forms a scan holds at once: at the
# same wall time, larger groups raised korn_pool's peak RSS by about 5 MB
# (2 vCPUs, BLAS at 1 thread).
_SLICE_PAIRS = 16


# One-hot radial atoms indexed (power a of mhat, block r/theta/z, table V/dV,
# power p of 1/r), all at a = 0.  A map's coefficient array c stands for
# sum c[a, b, X, p] mhat^a X r^-p placed in block b, and its quadratic form
# for the outer product of c with itself, by power of mhat.
_ATOMS = np.eye(24)[:12].reshape(12, 2, 3, 2, 2)
# pairs the 1/r powers (p, p') of two atoms with the moment weight r^(1-q), q = p + p'
_POWER_SUM = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def _over_r(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    out[..., 1] = c[..., 0]
    return out


def _times_mhat(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    out[:, 1] = c[:, 0]  # (row, a, ...)
    return out


def _gram(terms: Sequence[Tuple[float, np.ndarray]]) -> np.ndarray:
    """sum w c c^T over the (w, c) terms, c = c[0] + mhat c[1], per row and by power of mhat (0, 1, 2).

    Every map has a leading row axis.  The outer products run over the
    atom axes; one einsum sums the terms, in the same order for every row.
    """
    w, c = zip(*terms)
    c = np.array(c)  # (term, row, a, block, table, p)
    c = c.reshape(c.shape[:3] + (-1,))
    g = np.einsum("i,iraj,irbk->rabjk", np.array(w), c, c)
    g = np.stack([g[:, 0, 0], g[:, 0, 1] + g[:, 1, 0], g[:, 1, 1]], axis=1)
    return g.reshape((len(g), 3) + _ATOMS.shape[2:] * 2)


def _blocks(n: int) -> List[int]:
    """The DOF blocks (r, theta, z) of row n; theta is dropped for n = 0 (no torsion)."""
    return [0, 1, 2] if n >= 1 else [0, 2]


def _row_coefficients(n: Sequence[int], f, nu: float, names: Sequence[str]) -> np.ndarray:
    """Atom coefficients of the named contracted forms of the rows n, by power of mhat.

    Returns (row, form, power of mhat, block, table, p, block', table', p').
    The rows share the trig factors f, so they are all n >= 1 or row n = 0
    alone.  Each map is linear in mhat, so each form is exactly quadratic
    in it; n and f are exact per row, and every row's entries are those of
    that row computed alone, bit for bit.
    """
    n = np.asarray(n, dtype=float).reshape(-1, 1, 1, 1, 1)
    Pr, dPr, Pt, dPt, Pz, dPz = _ATOMS[::2, None].repeat(len(n), axis=1)  # the r^0 atoms, one per row
    # strain amplitude maps
    C_rr = dPr
    C_tt = _over_r(n * Pt + Pr)
    C_zz = _times_mhat(Pz)
    C_rt = 0.5 * (dPt - _over_r(Pt + n * Pr))
    C_rz = 0.5 * (dPz - _times_mhat(Pr))
    C_tz = -0.5 * (_times_mhat(Pt) + n * _over_r(Pz))
    # gradient amplitude maps (component, direction)
    G_rt = -_over_r(n * Pr + Pt)
    G_rz = -_times_mhat(Pr)
    G_tz = -_times_mhat(Pt)
    G_zt = -n * _over_r(Pz)

    # each form as (weight, map) terms
    e2 = [(f.cc, C_rr), (f.cc, C_tt), (f.cc, C_zz), (2.0 * f.sc, C_rt), (2.0 * f.cs, C_rz), (2.0 * f.ss, C_tz)]
    trace = ((nu / (1.0 - 2.0 * nu)) * f.cc, C_rr + C_tt + C_zz)  # shares the cos-cos factor
    terms = {
        "stiffness": [(w / (1.0 + nu), c) for w, c in [trace] + e2],
        "e2": e2,
        "grad2": [
            (f.cc, dPr), (f.sc, G_rt), (f.cs, G_rz), (f.sc, dPt), (f.cc, C_tt),
            (f.ss, G_tz), (f.cs, dPz), (f.ss, G_zt), (f.cc, C_zz),
        ],
    }
    return np.stack([_gram(terms[name]) for name in names], axis=1)


# the forms that are one scalar per pair, a trig factor times mhat^2, times a
# moment of _block_moments on one block: name -> (block, trig factor, moment)
_MASS_FORMS = {
    "phi_rz": (0, "cs", "mass"),
    "phi_zz": (2, "cc", "mass"),
    "phi_tz": (1, "ss", "mass"),
    "phi_rz_mid": (0, "cs", "mid"),
}


def _row_runs(rows: Sequence[int]) -> List[Tuple[int, int, int]]:
    """(row, start, end) of each run of consecutive equal entries of the list rows."""
    starts = [k for k in range(len(rows)) if k == 0 or rows[k] != rows[k - 1]]
    return [(rows[a], a, b) for a, b in zip(starts, starts[1:] + [len(rows)])]


def _block_moments(geom: ShellGeometry, disc: RadialDiscretization) -> Dict[str, np.ndarray]:
    """The k x k moments of the single-block forms: the mass moment M = int V^T V r dr ("mass")
    and h v v^T ("mid"), v the Chebyshev values at the mid-surface r = 1 (each entry 0 or +-1)."""
    tabs = _cheb_tables(geom.h, disc.degree, disc.nodes)
    k, v = disc.degree + 1, tabs.v_mid.astype(float)
    return {"mass": tabs.moments[0].reshape(k, k), "mid": geom.h * np.outer(v, v)}


def _mass_form(
    geom: ShellGeometry, disc: RadialDiscretization, pairs: Sequence[WaveNumbers], names: Sequence[str]
) -> np.ndarray:
    """The sum of the named single-block forms of each pair (_MASS_FORMS), block-diagonal.

    The pairs share their trig factors and blocks, as _slice_forms' do.  The
    forms' blocks are distinct, so each entry is one form's scalar times its
    moment, exactly as in the sum of the forms.  A block the row does not
    have (theta for n = 0) holds nothing: phi_tz vanishes there.
    """
    moments = _block_moments(geom, disc)
    k = disc.degree + 1
    keep = _blocks(pairs[0].n)
    f = trig_factors(pairs[0])
    mh = np.array([wn.m_hat for wn in pairs])
    mh2 = mh * mh
    F = np.zeros((len(pairs), len(keep) * k, len(keep) * k))
    for name in names:
        block, factor, moment = _MASS_FORMS[name]
        if block in keep:
            j = keep.index(block) * k
            F[:, j:j + k, j:j + k] = (getattr(f, factor) * mh2)[:, None, None] * moments[moment]
    return F


def _slice_forms(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    pairs: Sequence[WaveNumbers],
    names: Sequence[str] = _FORM_NAMES,
) -> Dict[str, np.ndarray]:
    """The named quadratic forms of pairs of one or more rows n, as quadratics in mhat.

    Each form is stacked along a leading pair axis.  DOF layout:
    [f_r coefficients | f_theta coefficients | f_z coefficients], without
    the theta block for n = 0, so row n = 0 is assembled apart from the
    rows n >= 1.  For a fixed n every map is linear in mhat, so stiffness,
    e2 and grad2 are F0 + mhat F1 + mhat^2 F2: the maps are split by power
    of mhat at the coefficient level, each power of every distinct row is
    contracted with the radial moments in one batched pass, and the pairs
    are formed together, elementwise, as F0 + mhat (F1 + mhat F2).  The
    single-block forms (_MASS_FORMS) are a scalar per pair times a moment on
    their block, the mass moment or, for phi_rz_mid, h v v^T (phi_tz is zero
    for n = 0), and build no map; full, the sum of phi_rz, phi_zz and phi_tz,
    is one block-diagonal scaled mass (_mass_form).  A pair's forms are
    the same float64 arrays, bit for bit, in any call and for any names:
    each row's F0, F1 and F2 do not depend on the other rows or the pairs,
    and the evaluation is elementwise per pair.
    """
    wn0 = pairs[0]
    if any((wn.n == 0) != (wn0.n == 0) or wn.L != wn0.L for wn in pairs):
        raise ValueError("row n = 0 is assembled apart from the rows n >= 1, and every pair has one L")
    forms = {}
    contracted = [name for name in names if name in ("stiffness", "e2", "grad2")]
    if contracted:
        tabs = _cheb_tables(geom.h, disc.degree, disc.nodes)
        k, keep = disc.degree + 1, _blocks(wn0.n)
        nf, nb = len(contracted), len(keep)
        runs = _row_runs([wn.n for wn in pairs])
        rows = sorted({n for n, _, _ in runs})
        C = _row_coefficients(rows, trig_factors(wn0), elastic.nu, contracted)
        # (row, form, a, block, table, p, block', table', p') -> (row, form, a, block, block', table, table', p, p')
        C = C[:, :, :, keep][:, :, :, :, :, :, keep].transpose(0, 1, 2, 3, 6, 4, 7, 5, 8)
        C = (C.reshape(-1, 4) @ _POWER_SUM).reshape(-1, 12)
        F = (C @ tabs.moments).reshape(len(rows), nf, 3, nb, nb, k, k)
        F = F.transpose(0, 1, 2, 3, 5, 4, 6).reshape(len(rows), nf, 3, nb * k, nb * k)
        F = F + F.swapaxes(3, 4)
        F *= 0.5
        mh = np.array([wn.m_hat for wn in pairs])[:, None, None]
        for j, name in enumerate(contracted):
            forms[name] = out = np.empty((len(pairs), nb * k, nb * k))
            for n, a, b in runs:  # F0 + mhat (F1 + mhat F2), in place
                F0, F1, F2 = F[rows.index(n), j]
                np.multiply(mh[a:b], F2, out=out[a:b])
                out[a:b] += F1
                out[a:b] *= mh[a:b]
                out[a:b] += F0
    for name in names:
        if name in _MASS_FORMS or name == "full":
            forms[name] = _mass_form(geom, disc, pairs, ("phi_rz", "phi_zz", "phi_tz") if name == "full" else (name,))
    return forms


def mode_forms(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    wn: WaveNumbers,
    disc: RadialDiscretization,
) -> ModeForms:
    """Every quadratic form of one mode: the slice of that one pair."""
    forms = _slice_forms(geom, elastic, disc, [wn])
    return ModeForms(wn=wn, **{name: F[0] for name, F in forms.items()})


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
    forms = _slice_forms(geom, elastic, disc, [wn], ("stiffness", denominator))
    return ModePencil(wn=wn, A=forms["stiffness"][0], B=forms[denominator][0], denominator=denominator)


def _check_vanishing(pairs: Sequence[WaveNumbers], A: np.ndarray, B: np.ndarray):
    """ZeroDenominator naming the first pair, in scan order, whose destabilizing
    form B's norm is at most 1e-15 times the norm of its stiffness A."""
    vanishes = np.linalg.norm(B, axis=(-2, -1)) <= 1e-15 * np.linalg.norm(A, axis=(-2, -1))
    if np.any(vanishes):
        raise ZeroDenominator(f"destabilizing form vanishes for {pairs[np.argmax(vanishes)]}")


def _check_finite(*forms: np.ndarray):
    """ValueError for a non-finite entry of any form, as eigh's check_finite."""
    if not all(np.isfinite(F).all() for F in forms):
        raise ValueError("array must not contain infs or NaNs")


def min_rayleigh(pencil: ModePencil) -> float:
    """inf over the mode space of (x.A.x)/(x.B.x) = 1 / mu_max(B w.r.t. A).

    The one-pair case of _slice_minima, the solve behind every window
    minimum, so a scan and a single pair give the same value bit for bit.
    Raises ZeroDenominator when B vanishes or mu_max is not positive,
    ValueError for a non-finite entry, AssemblyDegenerate when the stiffness
    A is not positive definite and NonConvergence when the eigensolve fails.
    """
    return _slice_minima([pencil.wn], pencil.A[None], pencil.B[None])[0]


def _named(solve: Callable, pairs: Sequence[WaveNumbers], M: np.ndarray, error: type, what: str):
    """solve(M) on a batch with one matrix per pair; if it fails, error "<what> for <pair>"
    naming the first pair, in scan order, whose own solve fails (the batched call does not say which)."""
    try:
        return solve(M)
    except np.linalg.LinAlgError:
        for wn, m in zip(pairs, M):
            try:
                solve(m)
            except np.linalg.LinAlgError as exc:
                raise error(f"{what} for {wn}") from exc
        raise


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L[i]^-1 of each Cholesky factor L[i] (dtrtri; a positive diagonal cannot fail)."""
    return np.stack([scipy.linalg.lapack.dtrtri(l, lower=1)[0] for l in L])


def _block_eigh(pairs: Sequence[WaveNumbers], A: np.ndarray, B: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Eigenvalues of each pencil whose destabilizing form vanishes off the DOFs dofs, against A[i].

    B is that form's block on dofs, B[i] per pair or one B[0] for the whole
    slice.  It has the same nonzero eigenvalues w.r.t. A[i] as against the
    Schur complement of A[i] onto dofs.  One batched Cholesky factorization
    L[i] L[i]^T of A[i], the DOFs reordered so that dofs come last, serves
    the slice: its trailing block L_b factors that Schur complement.  So the
    eigenvalues are those of C[i] = L_b^-1 B[i] L_b^-T, ascending, one row
    per pair.

    The caller checks that the forms are finite.  Raises AssemblyDegenerate
    (the stiffness A not positive definite) and NonConvergence, each naming
    the first failing pair in scan order.
    """
    rest = np.ones(A.shape[-1], dtype=bool)
    rest[dofs] = False
    order = np.concatenate([np.flatnonzero(rest), dofs])
    A = A[:, order][:, :, order]
    L = _named(np.linalg.cholesky, pairs, A, AssemblyDegenerate, "stiffness not positive definite")
    Li = _lower_inverse(L[:, -len(dofs):, -len(dofs):])
    C = Li @ B @ Li.swapaxes(1, 2)
    return _named(np.linalg.eigvalsh, pairs, C, NonConvergence, "eigenvalues did not converge")


# Relative margin of the definiteness ceiling.  A slice is skipped when
# every A - c (1 + margin) B factors, so the margin must exceed how far
# above a pair's computed minimum v the factorization of A - v B still
# succeeds: the rounding error of v plus the factorization's backward error,
# relative to the quotient.  Worst-case bounds on both grow with cond(A)
# (~1e11 at h = 1e-3) and are far too loose, so the margin rests on
# measurement: at the sweep winner and 40 drawn pairs per window (L = pi,
# nu = 0.3, degree 12) the largest excess was 1.5e-13 at h = 1e-2, 5.5e-12
# at 1e-3, 2.1e-10 at 1e-4 and 1e-5, and 1.4e-7 at 1e-6.  1e-5 stays 70
# times above all of them and solves the same pairs as 1e-9 at h = 0.02
# and 0.005.
_CEILING_MARGIN = 1e-5


def _slice_minima(
    pairs: Sequence[WaveNumbers], A: np.ndarray, B: np.ndarray, ceiling: float = math.inf
) -> np.ndarray:
    """min_rayleigh of each pencil (A[i], B[i]) of a slice as an array, or inf for every pair if all clear ceiling.

    The vanishing and finiteness checks run once for the slice, each naming
    the first failing pair in scan order.  Under a finite ceiling, one
    batched Cholesky factorization of A[i] - ceiling (1 + _CEILING_MARGIN)
    B[i] tests the slice: if every pencil factors, x.A.x > ceiling x.B.x
    for every x with x.B.x > 0, and the slice is skipped unsolved.  With
    B[i] positive semidefinite the factorization also proves A[i] positive
    definite, so an indefinite stiffness fails the test and is reported by
    the solve.  The solve is one block eigensolve (_block_eigh) on the
    support of B, the DOFs where some B[i] has a nonzero entry.  A
    semidefinite form's null space solves to rounding noise of either sign,
    so a top eigenvalue within 1e-14 of the lowest one's magnitude counts
    as not positive (ZeroDenominator).
    """
    _check_vanishing(pairs, A, B)
    _check_finite(A, B)
    if ceiling < math.inf:
        try:
            np.linalg.cholesky(A - (ceiling * (1.0 + _CEILING_MARGIN)) * B)
            return np.full(len(pairs), math.inf)
        except np.linalg.LinAlgError:
            pass
    support = np.flatnonzero(np.any(B, axis=(0, 1)))
    mu = _block_eigh(pairs, A, B[:, support][:, :, support], support)
    not_positive = mu[:, -1] <= 1e-14 * np.abs(mu[:, 0])
    if not_positive.any():
        raise ZeroDenominator(f"destabilizing form is not positive on {pairs[np.argmax(not_positive)]}")
    return 1.0 / mu[:, -1]


# ---------------------------------------------------------------------------
# window scans
# ---------------------------------------------------------------------------

class OracleMinimum(NamedTuple):
    value: float
    wn: WaveNumbers


def _joined(chunks: Iterable[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """The chunks (n, m) of a scan-order walk as two int64 arrays, empty when there is no chunk."""
    n, m = zip((np.zeros(0, dtype=np.int64),) * 2, *chunks)
    return np.concatenate(n), np.concatenate(m)


def _window_arrays(window: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair of the window (m_max, n_max) as int64 arrays (n, m) in scan order (n from 0, then m
    from 1): critical_load._range_pairs over whole rows, the walk of window_strains' whole window."""
    m_max, n_max = window
    rows = np.arange(n_max + 1, dtype=np.int64)
    return _joined(_range_pairs(rows, np.ones((rows.size, 1), dtype=np.int64), np.full((rows.size, 1), m_max)))


def _slices(n: np.ndarray) -> List[slice]:
    """The index ranges that cut the pairs of rows n, in scan order, into slices of at most _SLICE_PAIRS of one row."""
    return [slice(i, min(i + _SLICE_PAIRS, b)) for _, a, b in _row_runs(n.tolist()) for i in range(a, b, _SLICE_PAIRS)]


def _row_groups(n: np.ndarray) -> List[slice]:
    """The index ranges that cut the pairs of rows n, in scan order, into row groups of one assembly each.

    Each run of one row (_row_runs) is cut into pieces of at most
    4 _SLICE_PAIRS pairs, at _SLICE_PAIRS boundaries from the run's start,
    so every group is a whole number of _slices.  The pieces are joined
    while a group holds at most 4 _SLICE_PAIRS pairs, except that row n = 0,
    which has no theta block, joins no other row.  That bounds the batched
    contraction of _slice_forms and the forms a group holds at once by
    those of 64 pairs, whatever the rows' length.
    """
    rows, groups, most = n.tolist(), [], 4 * _SLICE_PAIRS
    for row, a, b in _row_runs(rows):
        for i in range(a, b, most):
            end = min(i + most, b)
            if groups and min(row, rows[groups[-1].start]) > 0 and end - groups[-1].start <= most:
                groups[-1] = slice(groups[-1].start, end)
            else:
                groups.append(slice(i, end))
    return groups


def _walk(
    geom: ShellGeometry, elastic: IsotropicElasticity, disc: RadialDiscretization, n: np.ndarray, m: np.ndarray,
    names: Sequence[str], solve: Callable,
) -> np.ndarray:
    """solve(slice, its forms) over every slice of the pairs (m[k], n[k]): its float arrays, joined in scan order.

    Every scan runs through it, in the calling process.  Each row group
    (_row_groups, at most 64 pairs) is built as WaveNumbers, the only ones
    a scan builds, assembled once, the named forms only (_slice_forms), and
    cut into _slices, each of at most _SLICE_PAIRS pairs of one row.  A group is
    dropped before the next is built, so the walk holds one at a time.
    Each solve returns a row per pair, so row k is (n[k], m[k])'s and a mask
    on (n, m) selects rows; a walk without pairs returns an empty 1-D array.
    """
    out = []
    for g in _row_groups(n):
        group = [WaveNumbers(m=col, n=row, L=geom.L) for row, col in zip(n[g].tolist(), m[g].tolist())]
        forms = _slice_forms(geom, elastic, disc, group, names)
        out += [solve(group[s], {name: F[s] for name, F in forms.items()}) for s in _slices(n[g])]
        del forms
    return np.concatenate(out) if out else np.zeros(0)


# Measured lower bound of the phi_rz and phi_rz_mid minima by the reduced
# closed-form minimum of the same pair:
#
#     oracle(m, n) >= (1 - delta_o) reduced(m, n),   delta_o = _DEFICIT_C h^2 (1 + mhat^2 + n^2).
#
# It is not proved.  The deficit 1 - oracle / reduced is the wall's
# three-dimensional correction to the reduction; measured, it stays of order
# (h k)^2 for the wave vector k = (mhat, n), and the "+1" covers the pairs
# of small k, where it is still of order h^2 (phi_rz_mid reads
# 1.9 h^2 k^2 at (1, 0), h = 0.01, L = 30, nu = -0.2).  Measured on 500
# windows, degree 12: h in {0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 1e-3,
# 3e-4, 1e-4}, nu in {-0.45, -0.2, 0, 0.3, 0.45}, L in {0.5, pi, 10, 30, 50}
# and window margins 3 and 6; a window of more than 6000 pairs was cut to
# its first columns over every row plus 3000 drawn pairs (1.94 M pairs per
# denominator in all).  The largest (1 - oracle / reduced) / (h^2 (1 + mhat^2
# + n^2)) was 0.336 for phi_rz and 0.4045 for phi_rz_mid, both at nu = 0.45,
# h = 1e-4, m = 1, n = 1.83 R and 1.74 R; at nu = 0.3 they were 0.271 and 0.307.
# It rises with nu, and as h falls it levels off: +0.9 % from h = 0.01 to
# 0.005, +0.2 % from 1e-3 to 1e-4.  L, the margin and degrees 4, 8 and 16
# moved the worst windows' values by at most 1e-4.  0.52 is
# 28 % above 0.4045.  Outside the measured box _DEFICIT_BOX, and for every
# pair with delta_o >= 1, nothing is pruned.
_DEFICIT_C = 0.52
_DEFICIT_BOX = {"h": (1e-4, 0.25), "nu": (-0.45, 0.45), "L": (0.5, 50.0)}


# Proved bound of the full-vs-phi_rz gap, pair by pair.  full's form is
# B_rz + B_zz + B_tz and mu_max(., A) is subadditive, so
# 1/full = mu_max(B_rz + B_zz + B_tz, A) <= 1/phi_rz + gap with
# gap = mu_max(B_zz + B_tz, A) (_full_gap's full_vs_rz), and gap <= G = g / kappa:
#
#   B_zz + B_tz <= g e2.  With Z = int C_zz^2 r dr and T = int C_tz^2 r dr,
#   B_zz = cc Z (C_zz = mhat phi_z) and e2 >= cc Z + 2 ss T.  From
#   C_tz = -(mhat phi_theta + n phi_z / r) / 2, mhat phi_theta = -2 C_tz - n phi_z / r,
#   and (a + b)^2 <= (1 + eps) a^2 + (1 + 1/eps) b^2 for every eps > 0, with
#   r >= 1 - h/2 on the wall, give
#   B_tz = ss int (mhat phi_theta)^2 r dr <= ss (4 (1 + eps) T + (1 + 1/eps) t Z),
#   t = n^2 / (mhat^2 (1 - h/2)^2), so B_zz + B_tz <= g (cc Z + 2 ss T) for
#   g = max(2 (1 + eps), 1 + (1 + 1/eps) st), st = t ss / cc, when ss > 0, and
#   g = 1 when ss = 0 (n = 0: no theta block, B_tz = 0).  ss = cc for n >= 1
#   (trig_factors), so st = t there.  Each pair takes its best split: the two
#   terms are equal, and g is least, at the positive root of
#   2 eps^2 + (1 - st) eps - st = 0,
#   eps* = ((st - 1) + sqrt((st - 1)^2 + 8 st)) / 4, so g = 2 (1 + eps*), about
#   st + 3 for large st (the split eps = 1 gives 1 + 2 st).  eps* is computed
#   without cancellation (as 2 st / ((1 - st) + sqrt(...)) for st < 1), and g
#   keeps both terms at the computed eps, so its rounding cannot undercut them.
#
#   A >= kappa e2.  A = (nu / (1 - 2 nu) cc tr^2 + e2) / (1 + nu) with
#   tr = C_rr + C_tt + C_zz.  For nu >= 0 the trace term is nonnegative, so
#   kappa = 1 / (1 + nu).  For nu < 0, tr^2 <= 3 (C_rr^2 + C_tt^2 + C_zz^2),
#   whose cc-weighted integral is at most e2, so
#   A >= (1 + 3 nu / (1 - 2 nu)) e2 / (1 + nu) = e2 / (1 - 2 nu).
#
# With the measured phi_rz >= (1 - delta_o) reduced, a pair's full minimum is
# at least lb / (1 + G lb), lb = max(0, (1 - delta_o) reduced): 1/full <= 1/lb + G.
def _gap_bound(geom: ShellGeometry, elastic: IsotropicElasticity, n: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """G >= full_vs_rz of each pair (n[k], mhat[k]) of the window: the proved bound above."""
    nu = elastic.nu
    kappa = 1.0 / (1.0 + nu) if nu >= 0.0 else 1.0 / (1.0 - 2.0 * nu)
    st = (n / (m_hat * (1.0 - 0.5 * geom.h))) ** 2  # t ss / cc = t; 0 for n = 0
    root = np.sqrt((st - 1.0) ** 2 + 8.0 * st)
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 0 (st = 0) takes g = 1
        eps = np.where(st < 1.0, 2.0 * st / ((1.0 - st) + root), ((st - 1.0) + root) / 4.0)
        g = np.maximum(2.0 * (1.0 + eps), 1.0 + (1.0 + 1.0 / eps) * st)
    return np.where(n > 0, g, 1.0) / kappa


@dataclass(frozen=True)
class _WindowProblem(CriticalLoadProblem):
    """The closed-form problem of geom and elastic over a given window."""

    given: Tuple[int, int] = (8, 8)

    def window(self) -> Tuple[int, int]:
        return self.given


def _sweep_pairs(
    geom: ShellGeometry, elastic: IsotropicElasticity, window: Tuple[int, int], denominator: str, ceiling: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs oracle_sweep assembles under its seeded ceiling, as int64 arrays (n, m) in scan order.

    An infinite ceiling and an (h, nu, L) outside _DEFICIT_BOX get the whole
    window (_window_arrays).  Otherwise the window is cut to the pairs that
    the denominator's lower bound cannot exclude: with r the pair's computed
    reduced minimum and lb = max(0, r (1 - delta_o)) (0 when delta_o >= 1),
    a pair is kept when its bound is at most ceiling (1 + _CEILING_MARGIN).
    The bound is lb for phi_rz and phi_rz_mid (the measured deficit bound)
    and lb / (1 + G lb) for full (_gap_bound's proved G on top of it), so
    every pair whose oracle minimum is at most the ceiling is kept while the
    deficit bound holds.  phi_rz and phi_rz_mid filter
    critical_load.window_strains' certified superset at that level over
    (1 - delta_max), delta_max being delta_o at the window's largest
    mhat^2 + n^2 (the whole window when delta_max >= 1); full filters the
    whole window, each chunk of window_strains by a mask.
    """
    (h_lo, h_hi), (nu_lo, nu_hi), (L_lo, L_hi) = _DEFICIT_BOX.values()
    in_box = h_lo <= geom.h <= h_hi and nu_lo <= elastic.nu <= nu_hi and L_lo <= geom.L <= L_hi
    if ceiling == math.inf or not in_box:
        return _window_arrays(window)
    m_max, n_max = window
    scale = _DEFICIT_C * geom.h * geom.h
    delta_max = scale * (1.0 + (math.pi * m_max / geom.L) ** 2 + n_max * n_max)
    level = ceiling * (1.0 + _CEILING_MARGIN)
    # G grows without bound as n / mhat does, so no one level certifies full's candidates
    superset = level / (1.0 - delta_max) if delta_max < 1.0 and denominator != "full" else None
    problem = _WindowProblem(geom=geom, elastic=elastic, given=window)
    kept = []
    for n, m, m_hat, minima in window_strains(problem, superset):
        delta = scale * (1.0 + m_hat * m_hat + n * n)
        lower = np.maximum(minima.value * (1.0 - delta), 0.0)  # of phi_rz and phi_rz_mid; 0 where delta_o >= 1
        if denominator == "full":
            lower = lower / (1.0 + _gap_bound(geom, elastic, n, m_hat) * lower)
        keep = lower <= level
        kept.append((n[keep].astype(np.int64), m[keep]))
    return _joined(kept)


def _seed_pair(geom: ShellGeometry, elastic: IsotropicElasticity, window: Tuple[int, int]) -> Optional[WaveNumbers]:
    """The closed-form winner of the window, or None when the closed form has no positive minimum there.

    It is the first minimum in scan order of critical_load.window_strains
    under critical_load._seed_ceiling, over the oracle's own window
    (critical_load._window_minimum).  The extremal fields lie near the
    Koiter circle, where the reduced minima already sit within delta_o of
    the oracle's, so the oracle's minimum at this pair lies near the window
    minimum.  Only the pair is read from the closed form; oracle_sweep
    solves it once, and raises BoundViolated if the deficit bound drops it.
    """
    try:
        return _window_minimum(_WindowProblem(geom=geom, elastic=elastic, given=window))[0]
    except SingularSystem:
        return None


def oracle_sweep(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    window: Tuple[int, int],
    denominator: str = "phi_rz",
    jobs: int = 1,
) -> OracleMinimum:
    """Minimize the discretized Rayleigh quotient over the integer window.

    The ceiling is seeded by min_rayleigh at the closed-form winner
    (_seed_pair), and that solve is the seed pair's value: the seed is
    solved once and kept out of the scan.  The scan carries the smallest
    minimum so far as a definiteness ceiling and skips, unsolved, each slice
    whose pencils all stay positive definite a margin above it
    (_slice_minima).  No skipped pair can reach the minimum, so the result
    is the exhaustive scan's, bit for bit, and min_rayleigh at the winner
    returns it.  The winner is the first in (value, n, m) order, the
    closed-form sweep's tie-break, over the walked values with the seed's in
    front.  A failed seed solve leaves no seed: the whole window is scanned,
    naming the first failing pair in scan order.  An unknown denominator
    raises ValueError before any other work.

    Each denominator assembles only the pairs of the closed-form annulus
    that its lower bound cannot exclude under the seeded ceiling
    (_sweep_pairs): the measured deficit bound for phi_rz and phi_rz_mid,
    and for full that bound through the proved gap G.  That and the seed
    pair are where the oracle reads the closed-form reduction.  The kept
    pairs are walked like every scan (_walk: one batched build per row
    group, the ceiling test and the solves on slices of one row).  A valid
    bound keeps the seed pair, whose exact minimum is the ceiling, so kept
    pairs without it (a mask on (n, m)) raise BoundViolated naming it,
    before any scan pair is assembled.  Logs the denominator, the pairs
    covered (the window's), assembled and solved, each pair once, at DEBUG
    on the "cylbuck" logger.  jobs is accepted and ignored, because the
    benchmark's oracle_window workload still passes it.
    """
    if denominator not in DENOMINATORS:
        raise ValueError(f"denominator must be one of {DENOMINATORS}")
    seed = _seed_pair(geom, elastic, window)
    ceiling = math.inf
    if seed is not None:
        try:
            ceiling = min_rayleigh(assemble_pencil(geom, elastic, seed, denominator, disc))
        except (ValueError, CylbuckError):
            seed = None
    n, m = _sweep_pairs(geom, elastic, window, denominator, ceiling)
    if seed is not None:
        at_seed = (n == seed.n) & (m == seed.m)
        if not at_seed.any():
            raise BoundViolated(
                f"the {denominator} deficit bound drops the seed pair {seed}, whose minimum {float(ceiling)!r} "
                f"seeds the window ceiling: the bound does not hold at h={geom.h!r}, nu={elastic.nu!r}, L={geom.L!r}"
            )
        n, m = n[~at_seed], m[~at_seed]
    running = ceiling

    def solve(slice_pairs, forms):
        nonlocal running
        values = _slice_minima(slice_pairs, forms["stiffness"], forms[denominator], running)
        running = min(running, values.min())
        return values

    values = _walk(geom, elastic, disc, n, m, ("stiffness", denominator), solve)
    if seed is not None:  # the seed's value in front: every pair assembled, each once
        n, m, values = np.append(seed.n, n), np.append(seed.m, m), np.append(ceiling, values)
    _log.debug("oracle_sweep %s: %d pairs covered, %d assembled, %d solved", denominator,
               window[0] * (window[1] + 1), values.size, np.count_nonzero(values < math.inf))
    if not values.size:  # a window without pairs has no winner
        return OracleMinimum(math.inf, None)
    k = np.lexsort((m, n, values))[0]  # the first in (value, n, m) order
    return OracleMinimum(values[k], WaveNumbers(m=int(m[k]), n=int(n[k]), L=geom.L))


# ---------------------------------------------------------------------------
# Korn-type measurements
# ---------------------------------------------------------------------------

class AnsatzRatios(NamedTuple):
    """Korn-type ratios of one field, as the wave-packet ansatz reports them."""

    korn: float      # |e|^2 / |grad phi|^2, tracks h^{3/2}
    theta_z: float   # |phi_{theta,z}|^2 / |e|^2, tracks h^{-1/2}
    r_z: float       # |phi_{r,z}|^2 / |e|^2, tracks h^{-1}


class KornRatios(NamedTuple):
    """AnsatzRatios's three fields plus weighted, per mode or over a window.

    Over a window korn is the minimum (an upper bound on the true constant
    since the mode set is restricted), theta_z and r_z are the maximum
    destabilizing ratios, and weighted is the maximum consistency ratio of
    the product-form gradient bound on eigen-extremal fields.
    """

    korn: float
    theta_z: float
    r_z: float
    weighted: float


def _positive(ratios):
    """The ratios, unless a field is not positive (a NaN is not)."""
    if not all(v > 0.0 for v in ratios):
        raise ValueError(f"Korn-type ratios are positive by construction, got {ratios}")
    return ratios


def _top_eigenpair(ratio: str, wn: WaveNumbers, S: np.ndarray) -> Tuple[float, np.ndarray]:
    """S's top eigenvalue and unit eigenvector by one dsyevr call (LAPACK directly: scipy.linalg.eigh's
    argument handling adds about half again to this small solve); NonConvergence names ratio and wn."""
    vals, vecs, _, _, info = scipy.linalg.lapack.dsyevr(S, range="I", il=len(S), iu=len(S))
    if info:
        raise NonConvergence(f"{ratio} eigenvector did not converge for {wn}")
    return vals[0], vecs[:, 0]


def _korn_ratios(h: float, W: np.ndarray, pairs: Sequence[WaveNumbers], forms: Dict[str, np.ndarray]) -> np.ndarray:
    """The Korn-type ratios of every pair of a slice, one row per pair in KornRatios' order; theta_z is 0 for n = 0.

    Every ratio also reads its extremal field, so each pencil is one top
    dsyevr eigenpair (_top_eigenpair) from the inverse factor L^-1 of
    e2 = L L^T, in the coordinates y = L^T x, where x^T e2 x = y^T y.
    1 / korn is the top eigenvalue of C = L^-1 grad2 L^-T, and x^T grad2 x =
    y^T C y.  phi_rz and phi_tz are c M = c W W^T on the r and theta block b
    (c = cs mhat^2 and ss mhat^2, M the mass moment), so with
    Y_b = L^-1[:, b] W their ratio is c mu_max(Y_b^T Y_b), extremal y = Y_b u.
    Only |phi_r|^2 = cc |Y_r^T y|^2 maps back.  Each pair solves korn, r_z,
    then theta_z, so a failed solve names the first failing pair in scan
    order.  grad2 is checked positive definite by one batched Cholesky
    factorization.
    """
    e2, grad2 = forms["e2"], forms["grad2"]
    _check_finite(e2, grad2)
    k = len(W)
    f = trig_factors(pairs[0])
    mh2 = np.array([wn.m_hat for wn in pairs]) ** 2
    Li = _lower_inverse(_named(np.linalg.cholesky, pairs, e2, AssemblyDegenerate, "e2 not positive definite"))
    _named(np.linalg.cholesky, pairs, grad2, AssemblyDegenerate, "grad2 not positive definite")
    C = Li @ grad2 @ Li.swapaxes(1, 2)
    Y = {"r_z": Li[:, :, :k] @ W}
    if pairs[0].n >= 1:
        Y["theta_z"] = Li[:, :, k:2 * k] @ W
    mu = np.zeros((len(pairs), 3))  # the top eigenvalues of korn, r_z and theta_z
    y = np.empty((len(pairs), 1 + len(Y), len(C[0])))  # (pair, extremal, DOF)
    for i, wn in enumerate(pairs):
        mu[i, 0], y[i, 0] = _top_eigenpair("korn", wn, C[i])
        for j, (ratio, Yb) in enumerate(Y.items(), 1):
            mu[i, j], u = _top_eigenpair(ratio, wn, Yb[i].T @ Yb[i])
            y[i, j] = Yb[i] @ u

    g2, e2_x = ((y @ C) * y).sum(axis=2), (y * y).sum(axis=2)
    pr2 = f.cc * ((y @ Y["r_z"]) ** 2).sum(axis=2)
    # e2 is positive definite (factored above), so every bound is positive
    weighted = (g2 / ((np.sqrt(pr2) / h + np.sqrt(e2_x)) * np.sqrt(e2_x))).max(axis=1)
    return np.stack((1.0 / mu[:, 0], f.ss * mh2 * mu[:, 2], f.cs * mh2 * mu[:, 1], weighted), axis=1)


def _korn_rows(
    geom: ShellGeometry, elastic: IsotropicElasticity, disc: RadialDiscretization, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """The Korn-type ratios of every pair (m[k], n[k]) at disc's degree, row k in KornRatios' order:
    e2 and grad2 walked (_walk) and solved by _korn_ratios, which reads the other forms from the mass root."""
    solve = partial(_korn_ratios, geom.h, np.linalg.cholesky(_block_moments(geom, disc)["mass"]))
    return _walk(geom, elastic, disc, n, m, _KORN_FORMS, solve).reshape(-1, len(KornRatios._fields))


# Measured band of the Korn scan's coarse pass.  The radial spaces are
# nested, so by Rayleigh-Ritz a pair's korn cannot rise and its r_z and
# theta_z cannot fall as the degree rises (weighted has no such order); how
# far degree 6 sits from degree 12 is measured.  Worst relative error of any
# of a pair's four ratios at degree 6 (and 8) against degree 12, over every
# pair of the windows at L in {0.5, pi, 10}, margins 3 and 6, with
# h in {0.7, 0.3, 0.1, 0.03} at nu = +-0.3 and h in {0.01, 0.005} at
# nu in {-0.45, 0, 0.45}, by h k, k = sqrt(mhat^2 + n^2):
#
#     h k      <= 0.2    <= 1      <= 2      <= 3      <= 5      > 5
#     deg 6    2.1e-12   1.7e-8    3.9e-6    7.9e-5    1.8e-3    0.36
#     deg 8    9.3e-13   3.3e-11   1.7e-8    7.5e-7    4.3e-5    0.12
#
# The first column's 2.1e-12 comes from h <= 0.01, where the rounding grows
# with the forms' conditioning (2.5e-13 at h >= 0.03); every other worst
# case is from h >= 0.03.  So inside the box h k <= 1 every degree-6 row is
# within 1.7e-8 of degree 12, and the band 1e-6 stays 59 times above it.
# korn_mode_scan checks the band at every in-box pair it solves at the
# requested degree.
_KORN_COARSE_DEGREE = 6
_KORN_BAND = 1e-6
_KORN_BOX = 1.0


def korn_mode_scan(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    window: Tuple[int, int],
) -> KornRatios:
    """Extremal Korn-type ratios over all modes in the window, those of the whole-window scan bit for bit.

    Above degree _KORN_COARSE_DEGREE, the pairs in the box
    h sqrt(mhat^2 + n^2) <= _KORN_BOX are first walked at that coarse
    degree (_korn_rows).  With the band d = _KORN_BAND, a pair in the box
    is solved at disc's degree only if a coarse ratio of it lies near the
    coarse column extremum: korn <= min (1 + 2d) / (1 - d), or theta_z,
    r_z or weighted >= max (1 - 2d) / (1 + d).  Every pair outside the box
    is solved.  While every pair's degree-p ratios lie within d (relative)
    of its coarse ones, the pair that holds each window extremum is
    solved, and a pair's row does not depend on the other pairs walked, so
    the column extrema (korn's minimum and the other maxima) are the whole
    window's.  The band is measured, not proved (see _KORN_BAND): every
    in-box pair solved at degree p is checked against it, and the first in
    scan order off by more raises BoundViolated.  At degree
    _KORN_COARSE_DEGREE or less the whole window is solved once.  A failed
    factorization or eigensolve names the first failing pair of the coarse
    walk, then of the degree-p walk.  A window without pairs has no extrema
    (ValueError).  Logs the pairs covered, walked at the coarse degree and
    solved at disc's degree, at DEBUG on the "cylbuck" logger.
    """
    n, m = _window_arrays(window)
    solved = np.ones(n.size, dtype=bool)
    box = np.zeros(n.size, dtype=bool)
    coarse = np.zeros((0, len(KornRatios._fields)))
    if disc.degree > _KORN_COARSE_DEGREE:
        box = geom.h * np.sqrt((math.pi * m / geom.L) ** 2 + n * n) <= _KORN_BOX
        coarse = _korn_rows(geom, elastic, RadialDiscretization(_KORN_COARSE_DEGREE), n[box], m[box])
        d = _KORN_BAND
        near = coarse[:, 0] <= coarse[:, 0].min(initial=math.inf) * (1.0 + 2.0 * d) / (1.0 - d)
        near |= (coarse[:, 1:] >= coarse[:, 1:].max(axis=0, initial=-math.inf) * (1.0 - 2.0 * d) / (1.0 + d)).any(axis=1)
        solved[box] = near
        coarse = coarse[near]
    rows = _korn_rows(geom, elastic, disc, n[solved], m[solved])
    off = (np.abs(rows[box[solved]] - coarse) > _KORN_BAND * np.abs(coarse)).any(axis=1)
    if off.any():
        k = np.flatnonzero(box & solved)[np.argmax(off)]
        raise BoundViolated(
            f"the Korn ratios of {WaveNumbers(m=int(m[k]), n=int(n[k]), L=geom.L)} at degree {disc.degree} lie "
            f"more than {_KORN_BAND!r} off those at degree {_KORN_COARSE_DEGREE}: the band that prunes the Korn "
            f"scan does not hold at h={geom.h!r}, nu={elastic.nu!r}, L={geom.L!r}"
        )
    _log.debug("korn_mode_scan: %d pairs covered, %d walked at degree %d, %d solved at degree %d",
               n.size, box.sum(), _KORN_COARSE_DEGREE, len(rows), disc.degree)
    korn, *maxima = rows.T  # KornRatios' columns, empty without pairs
    return _positive(KornRatios(float(korn.min()), *(float(column.max()) for column in maxima)))


# ---------------------------------------------------------------------------
# buckling-equivalence gaps
# ---------------------------------------------------------------------------

def _full_gaps(
    geom: ShellGeometry, elastic: IsotropicElasticity, disc: RadialDiscretization, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """full_vs_rz of every pair (m[k], n[k]), entry k: the stiffness walked (_walk), solved by _full_gap.

    full_vs_rz is the pair's supremum of |1/R - 1/R1| = (|phi_zz|^2 + |phi_tz|^2) / stiffness.
    With M the mass moment, phi_zz + phi_tz = cc mhat^2 F on the theta and
    z blocks, the stiffness's trailing DOFs, with F = blockdiag(M, M) (M on
    the z block alone for n = 0), since ss = cc for n >= 1.  Both F are
    built once; no destabilizing form is assembled.
    """
    M = _block_moments(geom, disc)["mass"]
    return _walk(geom, elastic, disc, n, m, _GAP_FORMS, partial(_full_gap, (M, scipy.linalg.block_diag(M, M))))


def _full_gap(
    masses: Tuple[np.ndarray, np.ndarray], pairs: Sequence[WaveNumbers], forms: Dict[str, np.ndarray]
) -> np.ndarray:
    """full_vs_rz of every pair of a slice: cc mhat^2 mu_max of F = masses[min(n, 1)] on the theta and z blocks.

    Its eigenvalue alone is read, so like every such pencil it is one block
    eigensolve (_block_eigh) against the Schur complement of the stiffness
    onto those blocks (see _full_gaps); only the Korn kernel, which also
    reads extremal fields, takes top eigenpairs from e2's inverse factor.
    """
    A, F = forms["stiffness"], masses[min(pairs[0].n, 1)]
    _check_finite(A)
    mh2 = np.array([wn.m_hat for wn in pairs]) ** 2
    vals = _block_eigh(pairs, A, F[None], np.arange(A.shape[-1])[-len(F):])
    return trig_factors(pairs[0]).cc * mh2 * vals[:, -1]


def _mid_gaps(
    geom: ShellGeometry, elastic: IsotropicElasticity, disc: RadialDiscretization, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """rz_vs_mid of every pair (m[k], n[k]), entry k: the stiffness walked (_walk), solved by _mid_gap.

    rz_vs_mid is the pair's supremum of |1/R1 - 1/R2|: phi_rz - phi_rz_mid =
    cs mhat^2 D on the r block, D = M - h v v^T (_block_moments), built once.
    """
    moments = _block_moments(geom, disc)
    return _walk(geom, elastic, disc, n, m, _GAP_FORMS, partial(_mid_gap, moments["mass"] - moments["mid"]))


def _mid_gap(D: np.ndarray, pairs: Sequence[WaveNumbers], forms: Dict[str, np.ndarray]) -> np.ndarray:
    """rz_vs_mid of every pair of a slice: the extreme |mu| of cs mhat^2 D on the r block against the stiffness.

    D takes both signs.  One block eigensolve (_block_eigh), D the one block
    of the slice, gives its eigenvalues against the Schur complement of the
    stiffness onto the r block.
    """
    A = forms["stiffness"]
    _check_finite(A)
    mh2 = np.array([wn.m_hat for wn in pairs]) ** 2
    vals = _block_eigh(pairs, A, D[None], np.arange(len(D)))
    return trig_factors(pairs[0]).cs * mh2 * np.maximum(np.abs(vals[:, 0]), np.abs(vals[:, -1]))


class EquivalenceScan(NamedTuple):
    full_vs_rz: float        # sup over the window of |1/R - 1/R1|
    rz_vs_mid_coef: float    # sup of |1/R1 - 1/R2| / (mhat sqrt(h))


def equivalence_scan(
    geom: ShellGeometry,
    elastic: IsotropicElasticity,
    disc: RadialDiscretization,
    window: Tuple[int, int],
) -> EquivalenceScan:
    """Suprema of the two gaps over all modes in the window.

    rz_vs_mid's is the maximum of _mid_gaps over the whole window, and
    full_vs_rz's is full_vs_rz_supremum, which solves only the pairs that
    the proved bound G keeps.  A window without pairs has none
    (ValueError).  Logs the pairs covered at DEBUG on the "cylbuck" logger,
    before full_vs_rz_supremum's own line.
    """
    n, m = _window_arrays(window)
    mid = _mid_gaps(geom, elastic, disc, n, m)
    _log.debug("equivalence_scan: %d pairs covered", len(mid))
    coef = mid / (math.pi * m / geom.L * math.sqrt(geom.h))  # mhat as WaveNumbers.m_hat rounds it
    return EquivalenceScan(full_vs_rz_supremum(geom, elastic, disc, window), float(coef.max()))


def full_vs_rz_supremum(
    geom: ShellGeometry, elastic: IsotropicElasticity, disc: RadialDiscretization, window: Tuple[int, int]
) -> float:
    """The maximum of _full_gaps over the window, bit for bit, solving only the pairs that the proved bound G keeps.

    Column m = 1, where the supremum sits at every measured h, is scanned
    whole, and its largest gap s seeds the supremum.  Every pair's gap is at
    most its G (_gap_bound), so of the other pairs only those with
    G >= s (1 - _CEILING_MARGIN) are solved, through the same _full_gaps; a
    pair's gap is the same in any group; both are masks on the window's
    arrays.  Logs the pairs covered, the seed column's and the pairs solved
    at DEBUG on "cylbuck".
    """
    n, m = _window_arrays(window)
    column = m == 1
    seed = _full_gaps(geom, elastic, disc, n[column], m[column]).max()
    kept = (m > 1) & (_gap_bound(geom, elastic, n, math.pi * m / geom.L) >= seed * (1.0 - _CEILING_MARGIN))
    _log.debug("full_vs_rz_supremum: %d pairs covered, %d in column m = 1, %d solved",
               n.size, column.sum(), column.sum() + kept.sum())
    return float(_full_gaps(geom, elastic, disc, n[kept], m[kept]).max(initial=seed))


# ---------------------------------------------------------------------------
# the optimal-scaling ansatz
# ---------------------------------------------------------------------------

def _bump_derivatives(t: np.ndarray, order: int) -> List[np.ndarray]:
    """The C-infinity bump exp(-1/(1-t^2)) on (-1, 1) and its derivatives to order (at most 4)."""
    if order > 4:
        raise ValueError("bump derivatives available up to order 4")
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    s = 1.0 - ti * ti
    u1 = -2.0 * ti / s**2
    u2 = -2.0 / s**2 - 8.0 * ti**2 / s**3
    u3 = -24.0 * ti / s**3 - 48.0 * ti**3 / s**4
    u4 = -24.0 / s**3 - 288.0 * ti**2 / s**4 - 384.0 * ti**4 / s**5
    b = np.exp(-1.0 / s)
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


# Gauss-Legendre nodes of the ansatz rule in (eta, z, r); the self-check of
# ansatz_ratios refines eta and z by 1.5 and keeps r.
_ANSATZ_NODES = (160, 160, 8)


def _ansatz_norms(geom: ShellGeometry, eta_nodes: int, z_nodes: int, r_nodes: int):
    """The squared norms of the wave-packet ansatz under the tensor Gauss rule.

    Every field is a sum of at most two terms a(r) b_k(eta) c_l(z), with b_k
    the k-th bump derivative in eta and c_l the l-th in z, and the weight
    factors in the same way.  So a norm is the sum over the field's term pairs
    of G_r[i, j] G_eta[k_i, k_j] G_z[l_i, l_j], with 1-D Gram matrices G: the
    same rule summed in another order.  Terms of one (k, l) are merged before
    squaring, and r - 1 is formed as (h/2) t, so no coefficient cancels.
    """
    h, L = geom.h, geom.L
    q = h**0.25  # theta = q * eta compresses the circumferential profile
    s = math.sqrt(h)

    t_eta, w_eta = leggauss(eta_nodes)
    t_z, w_z = leggauss(z_nodes)
    b = np.array(_bump_derivatives(t_eta, 4))  # b and its eta derivatives to order 4
    # c, c', c'' of the bump in z = L (t + 1) / 2
    c = np.array([cj * (2.0 / L) ** j for j, cj in enumerate(_bump_derivatives(t_z, 2))])
    G_eta = (b * (q * w_eta)) @ b.T
    G_z = (c * (0.5 * L * w_z)) @ c.T

    t_r, w_r = leggauss(r_nodes)
    rho = 0.5 * h * t_r  # r - 1
    r = 1.0 + rho
    w_r = 0.5 * h * w_r * r

    def norm2(*terms):
        """|sum of a(r) b_k c_l|^2 over the (k, l, a) terms."""
        k, l, coefs = zip(*terms)
        a = np.array([np.broadcast_to(x, r.shape) for x in coefs])
        return float(np.sum((a * w_r) @ a.T * G_eta[np.ix_(k, k)] * G_z[np.ix_(l, l)]))

    # the field, with b = b(eta), c = c(z) and theta = q eta:
    #   phi_r = -b'' c,  phi_theta = (r q b' + (r - 1) b''' / q) c,  phi_z = ((r - 1) b'' - s b) c'
    # Its gradient entries in the cylindrical frame follow; g_rr = 0, g_tr =
    # -g_rt and g_zr = -g_rz, so the rr, rt and rz strains vanish.
    rt = norm2((1, 0, -q), (3, 0, -1.0 / q))
    rz = norm2((2, 1, -1.0))
    tt = norm2((2, 0, rho / r), (4, 0, rho / (q * q * r)))
    tz = norm2((1, 1, q * r), (3, 1, rho / q))
    zt = norm2((1, 1, -s / (q * r)), (3, 1, rho / (q * r)))
    zz = norm2((0, 2, -s), (2, 2, rho))
    # e_tz = (g_tz + g_zt) / 2, with q r - s / (q r) = q rho (2 + rho) / r
    e_tz = norm2((1, 1, 0.5 * q * rho * (2.0 + rho) / r), (3, 1, 0.5 * rho * (1.0 + r) / (q * r)))
    return {
        "e2": tt + zz + 2.0 * e_tz,
        "grad2": 2.0 * (rt + rz) + tt + tz + zt + zz,
        "phi_rz2": rz,
        "phi_tz2": tz,
    }


def ansatz_ratios(geom: ShellGeometry) -> AnsatzRatios:
    """Korn-type ratios of the wave-packet ansatz by tensor-rule quadrature.

    The circumferential integral is taken in the stretched variable so the
    rule of _ANSATZ_NODES resolves the h^{1/4}-compressed bump at any h; a
    refined-rule self-check guards against under-resolution and raises
    QuadratureUnderResolved.
    """
    eta_nodes, z_nodes, r_nodes = _ANSATZ_NODES
    norms = _ansatz_norms(geom, eta_nodes, z_nodes, r_nodes)
    vanished = [key for key, val in norms.items() if not val > 0.0]
    if vanished:
        raise ValueError(f"ansatz norms {', '.join(vanished)} vanish at h={geom.h!r}")
    check = _ansatz_norms(geom, int(1.5 * eta_nodes), int(1.5 * z_nodes), r_nodes)
    for key, val in norms.items():
        ref = check[key]
        if abs(val - ref) > 1e-6 * max(abs(ref), 1e-300):
            raise QuadratureUnderResolved(
                f"{key} changed by {abs(val - ref) / max(abs(ref), 1e-300):.2e} under refinement"
            )
    ratios = AnsatzRatios(
        korn=norms["e2"] / norms["grad2"],
        theta_z=norms["phi_tz2"] / norms["e2"],
        r_z=norms["phi_rz2"] / norms["e2"],
    )
    if 0.0 in ratios:
        # the z-derivative norms scale like L^-j and e2 like L, so a long
        # enough shell underflows the destabilizing ratios
        raise ValueError(f"L={geom.L!r} is too long at h={geom.h!r}: the ansatz ratios underflow, got {ratios}")
    return _positive(ratios)


def fitted_slope(h_values: Iterable[float], values: Iterable[float]) -> float:
    """Least-squares slope of log(value) against log(h)."""
    hs = np.log(np.asarray(list(h_values), dtype=float))
    vs = np.log(np.asarray(list(values), dtype=float))
    return float(np.polyfit(hs, vs, 1)[0])

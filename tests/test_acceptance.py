"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from cylbuck import acceptance, trivial_branch
from cylbuck.material import IsotropicElasticity, random_strain
from cylbuck.spectral import FourierMode, ShellGeometry, WaveNumbers, mode_energy


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number, capsys):
    result = acceptance.run_all([number])[0]
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.details


def test_decoupling_check_detects_coupled_modes(rng):
    # criterion 9's grid energy equals the sum of the per-mode energies only
    # for distinct (m, n): two modes sharing a pair interfere
    geom = ShellGeometry(h=0.05, L=math.pi)
    el = IsotropicElasticity(nu=0.3)

    def energies(pairs):
        modes = []
        for m, n in pairs:
            fr, ftheta, fz = (Polynomial(rng.uniform(-1, 1, size=3)) for _ in range(3))
            modes.append(FourierMode(WaveNumbers(m=m, n=n, L=math.pi), fr, ftheta, fz))
        per_mode = sum(mode_energy(geom, el, mo) for mo in modes)
        return acceptance._grid_energy(geom, el, modes), per_mode

    grid, per_mode = energies([(1, 2), (3, 2), (2, 5), (1, 0)])
    assert grid == pytest.approx(per_mode, rel=1e-9)
    grid, per_mode = energies([(1, 2), (3, 2), (1, 2)])
    assert grid != pytest.approx(per_mode, rel=1e-3)


def test_criterion_7_fails_a_stretch_off_the_energy(monkeypatch):
    # a = nu lambda has the right slope and a zero remainder, so only the
    # residual condition can catch it (at nu = 0.3 and 0.45; at nu = 0 it is exact)
    def linear(model, lam):
        return model.elastic.nu * lam

    monkeypatch.setattr(trivial_branch, "solve_radial_stretch", linear)
    monkeypatch.setattr(acceptance, "solve_radial_stretch", linear)
    result = acceptance.criterion_7()
    assert not result.passed
    rows = result.details.split("; ")
    assert [row.endswith("residual NOT zeroed to 1e-12") for row in rows] == [False, True, True]
    for nu, row in zip((0.0, 0.3, 0.45), rows):
        assert row.startswith(f"nu={nu}: |a'(0)-nu|=")
        assert "remainder C=0.00" in row
        slope_err = float(row.split("=")[2].split(",")[0])
        assert slope_err <= 1e-6


@pytest.mark.parametrize("seed", ["42", "1103"])
def test_criterion_9_draws_match_the_scalar_loop(seed, monkeypatch):
    # the batched draws are the doubles of the per-sample loop they replace:
    # 200 rounds of random_strain and uniform(-3, 3), then 10 000 random_strain
    monkeypatch.setenv("KOITER_SEED", seed)
    batched = np.random.default_rng(acceptance._seed())
    strains, factors, sampled = acceptance._strain_samples(batched)
    scalar = np.random.default_rng(int(seed))
    fields = ("rr", "tt", "zz", "rt", "rz", "tz")

    def rows(e):
        return np.column_stack([getattr(e, f) for f in fields])

    homogeneity = []
    for _ in range(200):
        e = random_strain(scalar)
        homogeneity.append([getattr(e, f) for f in fields] + [scalar.uniform(-3, 3)])
    coercivity = [[getattr(e, f) for f in fields] for e in (random_strain(scalar) for _ in range(10_000))]
    assert np.column_stack([rows(strains), factors]).tobytes() == np.array(homogeneity).tobytes()
    assert rows(sampled).tobytes() == np.array(coercivity).tobytes()
    assert batched.random() == scalar.random()


def _square(p):
    out = [0] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(p):
            out[i + j] += a * b
    return out


def _exact_wall_sides(h, coef):
    """The wall inequality's two integrals for f = sum coef[k] x^k in rational arithmetic."""
    f = [Fraction(c) for c in coef]
    G = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(f)]
    G[0] = -sum(G)  # F - F(1)
    lo, hi = 1 - Fraction(h) / 2, 1 + Fraction(h) / 2

    def integral(p):
        return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(p))

    return integral(_square(G)), Fraction(h) ** 2 / 4 * integral(_square(f))


@pytest.mark.parametrize("seed", [42, 1103])
def test_criterion_9_wall_sides_match_the_polynomial_loop(seed):
    # the array form against the Polynomial loop it replaces, on the same draws;
    # that loop's lhs subtracts two antiderivative values of size ~1 to get an
    # integral of size ~h^3, so it is good to ~1e-8 only and the exact
    # integrals are the reference for the values, the float loop for the verdicts
    batched = np.random.default_rng(seed)
    lhs, rhs = acceptance._wall_sides(batched)
    scalar = np.random.default_rng(seed)
    for k in range(100):
        h = float(scalar.uniform(0.01, 0.5))
        f = Polynomial(scalar.uniform(-2, 2, size=6))
        F = f.integ()
        g = (F - F(1.0)) ** 2
        lo, hi = 1 - h / 2, 1 + h / 2
        loop_lhs = g.integ()(hi) - g.integ()(lo)
        f2 = (f**2).integ()
        loop_rhs = h**2 / 4.0 * (f2(hi) - f2(lo))
        want = _exact_wall_sides(h, f.coef)
        assert [lhs[k], rhs[k]] == pytest.approx([float(w) for w in want], rel=1e-12, abs=0)
        assert (lhs[k] <= rhs[k] * (1 + 1e-12)) == (loop_lhs <= loop_rhs * (1 + 1e-12))
    assert batched.random() == scalar.random()

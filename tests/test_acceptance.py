"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line."""

import math

import pytest
from numpy.polynomial import Polynomial

from cylbuck import acceptance
from cylbuck.material import IsotropicElasticity
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

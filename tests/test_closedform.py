import math
from fractions import Fraction

import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import DephasingParams


def test_degeneracy_small_cases():
    # multiplicity of each total-spin irrep (not weighted by its dimension)
    assert cf.degeneracy(1, Fraction(1, 2)) == 1
    assert cf.degeneracy(2, 0) == 1
    assert cf.degeneracy(2, 1) == 1
    assert cf.degeneracy(3, Fraction(1, 2)) == 2
    assert cf.degeneracy(3, Fraction(3, 2)) == 1
    assert cf.degeneracy(4, 0) == 2
    assert cf.degeneracy(4, 1) == 3


def test_degeneracy_counts_full_space():
    for n in range(1, 9):
        total = 0
        s = Fraction(n % 2, 2)
        while s <= Fraction(n, 2):
            total += int(2 * s + 1) * cf.degeneracy(n, s)
            s += 1
        assert total == 2 ** n


def test_degeneracy_rejects_bad_spin():
    with pytest.raises(ValueError):
        cf.degeneracy(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        cf.degeneracy(3, 5)
    # a float spin is taken exactly, not rounded to the nearest half
    with pytest.raises(ValueError):
        cf.degeneracy(3, 0.3)
    with pytest.raises(ValueError):
        cf.degeneracy(4, 0.9)
    assert cf.degeneracy(3, 1.5) == 1


def test_f_ih_landmarks():
    assert cf.f_ih(1) == pytest.approx(0.25)
    assert cf.f_ih(2) == pytest.approx(0.25 + math.sqrt(3) / 8, abs=1e-14)
    assert cf.f_ih(3) == pytest.approx(0.625, abs=1e-14)


def test_f_ih_monotone_to_one():
    vals = [cf.f_ih(n) for n in range(1, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_f_ih_large_n_does_not_overflow():
    v = cf.f_ih(10_000)
    assert 0.99 < v < 1.0


def test_f_corr_peak_at_six():
    vals = {n: cf.f_corr(n) for n in range(1, 21)}
    assert max(vals, key=vals.get) == 6


def test_f_corr_trace_scale():
    for n in (2, 5, 9):
        assert cf.f_corr_trace(n) == pytest.approx(cf.f_corr(n) / 8.0)


def test_fidelity_noiseless_povm_endpoints():
    for n in (2, 4, 7):
        assert cf.fidelity_noiseless_povm(n, DephasingParams(1.0, 0.0)) == pytest.approx(cf.f_ih(n))
        assert cf.fidelity_noiseless_povm(n, DephasingParams(1.0, math.pi)) == pytest.approx(
            cf.f_corr_trace(n))


def test_teleport_fidelity_map():
    assert cf.teleport_fidelity(1.0) == pytest.approx(1.0)
    assert cf.teleport_fidelity(0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        cf.teleport_fidelity(1.5)


def test_spin_block_spectrum_matches_dense():
    assert checks.spectrum_block_formulas(range(2, 6), 1e-10).ok


def test_spin_block_trace_equals_n():
    for n in (2, 3, 6, 9):
        assert cf.spin_block_spectrum(n).trace() == pytest.approx(n, abs=1e-10)


def test_kim_fidelity_endpoints():
    for n in (2, 6):
        assert cf.kim_fidelity(n, 1.0) == pytest.approx(cf.f_ih(n))
        assert cf.kim_fidelity(n, 0.0) == pytest.approx(cf.f_ih(n) / 3.0 + 1.0 / 6.0)


def test_bounds_sanity():
    assert cf.beigi_konig_bound(9, 0.0) == pytest.approx(0.5 * (1 - 1 / 9))
    assert cf.knill_barnum_bound(2) == pytest.approx(0.75)
    assert cf.helstrom_bound_n2(1.0) == pytest.approx(0.25 * (1 + math.sqrt(3) / 2))
    assert cf.helstrom_bound_n2(0.0) == pytest.approx(0.375)

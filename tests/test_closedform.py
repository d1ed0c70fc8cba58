import math

import mpmath
import numpy as np
import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import signal_states
from pbtlab.fidelity import _sector_weights, pgm_fidelities_reduced

from paper_bounds import f_corr_trace, kim_fidelity, knill_barnum_bound


def test_degeneracy_counts_full_space():
    # the multiplicities d_j' behind the reduced route's sector weights, with
    # each irrep's dimension 2j'+1, count the 2^m states of m = N-1 spins 1/2
    for m in range(1, 9):
        total = 0
        for two_j, weight in _sector_weights(m + 1):
            d = 2.0 ** (m + 2) * weight
            assert d == pytest.approx(round(d), abs=1e-9)
            total += (two_j + 1) * round(d)
        assert total == 2 ** m


def test_f_ih_landmarks():
    assert cf.f_ih(1) == pytest.approx(0.25)
    assert cf.f_ih(2) == pytest.approx(0.25 + math.sqrt(3) / 8, abs=1e-14)
    assert cf.f_ih(3) == pytest.approx(0.625, abs=1e-14)


def test_f_ih_monotone_to_one():
    vals = [cf.f_ih(n) for n in range(1, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_binomial_weights_match_exact_binomials():
    # math.comb(n, k) / 2 ** n is an int division, which CPython rounds
    # correctly; measured at most 12 ulp off for n <= 200
    for n in range(201):
        weights = cf.binomial_weights(n)
        assert len(weights) == n + 1
        for k, w in enumerate(weights):
            exact = math.comb(n, k) / 2 ** n
            assert abs(w - exact) <= 50 * math.ulp(exact)
        assert weights == weights[::-1]  # the mirror image, bit for bit
        assert abs(math.fsum(weights) - 1.0) <= 2 * math.ulp(1.0)
    # far from the centre the weights underflow to 0; none overflows
    weights = cf.binomial_weights(100_000)
    assert all(math.isfinite(w) for w in weights)
    assert weights[0] == weights[-1] == 0.0 and max(weights) < 1.0


def _closed_forms_mpmath(n):
    """f_ih(n) and f_corr(n) as sums at mpmath's working precision, over exact
    integer binomials."""
    ih = corr = mpmath.mpf(0)
    binom = 1
    for k in range(n + 1):
        a = (n - 2 * k - 1) / mpmath.sqrt(k + 1) + (n - 2 * k + 1) / mpmath.sqrt(n - k + 1)
        b = 1 / mpmath.sqrt(k + 1) - 1 / mpmath.sqrt(n - k + 1)
        ih += binom * a * a
        corr += binom * ((n - 2 * k) ** 2 - 1) * b * b
        binom = binom * (n - k) // (k + 1)
    return ih / mpmath.mpf(2) ** (n + 3), corr / mpmath.mpf(2) ** n / 3


# Absolute error bounds of the float sums at large N, about four times the
# measured errors: f_ih 1.4e-16, 3.2e-16, 4.3e-16, 5.1e-16 and 2.4e-16 at
# N = 100, 1000, 3000, 10^4 and 3*10^4, f_corr at most 1.5e-18 (N = 1000) of a
# value near 2/N.  The N = 10^4 and 3*10^4 sums stay finite: no partial
# product of `binomial_weights` exceeds 1.
@pytest.mark.parametrize("n, ih_bound, corr_bound", [
    (100, 6e-16, 3e-19), (1000, 1.5e-15, 6e-18), (3000, 2e-15, 1e-18),
    (10_000, 2e-15, 8e-19), (30_000, 1e-15, 2e-19)])
def test_closed_forms_match_mpmath_at_large_n(n, ih_bound, corr_bound):
    with mpmath.workdps(40):
        ih, corr = _closed_forms_mpmath(n)
        assert abs(cf.f_ih(n) - ih) <= ih_bound
        assert abs(cf.f_corr(n) - corr) <= corr_bound


def test_noiseless_fidelity_builds_the_weights_once(monkeypatch):
    # one build of the weights per call serves both sums, which equal f_ih and
    # f_corr_trace bit for bit at the overlaps 1 and -1
    calls = []
    monkeypatch.setattr(cf, "binomial_weights",
                        lambda n, weights=cf.binomial_weights: calls.append(n) or weights(n))
    for n in (1, 4, 301):
        f = cf.noiseless_fidelity(n, [1.0, 0.5, 1.0], [0.0, 1.0, math.pi])
        assert calls == [n]
        assert f[0] == cf.f_ih(n) and f[2] == f_corr_trace(n)
        calls.clear()


def test_f_corr_peak_at_six():
    vals = {n: cf.f_corr(n) for n in range(1, 21)}
    assert max(vals, key=vals.get) == 6


def test_f_corr_trace_scale():
    for n in (2, 5, 9):
        assert f_corr_trace(n) == pytest.approx(cf.f_corr(n) / 8.0)


def test_fidelity_noiseless_povm_endpoints():
    for n in (2, 4, 7):
        # overlap |gamma| cos(theta) = 1 at theta = 0 and -1 at theta = pi
        assert cf.noiseless_fidelity(n, 1.0) == pytest.approx(cf.f_ih(n))
        assert cf.noiseless_fidelity(n, 1.0, math.pi) == pytest.approx(
            f_corr_trace(n))


@pytest.mark.parametrize("route", [cf.f_ih, cf.f_corr, lambda n: cf.beigi_konig_bound(n, 0.5),
                                   knill_barnum_bound, lambda n: pgm_fidelities_reduced(n, [1.0]),
                                   lambda n: signal_states(n, 0.5)],
                         ids=["f_ih", "f_corr", "beigi_konig_bound", "knill_barnum_bound",
                              "pgm_fidelities_reduced", "signal_states"])
def test_port_count_below_one_rejected(route):
    # every route checks N with the one `check_n`: below one, and not an integer
    for n, message in ((0, r"need n >= 1, got 0"), (2.5, r"need an integer n, got 2\.5"),
                       (2.0, r"need an integer n, got 2\.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            route(n)


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
def test_noiseless_fidelity_checks_gamma_abs(bad):
    # the closed form goes through check_gamma_abs like every other |gamma| route
    for gamma_abs in (bad, np.array([0.5, bad])):
        with pytest.raises(ValueError, match=rf"^gamma_abs must lie in \[0, 1\], got {bad}$"):
            cf.noiseless_fidelity(3, gamma_abs, 0.2)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_noiseless_fidelity_checks_theta(bad):
    # a non-finite theta is named, as a float and as an array entry, with the
    # dense oracle's message, rather than giving a NaN fidelity
    for theta in (bad, np.array([0.2, bad])):
        with pytest.raises(ValueError, match=rf"^theta must be finite, got {bad}$"):
            cf.noiseless_fidelity(3, 0.5, theta)


def test_teleport_fidelity_map():
    assert cf.teleport_fidelity(1.0) == pytest.approx(1.0)
    assert type(cf.teleport_fidelity(0.25)) is float
    assert cf.teleport_fidelity(0.25) == pytest.approx(0.5)
    assert np.array_equal(cf.teleport_fidelity(np.array([[1.0], [0.25]])), [[1.0], [0.5]])
    # a list or a tuple is read as an array, as by the other routes
    for grid in ([1.0, 0.25], (1.0, 0.25)):
        assert np.array_equal(cf.teleport_fidelity(grid), [1.0, 0.5])
    # within FIDELITY_SLACK of [0, 1] an entry passes; beyond it, or NaN, it is
    # named, as a float and as an array entry
    slack = cf.FIDELITY_SLACK
    for ok in (-0.5 * slack, 1.0 + 0.5 * slack):
        cf.teleport_fidelity(ok)
        cf.teleport_fidelity(np.array([0.5, ok]))
    for bad in (1.5, -0.1, -2.0 * slack, 1.0 + 2.0 * slack, math.nan):
        for ent_fid in (bad, np.array([[0.5], [bad]])):
            message = rf"^entanglement fidelity {bad} outside \[0, 1\]$"
            with pytest.raises(ValueError, match=message):
                cf.teleport_fidelity(ent_fid)


def test_spin_block_spectrum_matches_dense():
    assert checks.spectrum_block_formulas(range(2, 6), (1.0,), (0.0,), 1e-10).ok


def test_spin_block_trace_equals_n():
    # tr S = N, so the block eigenvalues of 2^(N+1) S sum to N 2^(N+1)
    for n in (2, 3, 6, 9):
        total = checks.block_spectrum(n, 1.0).sum()
        assert total == pytest.approx(n * 2 ** (n + 1), rel=1e-12)


def test_kim_fidelity_endpoints():
    for n in (2, 6):
        assert kim_fidelity(n, 1.0) == pytest.approx(cf.f_ih(n))
        assert kim_fidelity(n, 0.0) == pytest.approx(cf.f_ih(n) / 3.0 + 1.0 / 6.0)


def test_bounds_sanity():
    assert cf.beigi_konig_bound(9, 0.0) == pytest.approx(0.5 * (1 - 1 / 9))
    assert knill_barnum_bound(2) == pytest.approx(0.75)
    assert cf.helstrom_bound_n2(1.0) == pytest.approx(0.25 * (1 + math.sqrt(3) / 2))
    assert cf.helstrom_bound_n2(0.0) == pytest.approx(0.375)
    # every bound that takes |gamma| runs the one domain check
    for bad in (2.0, math.nan, np.array([0.5, -0.1])):
        for bound in (cf.beigi_konig_bound, kim_fidelity, lambda n, g: cf.helstrom_bound_n2(g)):
            with pytest.raises(ValueError, match=r"^gamma_abs must lie in \[0, 1\], got "):
                bound(9, bad)


def test_bound_columns_match_the_float_formulas_bit_for_bit():
    # compare computes each bound column in one array call; the per-row float
    # formulas are the reference.  numpy's ** 2 would move 12 of these bits.
    g = np.random.default_rng(0).random(100_000)
    assert cf.beigi_konig_bound(5, g).tolist() == [
        0.5 * (1.0 - (1.0 + 2.0 * x ** 2) / 5) for x in g.tolist()]
    assert cf.helstrom_bound_n2(g).tolist() == [
        0.25 * (1.0 + 0.5 * math.sqrt(1.0 + 2.0 * x ** 2)) for x in g.tolist()]

import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab import quadrature as qd
from pbtlab import spinboson as sb
from pbtlab.cli import main
from pbtlab.fidelity import pgm_fidelities_reduced


def params(s=2.0, th=0.1, ell=3.0):
    """A bath as the numbers (s, theta_T, ell) that the routes take."""
    return s, th, ell


def one_bath(taus, s, th, ell):
    """chi and the phase of one bath at every tau, as lists."""
    chis, phases = sb.decoherence_grid(taus, s, th, ell)
    return chis[0].tolist(), phases[0].tolist()


def cli_rows(tmp_path, taus, povm="closed_form"):
    """The rows of `pbtlab spinboson` at N = 5 for params() along taus, as dicts."""
    out = tmp_path / "sb.json"
    assert main(["spinboson", "--n", "5", "--tau", ",".join(map(repr, taus)), "--s", "2",
                 "--temp-ratio", "0.1", "--ell", "3", "--povm", povm, "--format", "json",
                 "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    return [dict(zip(table["columns"], row)) for row in table["rows"]]


# every route that takes a bath, as a function of (tau, s, theta_T, ell)
BATH_ROUTES = (lambda tau, s, th, ell: sb.check_bath([tau], s, th, ell),
               lambda tau, s, th, ell: sb.decoherence_grid([tau], s, th, ell),
               qd.decoherence_and_error)


def test_params_validation():
    # each route runs the one bath check, `check_bath`, with one message per field;
    # NaN and inf are rejected too: a NaN temperature once passed as a cold bath.
    # The bath is checked before tau, so a bad tau beside it changes nothing.
    rules = (("ohmicity must be finite and exceed 1", (1.0, math.nan, math.inf)),
             ("temperature ratio must be finite and >= 0", (-0.1, math.nan, math.inf)),
             ("separation must be finite and >= 0", (-0.1, math.nan, math.inf)))
    for field, (rule, bads) in enumerate(rules):
        for bad, tau, route in itertools.product(bads, (1.0, -1.0), BATH_ROUTES):
            bath = [2.0, 0.1, 3.0]
            bath[field] = bad
            with pytest.raises(ValueError, match=f"^{rule}, got {bad}$"):
                route(tau, *bath)


def test_check_bath_names_the_first_bad_bath():
    # one entry per bath, broadcast; the first bad bath is named, and within it
    # the ohmicity before the temperature ratio before the separation; lists
    # (the CLI passes its baths as lists) and arrays give the same result
    taus, (s, th, ell) = sb.check_bath([0, 1], [2.0, 3.0], [0.1, 0.9], 3.0)
    assert taus.dtype == float and taus.tolist() == [0.0, 1.0]
    assert (s.tolist(), th.tolist(), ell.tolist()) == ([2.0, 3.0], [0.1, 0.9], [3.0, 3.0])
    assert np.array_equal(sb.check_bath(1.0, np.array([2.0, 3.0]), np.array([0.1, 0.9]), 3.0)[1],
                          np.array([s, th, ell]))
    for bath, message in (
            (([2.0, 0.5], -1.0, 3.0), "temperature ratio must be finite and >= 0, got -1.0"),
            (([0.5, 2.0], [-1.0, -2.0], -3.0), "ohmicity must be finite and exceed 1, got 0.5"),
            ((2.0, [0.1, math.nan], [-1.0, 3.0]), "separation must be finite and >= 0, got -1.0")):
        for route, args in itertools.product(BATH_ROUTES[:2],  # the quadrature takes one bath
                                             (bath, [np.asarray(v) for v in bath])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                route(1.0, *args)


def test_check_bath_refuses_more_than_one_dimension():
    # a tau or bath argument of more than one dimension raises one ValueError
    # naming the shapes, before the domain checks, in every route
    for args, shapes in ((([1.0], [[2.0, 3.0]], 0.1, 3.0), r"\(1,\) and \(1, 2\)"),
                         (([[1.0, 2.0]], 2.0, 0.1, 3.0), r"\(1, 2\) and \(\)"),
                         (([[1.0], [2.0]], 2.0, 0.1, 3.0), r"\(2, 1\) and \(\)"),
                         (([[-1.0]], 0.5, 0.1, 3.0), r"\(1, 1\) and \(\)")):
        message = f"^tau and the baths must be at most 1-d, got shapes {shapes}$"
        for route in (sb.check_bath, sb.decoherence_grid, qd.decoherence_and_error):
            with pytest.raises(ValueError, match=message):
                route(*args)


def test_bracket_holds_its_alpha_zero_limit():
    # at alpha = 0 `_bracket` is exactly the limit of bracket / alpha,
    # -(1/2) log(1 + x^2), for the real x about 0 and the complex x about y;
    # at small alpha bracket / alpha approaches it to first order in alpha
    # (measured worst 2.04 |alpha|, at x = 100)
    real = np.array([1e-3, 0.5, 3.0, 100.0])
    cplx = np.array([1e-3 + 1e-3j, 0.3 - 0.2j, 2.0 + 1.5j, 40.0 - 3.0j])
    for x, log_1x2 in ((real, np.log1p(real * real)), (cplx, np.log(1.0 + cplx * cplx))):
        limit = -0.5 * log_1x2
        assert np.array_equal(sb._bracket(0.0, x, log_1x2), limit)
        for alpha in (1e-6, -1e-6, 1e-8, -1e-8):
            ratio = sb._bracket(alpha, x, log_1x2) / alpha / limit
            assert (np.abs(ratio - 1.0) <= 5 * abs(alpha)).all()


def test_chi_trivial_zeros():
    # chi, the phase and both error estimates are exactly 0 at tau = 0 and at ell = 0
    assert qd.decoherence_and_error(0.0, *params()) == (0.0, 0.0, 0.0, 0.0)
    assert qd.decoherence_and_error(5.0, *params(ell=0.0)) == (0.0, 0.0, 0.0, 0.0)


def test_quadrature_reports_its_error_estimate():
    *_, chi_err, phase_err = qd.decoherence_and_error(4.0, *params())
    assert 0.0 < chi_err < 1e-9 and 0.0 < phase_err < 1e-9
    # down to s = 1.05, where the integrand is least smooth at the first panel's edge w = 0
    gaps = checks.decoherence_routes((1.05, 1.2, 2.0), (0.0, 0.5, 0.9), (0.5, 4.0), 3.0, 1e-9)
    assert all(g.ok for g in gaps), gaps
    *_, estimate = gaps
    assert estimate.quantity.startswith("QUADPACK error estimate") and 0.0 < estimate.worst < 1e-9


def test_chi_nonnegative():
    assert all(g.ok for g in checks.spin_boson(*params(), (0.5, 1.0, 3.0, 8.0), (), 0.0))


def test_chi_thermal_enhancement():
    hot = qd.decoherence_and_error(8.0, *params(th=0.9))[0]
    cold = qd.decoherence_and_error(8.0, *params(th=0.1))[0]
    assert hot > cold


def test_phase_temperature_independent():
    a = qd.decoherence_and_error(4.0, *params(th=0.1))[1]
    b = qd.decoherence_and_error(4.0, *params(th=0.9))[1]
    assert a == pytest.approx(b, abs=1e-12)


def test_phase_computed_once_for_all_temperatures():
    taus = [0.0, 1.0, 2.5]
    chis, phases = sb.decoherence_grid(taus, 2.0, [0.1, 0.9], 3.0)
    # one stacked evaluation for both baths; the phase is the same bit for bit
    cold, hot = phases.tolist()
    assert cold == hot == one_bath(taus, *params(th=0.9))[1]
    quadrature = [qd.decoherence_and_error(t, *params())[1] for t in taus]
    assert cold == pytest.approx(quadrature, abs=1e-12)
    assert chis[0].tolist() != chis[1].tolist()


def test_phase_analytic_ohmicity_two():
    # for s = 2 the integrand reduces to elementary exponential-sine integrals:
    # theta = (1/2)[ell/(1+ell^2) - (ell+tau)/(2(1+(ell+tau)^2)) - (ell-tau)/(2(1+(ell-tau)^2))]
    tau, ell = 1.0, 3.0

    def lorentz(a):
        return a / (1.0 + a * a)

    want = 0.5 * (lorentz(ell) - 0.5 * lorentz(ell + tau) - 0.5 * lorentz(ell - tau))
    assert qd.decoherence_and_error(tau, *params())[1] == pytest.approx(want, abs=1e-10)
    assert one_bath([tau], *params())[1][0] == pytest.approx(want, abs=1e-13)


def test_zero_temperature_chi_analytic_ohmicity_two():
    # at theta_T = 0, coth -> 1 and chi reduces to exponential-cosine integrals:
    # chi = 2[c(0) - c(tau) - c(ell) + c(ell+tau)/2 + c(ell-tau)/2], c(a) = 1/(1+a^2)
    tau, ell = 2.0, 3.0

    def c(a):
        return 1.0 / (1.0 + a * a)

    want = 2.0 * (c(0) - c(tau) - c(ell) + 0.5 * c(ell + tau) + 0.5 * c(ell - tau))
    assert qd.decoherence_and_error(tau, *params(th=0.0))[0] == pytest.approx(want, abs=1e-9)
    assert one_bath([tau], *params(th=0.0))[0][0] == pytest.approx(want, abs=1e-13)


def test_decoherence_factor_assembly(tmp_path):
    [row] = cli_rows(tmp_path, [3.0])
    assert row["gamma_abs"] == pytest.approx(math.exp(-row["chi"]), abs=1e-12)
    assert 0.0 < row["gamma_abs"] <= 1.0


def test_decoherence_factor_trivial(tmp_path):
    [row] = cli_rows(tmp_path, [0.0])
    assert row["gamma_abs"] == 1.0
    assert row["phase"] == 0.0
    assert one_bath([0.0, 5.0], *params(ell=0.0)) == ([0.0, 0.0], [0.0, 0.0])


def test_extreme_baths_are_cold_or_one_error():
    # a theta_T whose thermal bases 1 + k/theta_T leave the float range is cold
    chis, phases = sb.decoherence_grid([1.0, 8.0], 1.5, [0.0, 5e-324, 1e-310], 3.0)
    assert chis[1:].tolist() == [chis[0].tolist()] * 2
    assert phases[1:].tolist() == [phases[0].tolist()] * 2
    # an s whose log-gamma leaves the float range raises as s = 1000 does
    message = r"^the decoherence factor at s=1e\+308 leaves the float range$"
    with pytest.raises(ValueError, match=message):
        sb.decoherence_grid([1.0], [2.0, 1e308], 0.1, 3.0)


def test_quadrature_cutoff_convergence():
    wide = (120.0, 1e-10)  # (upper_cutoff, rel_tol)
    *_, shift = checks.spin_boson(*params(), (1.0, 4.0, 8.0), (wide,), 1e-8)
    assert shift.ok


def test_spin_boson_check_names_the_quadrature_settings():
    *_, shift = checks.spin_boson(*params(), (4.0,), ((120.0, 1e-10),), 1e-8)
    assert shift.where == "tau=4 upper_cutoff=120 rel_tol=1e-10"


def test_negative_tau_rejected():
    # the fast route and its quadrature oracle share one tau check and message
    for bad in (-1.0, math.nan, math.inf):
        message = f"^tau must be finite and >= 0, got {bad}$"
        with pytest.raises(ValueError, match=message):
            sb.decoherence_grid([0.0, bad], *params())
        with pytest.raises(ValueError, match=message):
            qd.decoherence_and_error(bad, *params())


@pytest.mark.parametrize("s", [2.0, 4.5])
def test_quadrature_auto_cutoff(s):
    # upper_cutoff = 0 integrates both integrals up to 40 + 10 s
    auto = qd.decoherence_and_error(4.0, *params(s=s))
    assert auto == qd.decoherence_and_error(4.0, *params(s=s), 40.0 + 10.0 * s)


def test_quadrature_overflow_is_value_error():
    # w ** (s - 2) leaves the float range on the second panel at s = 400
    with pytest.raises(ValueError, match=r"^quadrature gave a non-finite value on panel "
                                         r"\[3\.14152, 6\.28305\]$"):
        qd.decoherence_and_error(1.0, 400.0, 0.0, 1.0)


def test_closed_form_column_identity(tmp_path):
    taus = [0.0, 1.0, 3.0]
    rows = cli_rows(tmp_path, taus)
    assert [(r["chi"], r["phase"]) for r in rows] == list(zip(*one_bath(taus, *params())))
    for r in rows:
        f = cf.noiseless_fidelity(5, math.exp(-r["chi"]), r["phase"])
        assert r["f_closed_form"] == pytest.approx(cf.teleport_fidelity(f), abs=0.0)
    assert rows[0]["f_closed_form"] == pytest.approx(cf.teleport_fidelity(cf.f_ih(5)), abs=1e-12)


def test_noise_adapted_curve_below_closed_form(tmp_path):
    # holds outside the strong-decoherence crossover region at moderate N
    for r in cli_rows(tmp_path, [0.25, 1.0], povm="closed_form,noise_adapted"):
        assert r["f_noise_adapted"] <= r["f_closed_form"] + 1e-9


def _bath_transform_mpmath(t, s, th):
    """G(t) of the spinboson module docstring at mpmath's working precision.

    The Hurwitz zeta comes from mpmath.  At s = 2 it has a pole; there
    2 theta_T^a zeta(a, q) is 2 theta_T / (a - 1) - 2 theta_T psi(q) + O(a - 1),
    and the constant drops out of chi.
    """
    a = mpmath.mpf(s) - 1
    z = 1 - 1j * t
    g = mpmath.exp(mpmath.loggamma(a) - a * mpmath.log(z))
    if th:
        q = 1 + mpmath.mpf(th) * z
        if a == 1:
            g -= 2 * th * mpmath.psi(0, q)
        else:
            g += 2 * mpmath.exp(mpmath.loggamma(a) + a * mpmath.log(th)) * mpmath.zeta(a, q)
    return g


def _chi_phase_mpmath(tau, s, th, ell):
    tau, ell = mpmath.mpf(tau), mpmath.mpf(ell)
    g = [_bath_transform_mpmath(t, s, th) for t in (0, tau, ell, tau - ell, tau + ell)]
    chi = 2 * mpmath.re(g[0] - g[1] - g[2] + g[3] / 2 + g[4] / 2)
    cold = [_bath_transform_mpmath(t, s, 0) for t in (ell, ell + tau, ell - tau)]
    return float(chi), float(mpmath.im(cold[0] - cold[1] / 2 - cold[2] / 2) / 2)


def _assert_matches_mpmath(s, taus, temps, digits):
    """chi and the phase of s at each temperature and tau (ell = 3) against
    mpmath at `digits` digits, each within 1e-12 max(1, |x|)."""
    chis, phases = sb.decoherence_grid(taus, s, temps, 3.0)
    with mpmath.workdps(digits):
        for th, chi_row, phase_row in zip(temps, chis, phases):
            for tau, got_chi, got_phase in zip(taus, chi_row, phase_row):
                chi, phase = _chi_phase_mpmath(tau, s, th, 3.0)
                assert abs(got_chi - chi) <= 1e-12 * max(1.0, abs(chi)), (th, tau)
                assert abs(got_phase - phase) <= 1e-12 * max(1.0, abs(phase)), (th, tau)


# Large taus, where chi is a small difference of powers of size
# ~Gamma(s - 1) tau^(2 - s), at 60 digits.
LARGE_TAUS = {1.001: (1e4, 1e8, 1e12), 1.01: (1e4, 1e8, 1e12), 1.5: (1e10, 1e50)}


@pytest.mark.parametrize("s", [1.001, 1.01, 1.05, 1.2, 1.5, 2 - 1e-9, 2.0, 2 + 1e-9, 3.0, 4.5,
                               20.0, 100.0])
def test_decoherence_factors_match_mpmath(s):
    # Measured worst for chi: 1.4e-13 (s = 1.001, theta_T = 5, tau = 3) and
    # 4.4e-15 (s = 1.01); at the large taus 4.5e-14 (s = 1.001, tau = 1e12).
    # As s -> 1 every row of G carries Gamma(s - 1) ~ 1/(s - 1), and chi is
    # their difference: at s = 1.001, theta_T = 5 it reaches 2.7e-13 between
    # the grid points (tau = 2.1).  tau = 2.9 and 3.0001 sit by tau = ell,
    # where the near rule of `_second_difference` decides the branch.  The
    # phase's worst is 4.7e-14 (s = 100), where exponents of size ~350 cost
    # the float route digits.
    taus = [1e-6, 1e-3, 0.2, 0.5, 2.9, 3.0, 3.0001, 8.0, 40.0, 1e3]
    _assert_matches_mpmath(s, taus, (0.0, 0.1, 0.9, 5.0), 30)
    if s in LARGE_TAUS:
        _assert_matches_mpmath(s, LARGE_TAUS[s], (0.0, 0.9), 60)


def _plateau(s, th, ell):
    """chi and the phase as tau -> inf at 30 digits: 2 Re[G(0) - G(ell)] and
    1/2 Im G_0(ell), G_0 the zero-temperature G."""
    with mpmath.workdps(30):
        g_0, g_ell = (_bath_transform_mpmath(t, s, th) for t in (0, ell))
        cold = _bath_transform_mpmath(ell, s, 0)
        return float(2 * mpmath.re(g_0 - g_ell)), float(mpmath.im(cold) / 2)


def test_plateau_and_crossover_port_count():
    # At ell = 3: each bath's long-time chi against its 30-digit plateau; at
    # theta_T = 0 that is 2 Gamma(s-1) [1 - Re(1 - 3i)^(1-s)], 1.8 at s = 2 and
    # 2.16 at s = 3.  chi approaches it like tau^(-s-1) (at s = 1.5,
    # tau = 1e6 is 1.7e-9 off), so the kernel is read at tau = 1e12 and 1e50.
    plateaus = {(2.0, 0.0): 1.8, (3.0, 0.0): 2.16, (2.0, 0.1): 1.83154025, (2.0, 0.9): 4.51283669,
                (3.0, 0.1): 2.16727496, (3.0, 0.9): 3.88890614, (1.5, 0.9): 5.97513023,
                (4.5, 0.0): 6.68620029}
    s, th = (np.array(v) for v in zip(*plateaus))
    chis, phases = sb.decoherence_grid([1e12, 1e50], s, th, 3.0)
    for (bath, want), chi_row, phase_row in zip(plateaus.items(), chis, phases):
        chi, phase = _plateau(*bath, 3.0)
        assert chi == pytest.approx(want, abs=5e-9), bath
        assert (np.abs(chi_row / chi - 1.0) <= 4e-16).all(), bath
        assert (np.abs(phase_row / phase - 1.0) <= 1e-15).all(), bath
    # On the plateau (|gamma| = e^-chi, the noiseless measurement at theta =
    # the plateau's phase), the noise-adapted PGM beats the noiseless one
    # exactly at N = 2 .. N_c - 1: this is why criterion 12(d) fails at N = 9
    # on the theta_T = 0.9 baths.
    for bath, n_c in (((2.0, 0.1), 6), ((3.0, 0.1), 7), ((3.0, 0.9), 26), ((2.0, 0.9), 47)):
        chi, phase = _plateau(*bath, 3.0)
        wins = [n for n in range(2, 61) if pgm_fidelities_reduced(n, math.exp(-chi))
                > cf.noiseless_fidelity(n, math.exp(-chi), phase)]
        assert wins == list(range(2, n_c)), bath


def test_stacked_grid_matches_one_bath_calls():
    # Every bath of a mixed list against its own one-bath evaluation, entry by
    # entry: the stack must not mix baths' rows, separations or branches.
    # ell = 0 is zeroed after the kernel and theta_T = 0 contributes one
    # row; s = 2 has the alpha = 0 pole row; chi's step and centre, the
    # shorter and the longer of tau and ell, swap at tau = ell, which
    # 0.6999/0.7001 and 2.9999/3.0001 straddle.
    taus = [0.0, 0.6999, 0.7001, 2.9999, 3.0, 3.0001, 8.0, 40.0]
    baths = [params(s, th, ell) for s in (1.5, 2 - 1e-9, 2.0, 2 + 1e-9, 3.0, 100.0)
             for th in (0.0, 0.1, 0.9) for ell in (0.0, 0.7, 3.0)]
    chis, phases = sb.decoherence_grid(taus, *zip(*baths))
    assert chis.shape == phases.shape == (len(baths), len(taus))
    assert chis[:, 0].tolist() == phases[:, 0].tolist() == [0.0] * len(baths)
    for bath, chi_row, phase_row in zip(baths, chis.tolist(), phases.tolist()):
        if bath[2] == 0.0:
            assert chi_row == phase_row == [0.0] * len(taus)
        for got, wants in zip(zip(chi_row, phase_row), zip(*one_bath(taus, *bath))):
            for x, want in zip(got, wants):
                assert abs(x - want) <= 2e-15 * max(1.0, abs(want)), (bath, got)


def test_empty_grids_give_empty_tables():
    # no bath: an empty `_bath_terms` table and no row starts to sum over;
    # no tau: one bath row of no columns
    taus = [0.0, 0.5, 3.0]
    for got in sb.decoherence_grid(taus, [], [], 3.0):
        assert got.shape == (0, len(taus))
    for got in sb.decoherence_grid([], 2.0, 0.5, 3.0):
        assert got.shape == (1, 0)


# A bath (s, theta_T) and times tau, ell in [1e-2, 1e3], drawn alike on every run.
BATH = st.tuples(st.floats(1.05, 8.0), st.floats(0.0, 1.0))
TIME = st.floats(1e-2, 1e3)
PROPERTY = settings(max_examples=50)


@PROPERTY
@given(BATH, TIME, TIME)
def test_chi_is_symmetric_in_tau_and_ell(bath, tau, ell):
    # chi steps by min(tau, ell) about max(tau, ell), so a swap changes no bit
    assert (sb.decoherence_grid([tau], *bath, ell)[0].tolist()
            == sb.decoherence_grid([ell], *bath, tau)[0].tolist())


@PROPERTY
@given(BATH, st.lists(TIME, min_size=1, max_size=8), TIME)
def test_chi_is_nonnegative(bath, taus, ell):
    # chi = 2 int f(w) (1 - cos w tau)(1 - cos w ell) dw, f >= 0
    assert (sb.decoherence_grid(taus, *bath, ell)[0] >= 0.0).all()


@PROPERTY
@given(BATH, TIME)
def test_chi_and_phase_vanish_at_tau_or_ell_zero(bath, t):
    # rows ell = t and ell = 0, columns tau = 0 and tau = t
    chis, phases = sb.decoherence_grid([0.0, t], *bath, [t, 0.0])
    assert chis[:, 0].tolist() == phases[:, 0].tolist() == [0.0, 0.0]
    assert chis[1].tolist() == phases[1].tolist() == [0.0, 0.0]

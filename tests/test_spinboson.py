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


# every route that takes a bath, at tau = 1
BATH_ROUTES = (sb.check_bath,
               lambda s, th, ell: sb.decoherence_grid([1.0], s, th, ell),
               lambda s, th, ell: qd.chi_and_error(1.0, s, th, ell),
               lambda s, th, ell: qd.phase_and_error(1.0, s, th, ell))


def test_params_validation():
    # each route runs the one bath check, `check_bath`, with one message per field;
    # NaN and inf are rejected too: a NaN temperature once passed as a cold bath
    rules = (("ohmicity must be finite and exceed 1", (1.0, math.nan, math.inf)),
             ("temperature ratio must be finite and >= 0", (-0.1, math.nan, math.inf)),
             ("separation must be finite and >= 0", (-0.1, math.nan, math.inf)))
    for field, (rule, bads) in enumerate(rules):
        for bad, route in itertools.product(bads, BATH_ROUTES):
            bath = [2.0, 0.1, 3.0]
            bath[field] = bad
            with pytest.raises(ValueError, match=f"^{rule}, got {bad}$"):
                route(*bath)


def test_check_bath_names_the_first_bad_bath():
    # one entry per bath, broadcast; the first bad bath is named, and within it
    # the ohmicity before the temperature ratio before the separation; lists
    # (the CLI passes its baths as lists) and arrays give the same result
    s, th, ell = sb.check_bath([2.0, 3.0], [0.1, 0.9], 3.0)
    assert (s.tolist(), th.tolist(), ell.tolist()) == ([2.0, 3.0], [0.1, 0.9], [3.0, 3.0])
    assert np.array_equal(sb.check_bath(np.array([2.0, 3.0]), np.array([0.1, 0.9]), 3.0),
                          np.array([s, th, ell]))
    for bath, message in (
            (([2.0, 0.5], -1.0, 3.0), "temperature ratio must be finite and >= 0, got -1.0"),
            (([0.5, 2.0], [-1.0, -2.0], -3.0), "ohmicity must be finite and exceed 1, got 0.5"),
            ((2.0, [0.1, math.nan], [-1.0, 3.0]), "separation must be finite and >= 0, got -1.0")):
        for route, args in itertools.product(BATH_ROUTES[:2],  # the quadrature takes one bath
                                             (bath, [np.asarray(v) for v in bath])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                route(*args)


def test_chi_trivial_zeros():
    p = params()
    assert qd.chi_and_error(0.0, *p)[0] == 0.0
    assert qd.chi_and_error(5.0, *params(ell=0.0))[0] == 0.0
    assert qd.phase_and_error(0.0, *p)[0] == 0.0
    assert qd.phase_and_error(5.0, *params(ell=0.0))[0] == 0.0


def test_quadrature_reports_its_error_estimate():
    p = params()
    assert qd.chi_and_error(0.0, *p) == qd.phase_and_error(0.0, *p) == (0.0, 0.0)
    for _, err in (qd.chi_and_error(4.0, *p), qd.phase_and_error(4.0, *p)):
        assert 0.0 < err < 1e-9
    *_, estimate = checks.decoherence_routes((2.0,), (0.5,), (4.0,), 3.0, 1e-9)
    assert estimate.quantity.startswith("QUADPACK error estimate") and 0.0 < estimate.worst < 1e-9


def test_chi_nonnegative():
    assert all(g.ok for g in checks.spin_boson(*params(), (0.5, 1.0, 3.0, 8.0), (), 0.0, 0.0))


def test_chi_thermal_enhancement():
    hot = qd.chi_and_error(8.0, *params(th=0.9))[0]
    cold = qd.chi_and_error(8.0, *params(th=0.1))[0]
    assert hot > cold


def test_phase_temperature_independent():
    a = qd.phase_and_error(4.0, *params(th=0.1))[0]
    b = qd.phase_and_error(4.0, *params(th=0.9))[0]
    assert a == pytest.approx(b, abs=1e-12)


def test_phase_computed_once_for_all_temperatures():
    taus = [0.0, 1.0, 2.5]
    chis, phases = sb.decoherence_grid(taus, 2.0, [0.1, 0.9], 3.0)
    # one stacked evaluation for both baths; the phase is the same bit for bit
    cold, hot = phases.tolist()
    assert cold == hot == one_bath(taus, *params(th=0.9))[1]
    assert cold == pytest.approx([qd.phase_and_error(t, *params())[0] for t in taus], abs=1e-12)
    assert chis[0].tolist() != chis[1].tolist()


def test_phase_analytic_ohmicity_two():
    # for s = 2 the integrand reduces to elementary exponential-sine integrals:
    # theta = (1/2)[ell/(1+ell^2) - (ell+tau)/(2(1+(ell+tau)^2)) - (ell-tau)/(2(1+(ell-tau)^2))]
    tau, ell = 1.0, 3.0

    def lorentz(a):
        return a / (1.0 + a * a)

    want = 0.5 * (lorentz(ell) - 0.5 * lorentz(ell + tau) - 0.5 * lorentz(ell - tau))
    assert qd.phase_and_error(tau, *params())[0] == pytest.approx(want, abs=1e-10)
    assert one_bath([tau], *params())[1][0] == pytest.approx(want, abs=1e-13)


def test_zero_temperature_chi_analytic_ohmicity_two():
    # at theta_T = 0, coth -> 1 and chi reduces to exponential-cosine integrals:
    # chi = 2[c(0) - c(tau) - c(ell) + c(ell+tau)/2 + c(ell-tau)/2], c(a) = 1/(1+a^2)
    tau, ell = 2.0, 3.0

    def c(a):
        return 1.0 / (1.0 + a * a)

    want = 2.0 * (c(0) - c(tau) - c(ell) + 0.5 * c(ell + tau) + 0.5 * c(ell - tau))
    assert qd.chi_and_error(tau, *params(th=0.0))[0] == pytest.approx(want, abs=1e-9)
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
    wide = qd.QuadratureSettings(upper_cutoff=120.0)
    *_, shift = checks.spin_boson(*params(), (1.0, 4.0, 8.0), (wide,), 1e-12, 1e-8)
    assert shift.ok


def test_spin_boson_check_names_the_quadrature_settings():
    wide = qd.QuadratureSettings(upper_cutoff=120.0)
    *_, shift = checks.spin_boson(*params(), (4.0,), (wide,), 1e-12, 1e-8)
    assert shift.where == "tau=4 upper_cutoff=120 rel_tol=1e-10"


def test_negative_tau_rejected():
    # the fast route and its quadrature oracle share one tau check and message
    for bad in (-1.0, math.nan, math.inf):
        message = f"^tau must be finite and >= 0, got {bad}$"
        with pytest.raises(ValueError, match=message):
            sb.decoherence_grid([0.0, bad], *params())
        for route in (qd.chi_and_error, qd.phase_and_error):
            with pytest.raises(ValueError, match=message):
                route(bad, *params())


@pytest.mark.parametrize("s", [2.0, 4.5])
def test_quadrature_auto_cutoff(s):
    # upper_cutoff = 0 integrates up to 40 + 10 s
    explicit = qd.QuadratureSettings(upper_cutoff=40.0 + 10.0 * s)
    for route in (qd.chi_and_error, qd.phase_and_error):
        assert route(4.0, *params(s=s)) == route(4.0, *params(s=s), explicit)


def test_quadrature_overflow_is_value_error():
    # w ** (s - 2) leaves the float range on the second panel at s = 400
    for route in (qd.chi_and_error, qd.phase_and_error):
        with pytest.raises(ValueError, match=r"^quadrature gave a non-finite value on panel "
                                             r"\[3\.14153, 6\.28305\]$"):
            route(1.0, 400.0, 0.0, 1.0)


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
    # Measured worst for chi: 9.0e-13 (s = 1.001, theta_T = 5, tau = 3) and
    # 6.3e-14 (s = 1.01); at the large taus 4.5e-14 (s = 1.001, tau = 1e12).
    # As s -> 1 every row of G carries Gamma(s - 1) ~ 1/(s - 1), and chi is
    # their difference: at s = 1.001, theta_T = 5 it reaches 1.7e-12 between
    # the grid points (tau = 2.9).  The phase's worst is 4.7e-14 (s = 100),
    # where exponents of size ~350 cost the float route digits.
    taus = [1e-6, 1e-3, 0.2, 0.5, 3.0, 8.0, 40.0, 1e3]
    _assert_matches_mpmath(s, taus, (0.0, 0.1, 0.9, 5.0), 30)
    if s in LARGE_TAUS:
        _assert_matches_mpmath(s, LARGE_TAUS[s], (0.0, 0.9), 60)


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


# A bath (s, theta_T) and times tau, ell in [1e-2, 1e3], drawn alike on every run.
BATH = st.tuples(st.floats(1.05, 8.0), st.floats(0.0, 1.0))
TIME = st.floats(1e-2, 1e3)
PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None)


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

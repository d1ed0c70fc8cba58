import math

import numpy as np
import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab import spinboson as sb


def params(s=2.0, th=0.1, ell=3.0, **quad):
    q = sb.QuadratureSettings(**quad) if quad else sb.QuadratureSettings()
    return sb.SpinBosonParams(s, th, ell, q)


def test_params_validation():
    with pytest.raises(ValueError):
        sb.SpinBosonParams(1.0)
    with pytest.raises(ValueError):
        sb.SpinBosonParams(2.0, -0.1)
    with pytest.raises(ValueError):
        sb.SpinBosonParams(2.0, 0.1, -1.0)


def test_chi_trivial_zeros():
    p = params()
    assert sb.chi(0.0, p) == 0.0
    assert sb.chi(5.0, params(ell=0.0)) == 0.0
    assert sb.phase(0.0, p) == 0.0
    assert sb.phase(5.0, params(ell=0.0)) == 0.0


def test_chi_nonnegative():
    assert all(g.ok for g in checks.spin_boson(params(), (0.5, 1.0, 3.0, 8.0), (), 0.0, 0.0))


def test_chi_thermal_enhancement():
    hot = sb.chi(8.0, params(th=0.9))
    cold = sb.chi(8.0, params(th=0.1))
    assert hot > cold


def test_phase_temperature_independent():
    a = sb.phase(4.0, params(th=0.1))
    b = sb.phase(4.0, params(th=0.9))
    assert a == pytest.approx(b, abs=1e-12)


def test_phase_computed_once_for_all_temperatures(monkeypatch):
    calls = []
    phase = sb.phase

    def counting(tau, p):
        calls.append(tau)
        return phase(tau, p)

    monkeypatch.setattr(sb, "phase", counting)
    taus = [0.0, 1.0, 2.5]
    cold, hot = ([pts["closed_form"] for pts in curve] for curve in sb.fidelities_vs_time(
        3, [params(th=0.1), params(th=0.9)], taus, ["closed_form"]))
    assert calls == taus
    assert [p.phase for p in cold] == [p.phase for p in hot] == [
        phase(t, params(th=0.9)) for t in taus]
    assert [p.chi for p in cold] != [p.chi for p in hot]


def test_phase_analytic_ohmicity_two():
    # for s = 2 the integrand reduces to elementary exponential-sine integrals:
    # theta = (1/2)[ell/(1+ell^2) - (ell+tau)/(2(1+(ell+tau)^2)) - (ell-tau)/(2(1+(ell-tau)^2))]
    tau, ell = 1.0, 3.0

    def lorentz(a):
        return a / (1.0 + a * a)

    want = 0.5 * (lorentz(ell) - 0.5 * lorentz(ell + tau) - 0.5 * lorentz(ell - tau))
    assert sb.phase(tau, params()) == pytest.approx(want, abs=1e-10)


def test_zero_temperature_chi_analytic_ohmicity_two():
    # at theta_T = 0, coth -> 1 and chi reduces to exponential-cosine integrals:
    # chi = 2[c(0) - c(tau) - c(ell) + c(ell+tau)/2 + c(ell-tau)/2], c(a) = 1/(1+a^2)
    tau, ell = 2.0, 3.0

    def c(a):
        return 1.0 / (1.0 + a * a)

    want = 2.0 * (c(0) - c(tau) - c(ell) + 0.5 * c(ell + tau) + 0.5 * c(ell - tau))
    assert sb.chi(tau, params(th=0.0)) == pytest.approx(want, abs=1e-9)


def test_decoherence_factor_assembly():
    fac = sb.decoherence_factor(3.0, params())
    assert fac.gamma_abs == pytest.approx(math.exp(-fac.chi), abs=1e-12)
    dp = fac.as_params
    assert dp.gamma_abs == pytest.approx(fac.gamma_abs)
    assert 0.0 < fac.gamma_abs <= 1.0


def test_decoherence_factor_trivial():
    fac = sb.decoherence_factor(0.0, params())
    assert fac.gamma_abs == 1.0
    assert fac.phase == 0.0


def test_quadrature_cutoff_convergence():
    wide = sb.QuadratureSettings(upper_cutoff=120.0)
    *_, shift = checks.spin_boson(params(), (1.0, 4.0, 8.0), (wide,), 1e-12, 1e-8)
    assert shift.ok


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        sb.chi(-1.0, params())


def test_fidelity_vs_time_closed_form_identity():
    taus = [0.0, 1.0, 3.0]
    pts = sb.fidelity_vs_time(5, params(), taus, "closed_form")
    for pt in pts:
        dp = sb.decoherence_factor(pt.tau, params()).as_params
        assert pt.ent_fidelity == pytest.approx(
            cf.fidelity_noiseless_povm(5, dp), abs=0.0)
    assert pts[0].teleport_fidelity == pytest.approx(
        cf.teleport_fidelity(cf.f_ih(5)), abs=1e-12)


def test_fidelity_vs_time_validates_input():
    with pytest.raises(ValueError):
        sb.fidelity_vs_time(5, params(), [1.0, 0.5], "closed_form")
    with pytest.raises(ValueError):
        sb.fidelity_vs_time(5, params(), [0.0], "bogus")


def test_noise_adapted_curve_below_closed_form():
    # holds outside the strong-decoherence crossover region at moderate N
    taus = [0.25, 1.0]
    closed = sb.fidelity_vs_time(5, params(), taus, "closed_form")
    adapted = sb.fidelity_vs_time(5, params(), taus, "noise_adapted")
    for c, a in zip(closed, adapted):
        assert a.teleport_fidelity <= c.teleport_fidelity + 1e-9

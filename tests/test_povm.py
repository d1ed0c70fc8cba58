import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import NOISELESS, DephasingParams
from pbtlab.linops import LinopsError
from pbtlab.povm import (
    SignalEnsemble,
    ent_fidelity,
    noiseless_povm,
    pgm,
    pgm_taylor,
    validate,
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_noiseless_povm_is_valid(n):
    ens = SignalEnsemble(n, NOISELESS)
    rep = validate(noiseless_povm(n), ens)
    assert min(*rep.min_eigenvalues, rep.defect_min_eigenvalue) >= -1e-10
    assert rep.completeness_residual <= 1e-8
    assert max(map(abs, rep.defect_support_overlaps)) < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_noise_adapted_povm_is_valid(gamma):
    assert all(g.ok for g in checks.povm_validity((3,), (gamma,), 0.5, 1e-8, 1e-10, 1e-9))


def test_overcomplete_povm_shows_a_negative_defect_eigenvalue():
    # I - 1.1 sum_i Pi_i has eigenvalue 1 - 1.1 = -0.1 on the support
    ens = SignalEnsemble(3, DephasingParams(0.3, 0.4))
    rep = validate(1.1 * pgm(ens), ens)
    assert rep.defect_min_eigenvalue == pytest.approx(-0.1, abs=1e-12)


def test_pgm_elements_sum_to_identity_on_support():
    # the elements plus the defect `validate` builds from them
    ens = SignalEnsemble(3, NOISELESS)
    assert validate(pgm(ens), ens).completeness_residual <= 1e-12


def test_defect_gives_zero_fidelity_contribution():
    ens = SignalEnsemble(3, NOISELESS)
    assert max(map(abs, validate(pgm(ens), ens).defect_support_overlaps)) < 1e-12


def test_pgm_rejects_non_psd_state():
    # every signal state is the Bell block on (A_i, B) times the maximally
    # mixed state of the other ports, so one check on the block covers them all
    bad = DephasingParams(1.0, 0.0)
    object.__setattr__(bad, "gamma_abs", 1.5)  # Bell block eigenvalue -1/4
    with pytest.raises(LinopsError, match="Bell block is not PSD"):
        pgm(SignalEnsemble(2, bad))


def test_rotated_povm_matches_unrotated_closed_form():
    # The phase-corrected noiseless measurement: the PGM of the noiseless
    # ensemble at phase theta is the noiseless POVM rotated by theta on B, so
    # on the ensemble at (|gamma|, theta) it scores the closed form at
    # (|gamma|, 0).  Measured at most 6.7e-16 for N = 2..4.
    th = 1.1
    for n in (2, 3, 4):
        pov = pgm(SignalEnsemble(n, DephasingParams(1.0, th)))
        got = ent_fidelity(pov, SignalEnsemble(n, DephasingParams(0.7, th)))
        want = cf.noiseless_fidelity(n, 0.7)
        assert got == pytest.approx(want, abs=1e-9)


def test_taylor_pgm_converges_to_eigensolver():
    ens = SignalEnsemble(2, DephasingParams(0.5, 0.0))
    f_eig = ent_fidelity(pgm(ens), ens)
    gaps = [abs(ent_fidelity(pgm_taylor(ens, order), ens) - f_eig)
            for order in (10, 100, 1000)]
    assert gaps[-1] < 1e-8
    assert gaps[-1] <= gaps[0]


def test_taylor_rejects_bad_order():
    ens = SignalEnsemble(2, NOISELESS)
    with pytest.raises(ValueError):
        pgm_taylor(ens, 0)

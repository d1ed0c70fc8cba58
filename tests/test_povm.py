import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import DephasingParams, SignalEnsemble
from pbtlab.fidelity import ent_fidelity
from pbtlab.linops import LinopsError
from pbtlab.povm import (
    noiseless_povm,
    pgm,
    pgm_taylor,
    rotated_noiseless_povm,
    validate,
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_noiseless_povm_is_valid(n):
    ens = SignalEnsemble.noiseless(n)
    rep = validate(noiseless_povm(n), ens)
    assert min(*rep.min_eigenvalues, rep.defect_min_eigenvalue) >= -1e-10
    assert rep.completeness_residual <= 1e-8
    assert max(map(abs, rep.defect_support_overlaps)) < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_noise_adapted_povm_is_valid(gamma):
    assert all(g.ok for g in checks.povm_validity((3,), (gamma,), 0.5, 1e-8, 1e-10, 1e-9))


def test_pgm_elements_sum_to_identity_on_support():
    # the elements plus the defect `validate` builds from them
    ens = SignalEnsemble.noiseless(3)
    assert validate(pgm(ens), ens).completeness_residual <= 1e-12


def test_defect_gives_zero_fidelity_contribution():
    ens = SignalEnsemble.noiseless(3)
    assert max(map(abs, validate(pgm(ens), ens).defect_support_overlaps)) < 1e-12


def test_pgm_rejects_non_psd_state():
    # every signal state is the Bell block on (A_i, B) times the maximally
    # mixed state of the other ports, so one check on the block covers them all
    bad = DephasingParams(1.0, 0.0)
    object.__setattr__(bad, "gamma_abs", 1.5)  # Bell block eigenvalue -1/4
    with pytest.raises(LinopsError, match="Bell block is not PSD"):
        pgm(SignalEnsemble.build(2, bad))


def test_rotated_povm_matches_unrotated_closed_form():
    th = 1.1
    for n in (2, 3):
        pov = rotated_noiseless_povm(n, th)
        ens = SignalEnsemble.build(n, DephasingParams(0.7, th))
        got = ent_fidelity(pov, ens).ent_fidelity
        want = cf.fidelity_noiseless_povm(n, DephasingParams(0.7, 0.0))
        assert got == pytest.approx(want, abs=1e-9)


def test_taylor_pgm_converges_to_eigensolver():
    ens = SignalEnsemble.build(2, DephasingParams(0.5, 0.0))
    f_eig = ent_fidelity(pgm(ens), ens).ent_fidelity
    gaps = [abs(ent_fidelity(pgm_taylor(ens, order), ens).ent_fidelity - f_eig)
            for order in (10, 100, 1000)]
    assert gaps[-1] < 1e-8
    assert gaps[-1] <= gaps[0]


def test_taylor_rejects_bad_order():
    ens = SignalEnsemble.noiseless(2)
    with pytest.raises(ValueError):
        pgm_taylor(ens, 0)


def test_noiseless_fidelity_equals_closed_form():
    for n in (2, 3, 4):
        ens = SignalEnsemble.noiseless(n)
        f = ent_fidelity(noiseless_povm(n), ens).ent_fidelity
        assert f == pytest.approx(cf.f_ih(n), abs=1e-10)

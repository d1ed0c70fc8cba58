import numpy as np
import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import signal_states
from pbtlab.povm import _real_trace, ent_fidelity, pgm, pgm_taylor, validate


@pytest.mark.parametrize("n", [2, 3, 4])
def test_noiseless_povm_is_valid(n):
    states = signal_states(n, 1.0)
    smallest, residual, overlap = validate(pgm(states), states)
    assert smallest >= -1e-10
    assert residual <= 1e-8
    assert overlap < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_noise_adapted_povm_is_valid(gamma):
    assert all(g.ok for g in checks.povm_validity((3,), (gamma,), 0.5, 1e-8, 1e-10, 1e-9))


def test_overcomplete_povm_shows_a_negative_defect_eigenvalue():
    # I - 1.1 sum_i Pi_i has eigenvalue 1 - 1.1 = -0.1 on the support
    states = signal_states(3, 0.3, 0.4)
    assert validate(1.1 * pgm(states), states)[0] == pytest.approx(-0.1, abs=1e-12)


def test_pgm_elements_sum_to_identity_on_support():
    # the elements plus the defect `validate` builds from them
    states = signal_states(3, 1.0)
    assert validate(pgm(states), states)[1] <= 1e-12


def test_defect_gives_zero_fidelity_contribution():
    states = signal_states(3, 1.0)
    assert validate(pgm(states), states)[2] < 1e-12


def test_pgm_rejects_non_psd_state():
    # |gamma| = 1.5 would give the Bell block the eigenvalue -1/4; every signal
    # state is that block on (A_i, B) times the maximally mixed state of the
    # other ports, so the |gamma| check on the block covers them all
    with pytest.raises(ValueError, match=r"^gamma_abs must lie in \[0, 1\], got 1.5$"):
        pgm(signal_states(2, 1.5))


def test_rotated_povm_matches_unrotated_closed_form():
    # The phase-corrected noiseless measurement: the PGM of the noiseless
    # ensemble at phase theta is the noiseless POVM rotated by theta on B, so
    # on the ensemble at (|gamma|, theta) it scores the closed form at
    # (|gamma|, 0).  Measured at most 6.7e-16 for N = 2..4.
    th = 1.1
    for n in (2, 3, 4):
        got = ent_fidelity(pgm(signal_states(n, 1.0, th)), signal_states(n, 0.7, th))
        want = cf.noiseless_fidelity(n, 0.7)
        assert got == pytest.approx(want, abs=1e-9)


def test_trace_with_imaginary_residue_rejected():
    with pytest.raises(ValueError, match=r"^trace has imaginary residue 1\.000e-06$"):
        _real_trace(np.array([1 + 1e-6j]))


def test_taylor_pgm_converges_to_eigensolver():
    states = signal_states(2, 0.5, 0.0)
    f_eig = ent_fidelity(pgm(states), states)
    gaps = [abs(ent_fidelity(pgm_taylor(states, order), states) - f_eig)
            for order in (10, 100, 1000)]
    assert gaps[-1] < 1e-8
    assert gaps[-1] <= gaps[0]


def test_taylor_rejects_bad_order():
    with pytest.raises(ValueError):
        pgm_taylor(signal_states(2, 1.0), 0)

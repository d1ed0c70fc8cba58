import math

import numpy as np
import pytest

from pbtlab import checks
from pbtlab.ensemble import (
    NOISELESS,
    P_MINUS,
    P_PLUS,
    DephasingParams,
    SignalEnsemble,
    decohered_bell,
    ensemble_average,
    phase_rotation,
    rotate_b,
    signal_state,
)
from pbtlab.linops import LinopsError, partial_trace


def test_bell_projectors_orthonormal():
    assert P_MINUS.trace() == pytest.approx(1.0)
    assert P_PLUS.trace() == pytest.approx(1.0)
    assert np.allclose(P_MINUS.matrix @ P_PLUS.matrix, 0.0)


def test_dephasing_params_range():
    with pytest.raises(ValueError):
        DephasingParams(1.5)
    p = DephasingParams(0.5, math.pi / 3)
    assert p.gamma == pytest.approx(0.5 * np.exp(1j * math.pi / 3))


def test_decohered_bell_noiseless_is_singlet():
    assert np.allclose(decohered_bell(NOISELESS).matrix, P_MINUS.matrix)


def test_decohered_bell_zero_gamma():
    rho = decohered_bell(DephasingParams(0.0, 0.0)).matrix
    assert np.allclose(rho, 0.5 * (P_MINUS.matrix + P_PLUS.matrix))


def test_decohered_bell_is_state():
    rho = decohered_bell(DephasingParams(0.7, 1.2))
    assert rho.trace() == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12


def test_decohered_bell_phase_is_rotation():
    g, th = 0.6, 0.9
    mix = decohered_bell(DephasingParams(g, 0.0)).matrix
    r = np.kron(np.eye(2), phase_rotation(th))
    assert np.allclose(r @ mix @ r.conj().T,
                       decohered_bell(DephasingParams(g, th)).matrix)


def test_signal_state_reduces_to_bell_block():
    st = signal_state("sigma", 2, 3)
    # qubits: (A1, A2, A3, B); keep (A2, B)
    block = partial_trace(st, [1, 3])
    assert np.allclose(block.matrix, P_MINUS.matrix, atol=1e-12)
    rest = partial_trace(st, [0, 2])
    assert np.allclose(rest.matrix, np.eye(4) / 4, atol=1e-12)


def test_signal_state_trace_one():
    for kind in ("sigma", "omega", "eta"):
        st = signal_state(kind, 1, 3, DephasingParams(0.4, 0.2))
        assert st.trace() == pytest.approx(1.0)


def test_signal_state_bad_port():
    with pytest.raises(LinopsError):
        signal_state("sigma", 4, 3)


def test_signal_state_unknown_kind():
    with pytest.raises(ValueError):
        signal_state("tau", 1, 3)


def test_eta_requires_params():
    with pytest.raises(ValueError):
        signal_state("eta", 1, 2)


def test_rotate_b_inverse():
    st = signal_state("sigma", 1, 2)
    back = rotate_b(rotate_b(st, 0.7), -0.7)
    assert np.allclose(back.matrix, st.matrix)


def test_ensemble_average_normalization():
    ens = SignalEnsemble.noiseless(3)
    avg = ensemble_average(ens.states, normalized=True)
    assert avg.trace() == pytest.approx(1.0)
    assert np.allclose(ens.average_unnormalized.matrix, 3 * avg.matrix)


def test_ensemble_permutation_symmetry():
    ens = SignalEnsemble.build(3, DephasingParams(0.5, 0.3))
    purities = [np.trace(s.matrix @ s.matrix).real for s in ens.states]
    assert np.allclose(purities, purities[0])


def test_pairwise_state_fidelity_half():
    assert checks.pairwise_fidelity_half((3,), (0.5,), (0.4,), 1e-9).ok

import numpy as np
import pytest

from pbtlab.linops import (
    inv_sqrt_on_support,
    sqrt_psd,
    state_fidelity,
    trace_norm,
)

rng = np.random.default_rng(7)


def random_density(n_qubits):
    d = 2 ** n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_eigensolver_routes_reject_non_hermitian():
    # eigh/eigvalsh read one triangle only, so each caller checks the whole matrix
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        sqrt_psd(m)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        trace_norm(m)


def test_inv_sqrt_on_support_rank_deficient():
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(inv_sqrt_on_support(p), p)


def test_sqrt_psd_squares_back():
    rho = random_density(2)
    r = sqrt_psd(rho)
    assert np.allclose(r @ r, rho, atol=1e-12)


def test_func_on_support_rejects_negative():
    with pytest.raises(ValueError, match=r"^operator is not PSD: min eigenvalue -5\.000e-01$"):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([0.5, -1.5])) == pytest.approx(2.0)


def test_state_fidelity_pure_states():
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    assert state_fidelity(np.outer(v, v), np.outer(w, w)) == pytest.approx(abs(v @ w), abs=1e-12)


def test_state_fidelity_identical_state():
    rho = random_density(2)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

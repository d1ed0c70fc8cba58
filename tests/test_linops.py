import numpy as np
import pytest

from pbtlab.linops import (
    HermitianOp,
    LinopsError,
    eig_hermitian,
    inv_sqrt_on_support,
    permute_qubits,
    sqrt_psd,
    state_fidelity,
    trace_norm,
)

rng = np.random.default_rng(7)


def random_hermitian(n_qubits):
    d = 2 ** n_qubits
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianOp(m + m.conj().T, n_qubits)


def random_density(n_qubits):
    d = 2 ** n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return HermitianOp(m / np.trace(m).real, n_qubits)


def test_hermitian_op_rejects_bad_shape():
    with pytest.raises(LinopsError):
        HermitianOp(np.eye(3), 2)


def test_hermitian_op_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(LinopsError):
        HermitianOp(m, 1)


def test_tensor_ordering():
    z, i = np.diag([1.0, -1.0]), np.eye(2)
    # qubit 0 (the left Kronecker factor) is most significant
    assert np.allclose(np.diag(np.kron(z, i)), [1, 1, -1, -1])
    assert np.allclose(np.diag(permute_qubits(np.kron(z, i), [1, 0])), [1, -1, 1, -1])


def test_permute_qubits_swap():
    a = random_hermitian(1).matrix
    b = random_hermitian(1).matrix
    assert np.allclose(permute_qubits(np.kron(a, b), [1, 0]), np.kron(b, a))
    with pytest.raises(LinopsError):
        permute_qubits(np.kron(a, b), [0, 0])


def test_permute_qubits_roundtrip():
    op = random_hermitian(3).matrix
    perm = [2, 0, 1]
    inv = [perm.index(k) for k in range(3)]
    back = permute_qubits(permute_qubits(op, perm), inv)
    assert np.allclose(back, op)


def test_eig_hermitian_reconstruction():
    op = random_hermitian(2)
    dec = eig_hermitian(op)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
    v = dec.eigenvectors
    assert np.allclose((v * dec.eigenvalues) @ v.conj().T, op.matrix)


def test_inv_sqrt_on_support_rank_deficient():
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    op = HermitianOp(p, 2)
    inv = inv_sqrt_on_support(op)
    assert np.allclose(inv.matrix, p)


def test_sqrt_psd_squares_back():
    op = random_density(2)
    r = sqrt_psd(op)
    assert np.allclose(r.matrix @ r.matrix, op.matrix, atol=1e-12)


def test_func_on_support_rejects_negative():
    op = HermitianOp(np.diag([1.0, -0.5]), 1)
    with pytest.raises(LinopsError):
        sqrt_psd(op)


def test_trace_norm_diagonal():
    op = HermitianOp(np.diag([0.5, -1.5]), 1)
    assert trace_norm(op) == pytest.approx(2.0)


def test_state_fidelity_pure_states():
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    a = HermitianOp(np.outer(v, v), 1)
    b = HermitianOp(np.outer(w, w), 1)
    assert state_fidelity(a, b) == pytest.approx(abs(v @ w), abs=1e-12)


def test_state_fidelity_identical_state():
    rho = random_density(2)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

import numpy as np
import pytest

from pbtlab import checks
from pbtlab.ensemble import P_MINUS, P_PLUS, _embed_pair_block, decohered_bell, signal_states


def partial_trace(op: np.ndarray, keep) -> np.ndarray:
    """Trace out all qubits not listed in `keep` (kept qubits keep their order)."""
    q = int(np.log2(len(op)))
    keep = sorted(set(keep))
    traced = [k for k in range(q) if k not in keep]
    t = op.reshape((2,) * (2 * q))
    for offset, k in enumerate(traced):
        ax = k - offset
        nq = q - offset
        t = np.trace(t, axis1=ax, axis2=ax + nq)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def test_partial_trace_product_state():
    a = np.array([[0.3, 0.2j], [-0.2j, 0.7]])
    b = decohered_bell(0.7, 1.2)
    ab = np.kron(a, b)
    assert np.allclose(partial_trace(ab, [0]), a)
    assert np.allclose(partial_trace(ab, [1, 2]), b)


def test_partial_trace_preserves_trace():
    op = signal_states(2, 0.7, 1.2)[0]
    assert np.trace(partial_trace(op, [1])).real == pytest.approx(1.0)


def test_bell_projectors_orthonormal():
    assert np.trace(P_MINUS).real == pytest.approx(1.0)
    assert np.trace(P_PLUS).real == pytest.approx(1.0)
    assert np.allclose(P_MINUS @ P_PLUS, 0.0)


def test_dephasing_params_range():
    # |gamma| through the fast path's check_gamma_abs; theta must be finite
    for gamma_abs, theta in ((-0.1, 0.0), (0.5, float("nan")), (0.5, float("inf"))):
        with pytest.raises(ValueError):
            signal_states(2, gamma_abs, theta)


def test_decohered_bell_noiseless_is_singlet():
    assert np.allclose(decohered_bell(1.0), P_MINUS)


def test_decohered_bell_zero_gamma():
    rho = decohered_bell(0.0, 0.0)
    assert np.allclose(rho, 0.5 * (P_MINUS + P_PLUS))


def test_decohered_bell_is_state():
    rho = decohered_bell(0.7, 1.2)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_decohered_bell_phase_is_rotation():
    # The reduced PGM route rests on both facts: the phase is a unitary on B,
    # and 4 rho on span{|01>, |10>} is [[2, -2 gamma], [-2 gamma*, 2]], so
    # only |gamma|^2 enters its blocks.
    for g in (0.0, 0.3, 0.6, 1.0):
        mix = decohered_bell(g, 0.0)
        for th in (-3.0, 0.0, 0.9, 1.3, 3.0):
            block = decohered_bell(g, th)
            r = np.kron(np.eye(2), np.diag([np.exp(-1j * th), 1.0]))  # diag(e^{-i theta}, 1) on B
            assert np.allclose(r @ mix @ r.conj().T, block)
            gamma = g * np.exp(1j * th)
            corner = np.array([[2.0, -2.0 * gamma], [-2.0 * np.conj(gamma), 2.0]])
            assert np.allclose(4.0 * block[1:3, 1:3], corner, rtol=0.0, atol=1e-15)


def test_signal_state_reduces_to_bell_block():
    st = signal_states(3, 1.0)[1]
    # qubits: (A1, A2, A3, B); keep (A2, B)
    assert np.allclose(partial_trace(st, [1, 3]), P_MINUS, atol=1e-12)
    assert np.allclose(partial_trace(st, [0, 2]), np.eye(4) / 4, atol=1e-12)


def test_signal_state_trace_one():
    # real at theta = 0, for the ~4x cheaper real eigh downstream
    cases = (((1.0,), np.float64), ((0.4, 1.3), np.complex128), ((0.6, 0.0), np.float64))
    for params, dtype in cases:
        states = signal_states(3, *params)
        assert states.dtype == dtype
        for st in states:
            assert np.trace(st).real == pytest.approx(1.0)


def test_tensor_ordering():
    z, i = np.diag([1.0, -1.0]), np.eye(2)
    # qubit 0 (the left Kronecker factor) is most significant
    assert np.allclose(np.diag(np.kron(z, i)), [1, 1, -1, -1])
    # a block on (A_i, B) of the register (A_1, A_2, B), maximally mixed on the other port
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    block = a @ a.conj().T
    assert np.allclose(_embed_pair_block(block, 2, 2), np.kron(i / 2, block))
    p = np.kron(i, np.eye(4)[[0, 2, 1, 3]])  # swaps A_2 and B
    assert np.allclose(_embed_pair_block(block, 1, 2), p @ np.kron(block, i / 2) @ p)


def test_signal_state_bad_port():
    for port in (0, 4):
        with pytest.raises(ValueError, match=rf"^port index {port} out of range 1\.\.3$"):
            _embed_pair_block(P_MINUS, port, 3)


def test_ensemble_average_normalization():
    # the unnormalized average S = sum_i eta_i that the PGM inverts
    assert np.trace(signal_states(3, 1.0).sum(axis=0)) == pytest.approx(3.0)


def test_ensemble_permutation_symmetry():
    purities = [np.trace(s @ s).real for s in signal_states(3, 0.5, 0.3)]
    assert np.allclose(purities, purities[0])


def test_pairwise_state_fidelity_half():
    assert checks.pairwise_fidelity_half((3,), (0.5,), (0.4,), 1e-9).ok

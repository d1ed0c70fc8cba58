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
    _embed_pair_block,
    decohered_bell,
    phase_rotation,
    rotate_b,
)
from pbtlab.linops import HermitianOp, LinopsError


def partial_trace(op: HermitianOp, keep) -> HermitianOp:
    """Trace out all qubits not listed in `keep` (kept qubits keep their order)."""
    q = op.n_qubits
    keep = sorted(set(keep))
    traced = [k for k in range(q) if k not in keep]
    t = op.matrix.reshape((2,) * (2 * q))
    for offset, k in enumerate(traced):
        ax = k - offset
        nq = q - offset
        t = np.trace(t, axis1=ax, axis2=ax + nq)
    d = 2 ** len(keep)
    return HermitianOp(t.reshape(d, d), len(keep))


def test_partial_trace_product_state():
    a = np.array([[0.3, 0.2j], [-0.2j, 0.7]])
    b = decohered_bell(DephasingParams(0.7, 1.2)).matrix
    ab = HermitianOp(np.kron(a, b), 3)
    assert np.allclose(partial_trace(ab, [0]).matrix, a)
    assert np.allclose(partial_trace(ab, [1, 2]).matrix, b)


def test_partial_trace_preserves_trace():
    op = SignalEnsemble.build(2, DephasingParams(0.7, 1.2)).states[0]
    assert partial_trace(op, [1]).trace() == pytest.approx(1.0)


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
    st = SignalEnsemble.noiseless(3).states[1]
    # qubits: (A1, A2, A3, B); keep (A2, B)
    block = partial_trace(st, [1, 3])
    assert np.allclose(block.matrix, P_MINUS.matrix, atol=1e-12)
    rest = partial_trace(st, [0, 2])
    assert np.allclose(rest.matrix, np.eye(4) / 4, atol=1e-12)


def test_signal_state_trace_one():
    for params in (NOISELESS, DephasingParams(0.4, 0.2), DephasingParams(0.0)):
        for st in SignalEnsemble(3, params).states:
            assert st.trace() == pytest.approx(1.0)


def test_signal_state_bad_port():
    for port in (0, 4):
        with pytest.raises(LinopsError):
            _embed_pair_block(P_MINUS.matrix, port, 3)


def test_rotate_b_inverse():
    st = SignalEnsemble.noiseless(2).states[0]
    back = rotate_b(rotate_b(st, 0.7), -0.7)
    assert np.allclose(back.matrix, st.matrix)


def test_ensemble_average_normalization():
    ens = SignalEnsemble.noiseless(3)
    assert ens.average_unnormalized.trace() == pytest.approx(3.0)
    assert np.allclose(ens.average_unnormalized.matrix, sum(s.matrix for s in ens.states))


def test_ensemble_equality_is_by_parameters():
    a = SignalEnsemble.build(2, DephasingParams(0.5, 0.3))
    assert a == SignalEnsemble(2, DephasingParams(0.5, 0.3))
    assert a != SignalEnsemble.noiseless(2)
    assert len({a, SignalEnsemble.build(2, DephasingParams(0.5, 0.3))}) == 1


def test_ensemble_permutation_symmetry():
    ens = SignalEnsemble.build(3, DephasingParams(0.5, 0.3))
    purities = [np.trace(s.matrix @ s.matrix).real for s in ens.states]
    assert np.allclose(purities, purities[0])


def test_pairwise_state_fidelity_half():
    assert checks.pairwise_fidelity_half((3,), (0.5,), (0.4,), 1e-9).ok

"""The signal states of the dense oracle, on plain ndarrays.

States live on the register (A_1, ..., A_N, B): port qubits first (most
significant), Bob's qubit B last.  Bell conventions: |psi-> = (|01> - |10>)/sqrt(2),
|psi+> = (|01> + |10>)/sqrt(2), with sigma_z |0> = +|0>.

`signal_states(n, gamma_abs, theta)` stacks the N signal states, d = 2^(N+1):
state i is the dephased Bell block (`decohered_bell`) on (A_i, B) times the
maximally mixed state of the other ports.  It takes the fast path's plain
|gamma| and theta, and checks them and N with the same `closedform.check_gamma_abs`,
`closedform.check_theta` and `closedform.check_n`.
"""

from __future__ import annotations

import math

import numpy as np

from .closedform import check_gamma_abs, check_n, check_theta

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)

P_MINUS = np.outer(PSI_MINUS, PSI_MINUS.conj())
P_PLUS = np.outer(PSI_PLUS, PSI_PLUS.conj())
# the anti-Hermitian Bell cross operator |psi+><psi-| - |psi-><psi+|
BELL_CROSS = np.outer(PSI_PLUS, PSI_MINUS.conj()) - np.outer(PSI_MINUS, PSI_PLUS.conj())


def decohered_bell(gamma_abs: float, theta: float = 0.0) -> np.ndarray:
    """Two-qubit singlet after dephasing with factor gamma = |gamma| e^{i theta}.

    Raises ValueError for a |gamma| outside [0, 1] or a non-finite theta.
    The block is Hermitian by construction, with eigenvalues 0, 0 and
    (1 +- |gamma|)/2, so it is a state once those checks pass.
    """
    check_gamma_abs(gamma_abs)
    check_theta(theta)
    g, th = gamma_abs, theta
    return (0.5 * (1.0 + g * np.cos(th)) * P_MINUS + 0.5 * (1.0 - g * np.cos(th)) * P_PLUS
            + 0.5j * g * np.sin(th) * BELL_CROSS)


def _embed_pair_block(block: np.ndarray, i: int, n_ports: int) -> np.ndarray:
    """Place a two-qubit block on (A_i, B), maximally mixed on the other ports."""
    if not 1 <= i <= n_ports:
        raise ValueError(f"port index {i} out of range 1..{n_ports}")
    # row and column index: (A_1..A_(i-1), A_i, A_(i+1)..A_N, B)
    before, after = 2 ** (i - 1), 2 ** (n_ports - i)
    m = np.zeros((before, 2, after, 2) * 2, dtype=block.dtype)
    # einsum's view of the entries diagonal in the other ports, written in place
    np.einsum("paqbpcqd->pqabcd", m)[...] = block.reshape(2, 2, 2, 2) / 2 ** (n_ports - 1)
    return m.reshape(2 ** (n_ports + 1), 2 ** (n_ports + 1))


def signal_states(n: int, gamma_abs: float, theta: float = 0.0) -> np.ndarray:
    """The N signal states on N+1 qubits, stacked (N, d, d), state i for port i.

    Real where the Bell block is (theta = 0), for a ~4x cheaper `eigh` and
    products downstream; complex otherwise.
    """
    check_n(n)
    block = decohered_bell(gamma_abs, theta)
    if not block.imag.any():
        block = block.real
    return np.stack([_embed_pair_block(block, i, n) for i in range(1, n + 1)])

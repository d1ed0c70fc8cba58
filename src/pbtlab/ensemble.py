"""Signal-state ensembles for port-based teleportation under dephasing.

States live on the register (A_1, ..., A_N, B): port qubits first (most
significant), Bob's qubit B last.  Bell conventions: |psi-> = (|01> - |10>)/sqrt(2),
|psi+> = (|01> + |10>)/sqrt(2), with sigma_z |0> = +|0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linops import HermitianOp, LinopsError, permute_qubits

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)

P_MINUS = HermitianOp(np.outer(PSI_MINUS, PSI_MINUS.conj()), 2)
P_PLUS = HermitianOp(np.outer(PSI_PLUS, PSI_PLUS.conj()), 2)


@dataclass(frozen=True)
class DephasingParams:
    """Polar form of the dephasing factor: magnitude in [0, 1] and phase."""

    gamma_abs: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma_abs <= 1.0 + 1e-12:
            raise ValueError(f"gamma_abs must lie in [0, 1], got {self.gamma_abs}")

    @property
    def gamma(self) -> complex:
        return self.gamma_abs * np.exp(1j * self.theta)


NOISELESS = DephasingParams(1.0, 0.0)


def phase_rotation(theta: float) -> np.ndarray:
    """Single-qubit relative phase rotation diag(e^{-i theta}, 1)."""
    return np.diag([np.exp(-1j * theta), 1.0]).astype(complex)


def _bell_matrices(gamma_abs, theta) -> np.ndarray:
    """The matrices of `decohered_bell` for arrays of |gamma| and theta, stacked on axis 0."""
    g = np.asarray(gamma_abs, dtype=float)[:, None, None]
    th = np.asarray(theta, dtype=float)[:, None, None]
    pm = np.outer(PSI_MINUS, PSI_MINUS.conj())
    pp = np.outer(PSI_PLUS, PSI_PLUS.conj())
    cross = np.outer(PSI_PLUS, PSI_MINUS.conj()) - np.outer(PSI_MINUS, PSI_PLUS.conj())
    return (
        0.5 * (1.0 + g * np.cos(th)) * pm
        + 0.5 * (1.0 - g * np.cos(th)) * pp
        + 0.5j * g * np.sin(th) * cross
    )


def decohered_bell(params: DephasingParams) -> HermitianOp:
    """Two-qubit singlet after dephasing with factor gamma = |gamma| e^{i theta}."""
    return HermitianOp(_bell_matrices([params.gamma_abs], [params.theta])[0], 2)


def _embed_pair_block(block: np.ndarray, i: int, n_ports: int) -> HermitianOp:
    """Place a two-qubit block on (A_i, B), maximally mixed on the other ports."""
    if not 1 <= i <= n_ports:
        raise LinopsError(f"port index {i} out of range 1..{n_ports}")
    n_rest = n_ports - 1
    m = np.kron(block, np.eye(2 ** n_rest)) / 2 ** n_rest
    op = HermitianOp(m, n_ports + 1)
    # current layout: (A_i, B, remaining ports in ascending order)
    others = [j for j in range(n_ports) if j != i - 1]
    labels = [i - 1, n_ports] + others  # target position of each current qubit
    perm = [labels.index(t) for t in range(n_ports + 1)]
    return permute_qubits(op, perm)


def signal_state(kind: str, i: int, n_ports: int, params: DephasingParams | None = None) -> HermitianOp:
    """Signal state on N+1 qubits with the Bell block sitting on (A_i, B).

    kind "sigma" uses the singlet projector, "omega" the triplet |psi+>
    projector, and "eta" the dephased singlet for the given parameters.
    """
    if kind == "sigma":
        block = P_MINUS.matrix
    elif kind == "omega":
        block = P_PLUS.matrix
    elif kind == "eta":
        if params is None:
            raise ValueError("kind 'eta' requires dephasing parameters")
        block = decohered_bell(params).matrix
    else:
        raise ValueError(f"unknown signal state kind {kind!r}")
    return _embed_pair_block(block, i, n_ports)


def rotate_b(op: HermitianOp, theta: float) -> HermitianOp:
    """Conjugate by the phase rotation acting on qubit B (the last qubit)."""
    r = np.kron(np.eye(op.dim // 2), phase_rotation(theta))
    return HermitianOp(r @ op.matrix @ r.conj().T, op.n_qubits)


def ensemble_average(states: Sequence[HermitianOp], normalized: bool = False) -> HermitianOp:
    """Sum of the states, optionally divided by their number."""
    if len(states) == 0:
        raise LinopsError("cannot average an empty ensemble")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise LinopsError("ensemble states have mismatched dimensions")
    total = sum(s.matrix for s in states)
    if normalized:
        total = total / len(states)
    return HermitianOp(total, states[0].n_qubits)


@dataclass(frozen=True)
class SignalEnsemble:
    """The N signal states on N+1 qubits plus their unnormalized average."""

    n_ports: int
    params: DephasingParams
    states: tuple
    average_unnormalized: HermitianOp = field(repr=False)

    @classmethod
    def build(cls, n_ports: int, params: DephasingParams, kind: str = "eta") -> "SignalEnsemble":
        states = tuple(signal_state(kind, i, n_ports, params) for i in range(1, n_ports + 1))
        return cls(n_ports, params, states, ensemble_average(states))

    @classmethod
    def noiseless(cls, n_ports: int) -> "SignalEnsemble":
        return cls.build(n_ports, NOISELESS, kind="sigma")

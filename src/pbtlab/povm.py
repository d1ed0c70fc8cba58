"""The dense oracle: signal ensembles, pretty-good measurements and direct traces.

Every operator is an explicit 2^(N+1)-dimensional `linops.HermitianOp`, so
this route is for small N; it checks the closed forms and the
symmetry-reduced noise-adapted PGM (`fidelity.pgm_fidelities_reduced`).

The PGM is built from the unnormalized ensemble average S = sum_i eta_i:
Pi_i = S^{-1/2} eta_i S^{-1/2} with the inverse taken on the support.  The
equal priors 1/N cancel against the normalization of the average, so the
elements sum to the support projector; `validate` builds the defect Delta
that completes them to the identity on the kernel.  The entanglement
fidelity of the port-selection protocol is F = (1/4) sum_i tr(Pi_i eta_i)
(`ent_fidelity`); the average teleportation fidelity follows as f = (2F + 1)/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import closedform
from .ensemble import BELL_CROSS, NOISELESS, DephasingParams, _bell_matrices
from .fidelity import _real_trace
from .linops import DEFAULT_RANK_TOL, HermitianOp, LinopsError, inv_sqrt_on_support
from .linops import permute_qubits


def phase_rotation(theta: float) -> np.ndarray:
    """Single-qubit relative phase rotation diag(e^{-i theta}, 1)."""
    return np.diag([np.exp(-1j * theta), 1.0]).astype(complex)


def decohered_bell(params: DephasingParams) -> HermitianOp:
    """Two-qubit singlet after dephasing with factor gamma = |gamma| e^{i theta}.

    Raises LinopsError unless the block is PSD: every signal state is this
    block on (A_i, B) times the maximally mixed state of the other ports, so
    this is the ensemble's one positivity check.
    """
    block = HermitianOp(_bell_matrices([params.gamma_abs], [params.theta])[0], 2)
    w = np.linalg.eigvalsh(block.matrix)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise LinopsError(f"Bell block is not PSD: min eigenvalue {w.min():.3e}")
    return block


def _embed_pair_block(block: np.ndarray, i: int, n_ports: int) -> HermitianOp:
    """Place a two-qubit block on (A_i, B), maximally mixed on the other ports."""
    if not 1 <= i <= n_ports:
        raise LinopsError(f"port index {i} out of range 1..{n_ports}")
    n_rest = n_ports - 1
    m = np.kron(block, np.eye(2 ** n_rest)) / 2 ** n_rest
    # current layout: (A_i, B, remaining ports in ascending order)
    others = [j for j in range(n_ports) if j != i - 1]
    labels = [i - 1, n_ports] + others  # target position of each current qubit
    perm = [labels.index(t) for t in range(n_ports + 1)]
    return HermitianOp(permute_qubits(m, perm), n_ports + 1)


def rotate_b(op: HermitianOp, theta: float) -> HermitianOp:
    """Conjugate by the phase rotation acting on qubit B (the last qubit)."""
    r = np.kron(np.eye(op.dim // 2), phase_rotation(theta))
    return HermitianOp(r @ op.matrix @ r.conj().T, op.n_qubits)


@dataclass(frozen=True)
class SignalEnsemble:
    """The N signal states on N+1 qubits plus their unnormalized average.

    Both are built from (n_ports, params) alone, from one checked Bell block,
    so those two fields decide equality and the hash.
    """

    n_ports: int
    params: DephasingParams
    states: tuple = field(init=False, repr=False, compare=False)
    average_unnormalized: HermitianOp = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        block = decohered_bell(self.params).matrix
        states = tuple(_embed_pair_block(block, i, self.n_ports)
                       for i in range(1, self.n_ports + 1))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "average_unnormalized",
                           HermitianOp(sum(s.matrix for s in states), self.n_ports + 1))

    @classmethod
    def build(cls, n_ports: int, params: DephasingParams) -> "SignalEnsemble":
        return cls(n_ports, params)

    @classmethod
    def noiseless(cls, n_ports: int) -> "SignalEnsemble":
        return cls(n_ports, NOISELESS)


@dataclass(frozen=True)
class Povm:
    """N measurement operators; they complete to the identity with the defect
    that `validate` builds."""

    elements: tuple

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


@dataclass(frozen=True)
class PovmReport:
    """Numerical health check of a POVM (reports, never raises)."""

    min_eigenvalues: tuple
    completeness_residual: float
    defect_min_eigenvalue: float
    defect_support_overlaps: tuple


@dataclass(frozen=True)
class FidelityResult:
    n_ports: int
    params: DephasingParams
    ent_fidelity: float
    teleport_fidelity: float
    per_port_traces: tuple


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _clamp_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(m))
    lam_max = max(float(w.max()), 0.0)
    w = np.where(w < DEFAULT_RANK_TOL * lam_max, 0.0, w)
    return (v * w) @ v.conj().T


def _povm(elements, n_qubits: int) -> Povm:
    return Povm(tuple(HermitianOp(_hermitize(e), n_qubits) for e in elements))


def pgm(ensemble: SignalEnsemble) -> Povm:
    """Square-root measurement of the ensemble."""
    t = inv_sqrt_on_support(ensemble.average_unnormalized).matrix
    return _povm([t @ st.matrix @ t for st in ensemble.states], ensemble.n_ports + 1)


def noiseless_povm(n: int) -> Povm:
    """PGM of the ideal (undephased) singlet ensemble."""
    return pgm(SignalEnsemble.noiseless(n))


def rotated_noiseless_povm(n: int, theta: float) -> Povm:
    """Noiseless POVM conjugated by the phase rotation on qubit B.

    The ensemble at dephasing phase theta is the theta = 0 ensemble conjugated
    by the same rotation, so this POVM undoes the phase exactly.
    """
    return Povm(tuple(rotate_b(e, theta) for e in noiseless_povm(n).elements))


def _inv_sqrt_series(avg: np.ndarray, order: int) -> np.ndarray:
    """Truncated binomial series for x^{-1/2} about x = 1, applied to a matrix."""
    dim = avg.shape[0]
    d = avg - np.eye(dim)
    out = np.eye(dim, dtype=complex)
    power = np.eye(dim, dtype=complex)
    coeff = 1.0
    for k in range(1, order + 1):
        coeff *= (-0.5 - (k - 1)) / k  # binomial(-1/2, k), built recursively
        power = power @ d
        out = out + coeff * power
    return out


def pgm_taylor(ensemble: SignalEnsemble, order: int) -> Povm:
    """PGM with the inverse square root replaced by its truncated power series.

    The series is applied to the normalized average (spectral radius <= 1 on
    the support); the diverging kernel contributions cancel when sandwiched
    between the signal states, which are supported orthogonally to the kernel.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    n = ensemble.n_ports
    t = _inv_sqrt_series(ensemble.average_unnormalized.matrix / n, order)
    return _povm([t @ st.matrix @ t / n for st in ensemble.states], n + 1)


def validate(povm: Povm, ensemble: SignalEnsemble) -> PovmReport:
    """Minimum eigenvalues, completeness residual and defect-support overlap.

    The defect is I - sum_i Pi_i with eigenvalues below the rank cut clamped
    to zero.
    """
    total = sum(e.matrix for e in povm.elements)
    defect = _clamp_psd(np.eye(povm.dim) - total)
    return PovmReport(
        tuple(float(np.linalg.eigvalsh(e.matrix).min()) for e in povm.elements),
        float(np.linalg.norm(total + defect - np.eye(povm.dim))),
        float(np.linalg.eigvalsh(defect).min()),
        tuple(float(np.trace(defect @ st.matrix).real) for st in ensemble.states),
    )


def ent_fidelity(povm: Povm, ensemble: SignalEnsemble) -> FidelityResult:
    """Entanglement fidelity of a measurement against a signal ensemble."""
    if povm.n != ensemble.n_ports:
        raise LinopsError(
            f"POVM has {povm.n} elements but ensemble has {ensemble.n_ports} ports"
        )
    if povm.dim != ensemble.average_unnormalized.dim:
        raise LinopsError("POVM and ensemble dimensions do not match")
    traces = tuple(
        float(_real_trace(np.einsum("ij,ji->", e.matrix, st.matrix)))
        for e, st in zip(povm.elements, ensemble.states)
    )
    f = 0.25 * sum(traces)
    return FidelityResult(
        ensemble.n_ports,
        ensemble.params,
        f,
        closedform.teleport_fidelity(f),
        traces,
    )


def mixed_term(povm: Povm, port: int, n: int) -> float:
    """Magnitude of the cross-term trace tr(Pi_port K_port).

    K_port is the anti-Hermitian Bell cross operator
    (|psi+><psi-| - |psi-><psi+|) on (A_port, B), maximally mixed elsewhere.
    For the PGM of the ideal ensemble this vanishes identically.
    """
    # embed the Hermitian operator i*K so the layout machinery applies
    embedded = _embed_pair_block(1j * BELL_CROSS, port, n)
    val = np.einsum("ij,ji->", povm.elements[port - 1].matrix, embedded.matrix)
    return float(abs(val))

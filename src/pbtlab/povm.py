"""The dense oracle: signal ensembles, pretty-good measurements and direct traces.

Every operator is an explicit 2^(N+1)-dimensional ndarray, so this route is
for small N; it checks the closed forms and the symmetry-reduced
noise-adapted PGM (`fidelity.pgm_fidelities_reduced`).  An ensemble's states
and a POVM's elements are each one (N, d, d) stack, element i for port i;
they are complex, or real where the Bell block is (theta = 0).

The PGM is built from the unnormalized ensemble average S = sum_i eta_i:
Pi_i = S^{-1/2} eta_i S^{-1/2} with the inverse taken on the support.  The
equal priors 1/N cancel against the normalization of the average, so the
elements sum to the support projector; `validate` builds the defect Delta
that completes them to the identity on the kernel.  The entanglement
fidelity of the port-selection protocol is F = (1/4) sum_i tr(Pi_i eta_i)
(`ent_fidelity`, or `pgm_fidelity` for the PGM on its own ensemble); the
average teleportation fidelity follows as f = (2F + 1)/3.
The phase-corrected noiseless measurement at phase theta is the PGM of the
noiseless ensemble at that phase, `pgm(SignalEnsemble(n, DephasingParams(1, theta)))`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import BELL_CROSS, NOISELESS, P_MINUS, P_PLUS, DephasingParams
from .linops import DEFAULT_RANK_TOL, LinopsError, _require_hermitian, inv_sqrt_on_support

IMAG_RESIDUE_TOL = 1e-10


def _real_trace(val) -> np.ndarray:
    """Traces tr(ab) of Hermitian a, b, made real with a check on each imaginary residue."""
    val = np.asarray(val)
    residue = val.imag[np.abs(val.imag) > IMAG_RESIDUE_TOL * np.maximum(np.abs(val.real), 1.0)]
    if residue.size:
        raise LinopsError(f"trace has imaginary residue {residue[0]:.3e}")
    return val.real


def decohered_bell(params: DephasingParams) -> np.ndarray:
    """Two-qubit singlet after dephasing with factor gamma = |gamma| e^{i theta}.

    Raises LinopsError unless the block is Hermitian and PSD: every signal
    state is this block on (A_i, B) times the maximally mixed state of the
    other ports, so this is the ensemble's one Hermiticity and positivity check.
    """
    g, th = params.gamma_abs, params.theta
    block = (0.5 * (1.0 + g * np.cos(th)) * P_MINUS + 0.5 * (1.0 - g * np.cos(th)) * P_PLUS
             + 0.5j * g * np.sin(th) * BELL_CROSS)
    _require_hermitian(block)
    w = np.linalg.eigvalsh(block)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise LinopsError(f"Bell block is not PSD: min eigenvalue {w.min():.3e}")
    return block


def _embed_pair_block(block: np.ndarray, i: int, n_ports: int) -> np.ndarray:
    """Place a two-qubit block on (A_i, B), maximally mixed on the other ports."""
    if not 1 <= i <= n_ports:
        raise LinopsError(f"port index {i} out of range 1..{n_ports}")
    # row and column index: (A_1..A_(i-1), A_i, A_(i+1)..A_N, B)
    before, after = 2 ** (i - 1), 2 ** (n_ports - i)
    m = np.zeros((before, 2, after, 2) * 2, dtype=block.dtype)
    # einsum's view of the entries diagonal in the other ports, written in place
    np.einsum("paqbpcqd->pqabcd", m)[...] = block.reshape(2, 2, 2, 2) / 2 ** (n_ports - 1)
    return m.reshape(2 ** (n_ports + 1), 2 ** (n_ports + 1))


@dataclass(frozen=True)
class SignalEnsemble:
    """The N signal states on N+1 qubits, stacked (N, d, d), plus their
    unnormalized average (d, d).

    Both are built from (n_ports, params) alone, from one checked Bell block,
    so those two fields decide equality and the hash.
    """

    n_ports: int
    params: DephasingParams
    states: np.ndarray = field(init=False, repr=False, compare=False)
    average_unnormalized: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        block = decohered_bell(self.params)
        if not block.imag.any():  # real states: a ~4x cheaper eigh and products
            block = block.real
        states = np.stack([_embed_pair_block(block, i, self.n_ports)
                           for i in range(1, self.n_ports + 1)])
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "average_unnormalized", states.sum(axis=0))


@dataclass(frozen=True)
class ValidationReport:
    """Numerical health check of a POVM (reports, never raises)."""

    min_eigenvalues: tuple
    completeness_residual: float
    defect_min_eigenvalue: float
    defect_support_overlaps: tuple


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def pgm(ensemble: SignalEnsemble) -> np.ndarray:
    """Square-root measurement of the ensemble: its (N, d, d) stack of elements."""
    t = inv_sqrt_on_support(ensemble.average_unnormalized)
    return _hermitize(t @ ensemble.states @ t)


def pgm_fidelity(ensemble: SignalEnsemble) -> float:
    """`ent_fidelity(pgm(ensemble), ensemble)` without forming the elements:
    tr(Pi_i eta_i) = tr((T eta_i)^2) with T = S^{-1/2}, one product per port."""
    t_eta = inv_sqrt_on_support(ensemble.average_unnormalized) @ ensemble.states
    return 0.25 * sum(_real_trace(np.einsum("kij,kji->k", t_eta, t_eta)).tolist())


def noiseless_povm(n: int) -> np.ndarray:
    """PGM of the ideal (undephased) singlet ensemble."""
    return pgm(SignalEnsemble(n, NOISELESS))


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


def pgm_taylor(ensemble: SignalEnsemble, order: int) -> np.ndarray:
    """PGM with the inverse square root replaced by its truncated power series.

    The series is applied to the normalized average (spectral radius <= 1 on
    the support); the diverging kernel contributions cancel when sandwiched
    between the signal states, which are supported orthogonally to the kernel.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    n = ensemble.n_ports
    t = _inv_sqrt_series(ensemble.average_unnormalized / n, order)
    return _hermitize(t @ ensemble.states @ t / n)


def validate(elements: np.ndarray, ensemble: SignalEnsemble) -> ValidationReport:
    """Minimum eigenvalues, completeness residual and defect-support overlap.

    The defect is I - sum_i Pi_i with eigenvalues below the rank cut clamped
    to zero; `defect_min_eigenvalue` is the smallest eigenvalue of I - sum_i Pi_i
    before that clamp, so an overcomplete POVM shows as a negative one.
    """
    total = elements.sum(axis=0)
    eye = np.eye(total.shape[0])
    w, v = np.linalg.eigh(_hermitize(eye - total))
    defect = (v * np.where(w < DEFAULT_RANK_TOL * max(float(w.max()), 0.0), 0.0, w)) @ v.conj().T
    return ValidationReport(
        tuple(np.linalg.eigvalsh(elements).min(axis=1).tolist()),
        float(np.linalg.norm(total + defect - eye)),
        float(w.min()),
        tuple(np.einsum("ij,kji->k", defect, ensemble.states).real.tolist()),
    )


def ent_fidelity(elements: np.ndarray, ensemble: SignalEnsemble) -> float:
    """Entanglement fidelity F = (1/4) sum_i tr(Pi_i eta_i) of a measurement
    against a signal ensemble."""
    if elements.shape != ensemble.states.shape:
        raise LinopsError(f"POVM elements {elements.shape} do not match the ensemble's "
                          f"states {ensemble.states.shape}")
    traces = _real_trace(np.einsum("kij,kji->k", elements, ensemble.states))
    return 0.25 * sum(traces.tolist())


def mixed_term(elements: np.ndarray, port: int, n: int) -> float:
    """Magnitude of the cross-term trace tr(Pi_port K_port).

    K_port is the anti-Hermitian Bell cross operator
    (|psi+><psi-| - |psi-><psi+|) on (A_port, B), maximally mixed elsewhere.
    For the PGM of the ideal ensemble this vanishes identically.
    """
    # embed the Hermitian operator i*K so the layout machinery applies
    embedded = _embed_pair_block(1j * BELL_CROSS, port, n)
    return float(abs(np.einsum("ij,ji->", elements[port - 1], embedded)))

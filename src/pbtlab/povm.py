"""Pretty-good-measurement construction and validation.

The PGM is built from the unnormalized ensemble average S = sum_i eta_i:
Pi_i = S^{-1/2} eta_i S^{-1/2} with the inverse taken on the support.  The
equal priors 1/N cancel against the normalization of the average, so the
elements sum to the support projector; `validate` builds the defect Delta
that completes them to the identity on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import SignalEnsemble, rotate_b
from .linops import DEFAULT_RANK_TOL, HermitianOp, inv_sqrt_on_support


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

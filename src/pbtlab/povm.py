"""Pretty-good-measurement construction and validation.

The PGM is built from the unnormalized ensemble average S = sum_i eta_i:
Pi_i = S^{-1/2} eta_i S^{-1/2} with the inverse taken on the support.  The
equal priors 1/N cancel against the normalization of the average, so the
elements sum to the support projector; the defect Delta completes them to
the identity on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .ensemble import SignalEnsemble, rotate_b
from .linops import (
    DEFAULT_RANK_TOL,
    HermitianOp,
    LinopsError,
    inv_sqrt_on_support,
)


@dataclass(frozen=True)
class Povm:
    """N measurement operators plus the completeness defect."""

    elements: tuple
    defect: HermitianOp
    rank_tol: float
    source: str

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.defect.dim


@dataclass(frozen=True)
class PovmReport:
    """Numerical health check of a POVM (reports, never raises)."""

    min_eigenvalues: tuple
    completeness_residual: float
    defect_min_eigenvalue: float
    defect_support_overlaps: tuple


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _clamp_psd(m: np.ndarray, rank_tol: float) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(m))
    lam_max = max(float(w.max()), 0.0)
    w = np.where(w < rank_tol * lam_max, 0.0, w)
    return (v * w) @ v.conj().T


def _assemble(elements: List[np.ndarray], n_qubits: int, rank_tol: float,
              source: str, merge_defect: bool) -> Povm:
    dim = 2 ** n_qubits
    defect = _clamp_psd(np.eye(dim) - sum(elements), rank_tol)
    if merge_defect:
        n = len(elements)
        elements = [e + defect / n for e in elements]
        defect = np.zeros((dim, dim), dtype=complex)
    ops = tuple(HermitianOp(_hermitize(e), n_qubits) for e in elements)
    return Povm(ops, HermitianOp(defect, n_qubits), rank_tol, source)


def pgm(ensemble: SignalEnsemble, rank_tol: float = DEFAULT_RANK_TOL,
        merge_defect: bool = False, source: str = "noise_adapted") -> Povm:
    """Square-root measurement of the ensemble."""
    for st in ensemble.states:
        w = np.linalg.eigvalsh(st.matrix)
        if w.min() < -1e-10 * max(w.max(), 1.0):
            raise LinopsError(f"ensemble state is not PSD: min eigenvalue {w.min():.3e}")
    t = inv_sqrt_on_support(ensemble.average_unnormalized, rank_tol).matrix
    elements = [t @ st.matrix @ t for st in ensemble.states]
    n_qubits = ensemble.average_unnormalized.n_qubits
    return _assemble(elements, n_qubits, rank_tol, source, merge_defect)


def noiseless_povm(n: int, rank_tol: float = DEFAULT_RANK_TOL,
                   merge_defect: bool = False) -> Povm:
    """PGM of the ideal (undephased) singlet ensemble."""
    ens = SignalEnsemble.noiseless(n)
    out = pgm(ens, rank_tol, merge_defect, source="noiseless")
    return out


def rotated_noiseless_povm(n: int, theta: float, rank_tol: float = DEFAULT_RANK_TOL) -> Povm:
    """Noiseless POVM conjugated by the phase rotation on qubit B.

    The ensemble at dephasing phase theta is the theta = 0 ensemble conjugated
    by the same rotation, so this POVM undoes the phase exactly.
    """
    base = noiseless_povm(n, rank_tol)
    elements = tuple(rotate_b(e, theta) for e in base.elements)
    defect = rotate_b(base.defect, theta)
    return Povm(elements, defect, rank_tol, "noiseless_rotated")


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


def pgm_taylor(ensemble: SignalEnsemble, order: int,
               rank_tol: float = DEFAULT_RANK_TOL) -> Povm:
    """PGM with the inverse square root replaced by its truncated power series.

    The series is applied to the normalized average (spectral radius <= 1 on
    the support); the diverging kernel contributions cancel when sandwiched
    between the signal states, which are supported orthogonally to the kernel.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    n = ensemble.n_ports
    avg = ensemble.average_unnormalized.matrix / n
    t = _inv_sqrt_series(avg, order)
    elements = [t @ st.matrix @ t / n for st in ensemble.states]
    n_qubits = ensemble.average_unnormalized.n_qubits
    return _assemble(elements, n_qubits, rank_tol, "taylor", merge_defect=False)


def validate(povm: Povm, ensemble: SignalEnsemble | None = None) -> PovmReport:
    """Minimum eigenvalues, completeness residual and defect-support overlap."""
    mins = tuple(float(np.linalg.eigvalsh(e.matrix).min()) for e in povm.elements)
    total = sum(e.matrix for e in povm.elements) + povm.defect.matrix
    residual = float(np.linalg.norm(total - np.eye(povm.dim)))
    defect_min = float(np.linalg.eigvalsh(povm.defect.matrix).min())
    overlaps = ()
    if ensemble is not None:
        overlaps = tuple(
            float(np.trace(povm.defect.matrix @ st.matrix).real)
            for st in ensemble.states
        )
    return PovmReport(mins, residual, defect_min, overlaps)

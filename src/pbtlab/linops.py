"""Dense complex linear algebra on multi-qubit Hermitian operators.

Qubit ordering convention used throughout the package: qubit 0 is the most
significant index of the computational basis, i.e. the basis state
|q_0 q_1 ... q_{n-1}> has integer index sum_k q_k * 2^(n-1-k).  For ensemble
states on the register (A_1, ..., A_N, B) this places Alice's ports on the
most significant qubits and Bob's qubit B on the least significant one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_RANK_TOL = 1e-12


class LinopsError(ValueError):
    """Domain error for invalid operator inputs."""


def _require_hermitian(m: np.ndarray) -> None:
    """Raise unless m (or each matrix of a stack) equals its adjoint to 1e-10."""
    if not np.allclose(m, np.swapaxes(m, -1, -2).conj(), rtol=0.0, atol=1e-10):
        raise LinopsError("matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class HermitianOp:
    """A dense Hermitian operator on a register of qubits."""

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        dim = 2 ** self.n_qubits
        if m.shape != (dim, dim):
            raise LinopsError(
                f"matrix shape {m.shape} does not match {self.n_qubits} qubits"
            )
        _require_hermitian(m)

    @classmethod
    def from_matrix(cls, matrix) -> "HermitianOp":
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        n = int(round(np.log2(dim))) if dim > 0 else 0
        if 2 ** n != dim:
            raise LinopsError(f"dimension {dim} is not a power of two")
        return cls(matrix, n)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def tensor(a: HermitianOp, b: HermitianOp) -> HermitianOp:
    """Kronecker product; the left factor occupies the most significant qubits."""
    return HermitianOp(np.kron(a.matrix, b.matrix), a.n_qubits + b.n_qubits)


def permute_qubits(op: HermitianOp, perm: Sequence[int]) -> HermitianOp:
    """Reorder qubits so that output position p holds input qubit perm[p]."""
    q = op.n_qubits
    if sorted(perm) != list(range(q)):
        raise LinopsError(f"invalid qubit permutation {perm!r}")
    t = op.matrix.reshape((2,) * (2 * q))
    axes = list(perm) + [q + p for p in perm]
    return HermitianOp(t.transpose(axes).reshape(op.dim, op.dim), q)


def partial_trace(op: HermitianOp, keep: Iterable[int]) -> HermitianOp:
    """Trace out all qubits not listed in `keep` (kept qubits keep their order)."""
    q = op.n_qubits
    keep = sorted(set(keep))
    if any(k < 0 or k >= q for k in keep):
        raise LinopsError(f"keep indices {keep} out of range for {q} qubits")
    traced = [k for k in range(q) if k not in keep]
    t = op.matrix.reshape((2,) * (2 * q))
    for offset, k in enumerate(traced):
        ax = k - offset
        nq = q - offset
        t = np.trace(t, axis1=ax, axis2=ax + nq)
    d = 2 ** len(keep)
    return HermitianOp(t.reshape(d, d), len(keep))


def eig_hermitian(op: HermitianOp) -> SpectralDecomposition:
    """Full spectral decomposition with eigenvalues sorted descending.

    Hermiticity needs no check here: the HermitianOp constructor enforces it.
    """
    w, v = np.linalg.eigh(op.matrix)
    order = np.argsort(w)[::-1]
    return SpectralDecomposition(w[order], v[:, order])


def func_on_support(
    op: HermitianOp,
    f: Callable[[np.ndarray], np.ndarray],
    rank_tol: float = DEFAULT_RANK_TOL,
) -> HermitianOp:
    """Apply a scalar function to the eigenvalues on the support.

    Eigenvalues below rank_tol * lambda_max (relative) map to zero; a negative
    eigenvalue beyond that cut signals a non-PSD input and raises.
    """
    dec = eig_hermitian(op)
    w = dec.eigenvalues
    lam_max = float(np.max(w, initial=0.0))
    cut = rank_tol * max(lam_max, 0.0)
    if np.any(w < -max(cut, rank_tol)):
        raise LinopsError(f"operator is not PSD: min eigenvalue {w.min():.3e}")
    on_support = w > cut
    fw = np.zeros_like(w)
    if np.any(on_support):
        fw[on_support] = f(w[on_support])
    v = dec.eigenvectors
    out = (v * fw) @ v.conj().T
    out = 0.5 * (out + out.conj().T)
    return HermitianOp(out, op.n_qubits)


def inv_sqrt_on_support(op: HermitianOp, rank_tol: float = DEFAULT_RANK_TOL) -> HermitianOp:
    return func_on_support(op, lambda x: 1.0 / np.sqrt(x), rank_tol)


def sqrt_psd(op: HermitianOp, rank_tol: float = DEFAULT_RANK_TOL) -> HermitianOp:
    return func_on_support(op, np.sqrt, rank_tol)


def support_projector(op: HermitianOp, rank_tol: float = DEFAULT_RANK_TOL) -> HermitianOp:
    return func_on_support(op, lambda x: np.ones_like(x), rank_tol)


def trace_norm(a: HermitianOp) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    w = np.linalg.eigvalsh(a.matrix)
    return float(np.sum(np.abs(w)))


def state_fidelity(a: HermitianOp, b: HermitianOp) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)) for two density operators.

    Computed as the nuclear norm of sqrt(a) @ sqrt(b), which is analytically
    identical and better conditioned than the nested square root.
    """
    ra = sqrt_psd(a)
    rb = sqrt_psd(b)
    s = np.linalg.svd(ra.matrix @ rb.matrix, compute_uv=False)
    return float(np.sum(s))

"""Dense complex linear algebra on multi-qubit Hermitian matrices.

Operators are plain ndarrays, complex or real.  `eigh`/`eigvalsh` read one
triangle only, so each function that calls them checks its input's
Hermiticity once (`_require_hermitian`).  A failed check raises ValueError.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# defined beside the reduced route, which must not load this module
from .fidelity import DEFAULT_RANK_TOL


def _require_hermitian(m: np.ndarray) -> None:
    """Raise unless m equals its adjoint to 1e-10."""
    if not np.allclose(m, np.swapaxes(m, -1, -2).conj(), rtol=0.0, atol=1e-10):
        raise ValueError("matrix is not Hermitian within tolerance")


def func_on_support(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a Hermitian matrix on its support.

    Eigenvalues below DEFAULT_RANK_TOL * lambda_max (relative) map to zero; a
    negative eigenvalue beyond that cut signals a non-PSD input and raises.
    """
    _require_hermitian(m)
    w, v = np.linalg.eigh(m)
    cut = DEFAULT_RANK_TOL * float(np.max(w, initial=0.0))
    if np.any(w < -max(cut, DEFAULT_RANK_TOL)):
        raise ValueError(f"operator is not PSD: min eigenvalue {w.min():.3e}")
    on_support = w > cut
    fw = np.zeros_like(w)
    fw[on_support] = f(w[on_support])
    out = (v * fw) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def inv_sqrt_on_support(m: np.ndarray) -> np.ndarray:
    return func_on_support(m, lambda x: 1.0 / np.sqrt(x))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    return func_on_support(m, np.sqrt)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    _require_hermitian(m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)) for two density matrices.

    Computed as the nuclear norm of sqrt(a) @ sqrt(b), which is analytically
    identical and better conditioned than the nested square root.
    """
    s = np.linalg.svd(sqrt_psd(a) @ sqrt_psd(b), compute_uv=False)
    return float(np.sum(s))

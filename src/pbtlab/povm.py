"""The dense oracle's measurements: pretty-good measurements and direct traces.

Every operator is an explicit 2^(N+1)-dimensional ndarray, so this route is
for small N; it checks the closed forms and the symmetry-reduced
noise-adapted PGM (`fidelity.pgm_fidelities_reduced`).  The signal states
(`ensemble.signal_states`) and a POVM's elements are each one (N, d, d)
stack, element i for port i, complex or real as the states are.

The PGM is built from the unnormalized ensemble average S = sum_i eta_i:
Pi_i = S^{-1/2} eta_i S^{-1/2} with the inverse taken on the support.  The
equal priors 1/N cancel against the normalization of the average, so the
elements sum to the support projector; `validate` builds the defect Delta
that completes them to the identity on the kernel.  The entanglement
fidelity of the port-selection protocol is F = (1/4) sum_i tr(Pi_i eta_i)
(`ent_fidelity`, or `pgm_fidelity` for the PGM on its own ensemble); the
average teleportation fidelity follows as f = (2F + 1)/3.
The phase-corrected noiseless measurement at phase theta is the PGM of the
noiseless ensemble at that phase, `pgm(signal_states(n, 1.0, theta))`.
"""

from __future__ import annotations

import numpy as np

from .ensemble import BELL_CROSS, _embed_pair_block
from .linops import DEFAULT_RANK_TOL, inv_sqrt_on_support

IMAG_RESIDUE_TOL = 1e-10


def _real_trace(val) -> np.ndarray:
    """Traces tr(ab) of Hermitian a, b, made real with a check on each imaginary residue."""
    val = np.asarray(val)
    residue = val.imag[np.abs(val.imag) > IMAG_RESIDUE_TOL * np.maximum(np.abs(val.real), 1.0)]
    if residue.size:
        raise ValueError(f"trace has imaginary residue {residue[0]:.3e}")
    return val.real


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def pgm(states: np.ndarray) -> np.ndarray:
    """Square-root measurement of the states: its (N, d, d) stack of elements."""
    t = inv_sqrt_on_support(states.sum(axis=0))
    return _hermitize(t @ states @ t)


def pgm_fidelity(states: np.ndarray) -> float:
    """`ent_fidelity(pgm(states), states)` without forming the elements:
    tr(Pi_i eta_i) = tr((T eta_i)^2) with T = S^{-1/2}, one product per port."""
    t_eta = inv_sqrt_on_support(states.sum(axis=0)) @ states
    return 0.25 * sum(_real_trace(np.einsum("kij,kji->k", t_eta, t_eta)).tolist())


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


def pgm_taylor(states: np.ndarray, order: int) -> np.ndarray:
    """PGM with the inverse square root replaced by its truncated power series.

    The series is applied to the normalized average (spectral radius <= 1 on
    the support); the diverging kernel contributions cancel when sandwiched
    between the signal states, which are supported orthogonally to the kernel.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    n = len(states)
    t = _inv_sqrt_series(states.sum(axis=0) / n, order)
    return _hermitize(t @ states @ t / n)


def validate(elements: np.ndarray, states: np.ndarray) -> tuple:
    """Numerical health of a POVM (reports, never raises), as three floats: the
    smallest eigenvalue of any element and of I - sum_i Pi_i, the completeness
    residual and the largest defect-signal overlap |tr(Delta eta_i)|.

    The defect Delta is I - sum_i Pi_i with eigenvalues below the rank cut
    clamped to zero; the smallest eigenvalue is taken before that clamp, so an
    overcomplete POVM shows as a negative one.
    """
    total = elements.sum(axis=0)
    eye = np.eye(total.shape[0])
    w, v = np.linalg.eigh(_hermitize(eye - total))
    defect = (v * np.where(w < DEFAULT_RANK_TOL * max(float(w.max()), 0.0), 0.0, w)) @ v.conj().T
    return (min(float(np.linalg.eigvalsh(elements).min()), float(w.min())),
            float(np.linalg.norm(total + defect - eye)),
            float(np.abs(np.einsum("ij,kji->k", defect, states).real).max()))


def ent_fidelity(elements: np.ndarray, states: np.ndarray) -> float:
    """Entanglement fidelity F = (1/4) sum_i tr(Pi_i eta_i) of a measurement
    against the signal states."""
    if elements.shape != states.shape:
        raise ValueError(f"POVM elements {elements.shape} do not match the "
                         f"states {states.shape}")
    traces = _real_trace(np.einsum("kij,kji->k", elements, states))
    return 0.25 * sum(traces.tolist())


def mixed_term(elements: np.ndarray, port: int) -> float:
    """Magnitude of the cross-term trace tr(Pi_port K_port).

    K_port is the anti-Hermitian Bell cross operator
    (|psi+><psi-| - |psi-><psi+|) on (A_port, B), maximally mixed elsewhere.
    For the PGM of the ideal ensemble this vanishes identically.
    """
    # embed the Hermitian operator i*K so the layout machinery applies
    embedded = _embed_pair_block(1j * BELL_CROSS, port, len(elements))
    return float(abs(np.einsum("ij,ji->", elements[port - 1], embedded)))

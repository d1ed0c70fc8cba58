"""Direct-trace fidelity evaluation and measurement comparisons.

The entanglement fidelity of the port-selection protocol is
F = (1/4) sum_i tr(Pi_i eta_i); the average teleportation fidelity follows
as f = (2F + 1)/3.  `ent_fidelity` works from explicit 2^(N+1)-dimensional
operators and serves as the numerical cross-check (the small-N oracle) of
the closed forms and of the symmetry-reduced noise-adapted PGM route,
`pgm_fidelity_reduced`, which the comparison tables and the spin-boson
curves use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closedform
from .closedform import _log_binom
from .ensemble import (
    PSI_MINUS,
    PSI_PLUS,
    DephasingParams,
    SignalEnsemble,
    _embed_pair_block,
    decohered_bell,
)
from .linops import DEFAULT_RANK_TOL, HermitianOp, LinopsError, trace_norm
from .povm import Povm

IMAG_RESIDUE_TOL = 1e-10

# sigma_0 = I, sigma_x, sigma_y, sigma_z
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
# _PAULI_PAIRS[a, b] = sigma_a (x) sigma_b on (A, B)
_PAULI_PAIRS = np.einsum("aij,bkl->abikjl", _PAULIS, _PAULIS).reshape(4, 4, 4, 4)


@dataclass(frozen=True)
class FidelityResult:
    n_ports: int
    params: DephasingParams
    povm_source: str
    ent_fidelity: float
    teleport_fidelity: float
    per_port_traces: tuple


def _real_trace(a: np.ndarray, b: np.ndarray) -> float:
    """tr(ab) for Hermitian a, b with a check on the imaginary residue."""
    val = np.einsum("ij,ji->", a, b)
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(abs(val.real), 1.0):
        raise LinopsError(f"trace has imaginary residue {val.imag:.3e}")
    return float(val.real)


def ent_fidelity(povm: Povm, ensemble: SignalEnsemble) -> FidelityResult:
    """Entanglement fidelity of a measurement against a signal ensemble."""
    if povm.n != ensemble.n_ports:
        raise LinopsError(
            f"POVM has {povm.n} elements but ensemble has {ensemble.n_ports} ports"
        )
    if povm.dim != ensemble.average_unnormalized.dim:
        raise LinopsError("POVM and ensemble dimensions do not match")
    traces = tuple(
        _real_trace(e.matrix, st.matrix)
        for e, st in zip(povm.elements, ensemble.states)
    )
    f = 0.25 * sum(traces)
    return FidelityResult(
        ensemble.n_ports,
        ensemble.params,
        povm.source,
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
    cross = np.outer(PSI_PLUS, PSI_MINUS.conj()) - np.outer(PSI_MINUS, PSI_PLUS.conj())
    # embed the Hermitian operator i*K so the layout machinery applies
    embedded = _embed_pair_block(1j * cross, port, n)
    val = np.einsum("ij,ji->", povm.elements[port - 1].matrix, embedded.matrix)
    return float(abs(val))


@dataclass(frozen=True)
class ComparisonRow:
    gamma_abs: float
    noiseless: float
    noise_adapted: float
    beigi_konig: float
    helstrom: float | None


def _sector_log_weights(n: int) -> list:
    """(2j', log(d_j' / 2^(N+1))) for each spin sector j' of the ports A_2..A_N.

    d_j' = degeneracy(N-1, j') = C(N-1, k) (2j'+1) / (N-k) with k = (N-1)/2 - j',
    evaluated in log space so that it stays finite for any N.
    """
    m = n - 1
    out = []
    for k in range(m // 2 + 1):
        two_j = m - 2 * k
        log_d = _log_binom(m, k) + math.log(two_j + 1) - math.log(m - k + 1)
        out.append((two_j, log_d - (n + 1) * math.log(2.0)))
    return out


@functools.lru_cache(maxsize=16)
def _spin_sectors(n: int) -> tuple:
    """(d_j' / 2^(N+1), J_z, J_+) of each spin sector j' of the ports A_2..A_N.

    Basis |j', m> with m = j', j'-1, ..., -j'.  Parameter-independent, so it
    is built once per N.
    """
    out = []
    for two_j, log_w in _sector_log_weights(n):
        j = two_j / 2.0
        m = j - np.arange(two_j + 1)
        j_plus = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
        out.append((math.exp(log_w), np.diag(m), j_plus))
    return tuple(out)


def _sector_average(n: int, rho: np.ndarray, j_z: np.ndarray,
                    j_plus: np.ndarray) -> tuple:
    """(2^(N+1) eta_1, 2^(N+1) S) restricted to A_1 (x) B (x) V_j'.

    S = sum_i eta_i with eta_i = rho on (A_i, B); the ports i >= 2 enter as
    sum_ab r_ab sigma_b^B (x) T_a with r_ab = tr(rho sigma_a (x) sigma_b),
    T_0 = (N-1) I and T_a = 2 J_a.
    """
    d = j_z.shape[0]
    eye = np.eye(d)
    r = np.einsum("abij,ji->ab", _PAULI_PAIRS, rho).real
    col = r[:, :, None, None]  # r[a, b] broadcast over V_j'
    # 2 (r_x J_x + r_y J_y) = (r_x - i r_y) J_+ + (r_x + i r_y) J_-
    t = ((n - 1) * col[0] * eye + 2.0 * col[3] * j_z
         + (col[1] - 1j * col[2]) * j_plus + (col[1] + 1j * col[2]) * j_plus.T)
    rest = np.einsum("bij,bkl->ikjl", _PAULIS, t).reshape(2 * d, 2 * d)
    eta = np.kron(4.0 * rho, eye)
    return eta, eta + np.kron(np.eye(2), rest)


def pgm_fidelity_reduced(n: int, params: DephasingParams) -> float:
    """Entanglement fidelity of the noise-adapted PGM on its own ensemble.

    F = (N/4) tr(X rho_1 X rho_1) with X = S^(-1/2) on the support of the
    ensemble average S; the same number as
    `ent_fidelity(pgm(ens), ens)` with `ens = SignalEnsemble.build(n, params)`.

    S and eta_1 commute with permutations of the ports A_2..A_N, so they
    split into one block of size 4(2j'+1) on A_1 (x) B (x) V_j' per spin
    sector j' of those ports, each counted degeneracy(N-1, j') times.
    Eigenvalues below DEFAULT_RANK_TOL times the largest eigenvalue over all
    blocks are cut, as in `linops.func_on_support`; a negative eigenvalue
    beyond the cut raises LinopsError.
    """
    if n < 1:
        raise LinopsError(f"need n >= 1, got {n}")
    rho = decohered_bell(params).matrix
    sectors = _spin_sectors(n)
    blocks = [_sector_average(n, rho, j_z, j_plus) for _, j_z, j_plus in sectors]
    spectra = [np.linalg.eigh(s) for _, s in blocks]
    cut = DEFAULT_RANK_TOL * max(w[-1] for w, _ in spectra)
    lowest = min(w[0] for w, _ in spectra)
    if lowest < -cut:
        raise LinopsError(f"operator is not PSD: min eigenvalue {lowest:.3e}")
    total = 0.0
    for (weight, _, _), (eta, _), (w, v) in zip(sectors, blocks, spectra):
        inv_sqrt = np.zeros_like(w)
        on_support = w > cut
        inv_sqrt[on_support] = 1.0 / np.sqrt(w[on_support])
        x = (v * inv_sqrt) @ v.conj().T
        total += weight * _real_trace(x @ eta @ x, eta)
    return 0.25 * n * total


def compare_noise_adapted(n: int, gamma_grid: Sequence[float]) -> list:
    """Noiseless vs noise-adapted PGM fidelities at theta = 0, with bounds."""
    rows = []
    for g in gamma_grid:
        params = DephasingParams(float(g), 0.0)
        hel = closedform.helstrom_bound_n2(float(g)) if n == 2 else None
        rows.append(
            ComparisonRow(
                float(g),
                closedform.fidelity_noiseless_povm(n, params),
                pgm_fidelity_reduced(n, params),
                closedform.beigi_konig_bound(n, float(g)),
                hel,
            )
        )
    return rows


def helstrom_optimal_n2(ensemble: SignalEnsemble) -> float:
    """Optimal two-state discrimination fidelity F = (N/4) P_succ at N = 2."""
    if ensemble.n_ports != 2:
        raise LinopsError(f"Helstrom evaluation needs 2 states, got {ensemble.n_ports}")
    a, b = ensemble.states
    diff = HermitianOp(a.matrix - b.matrix, a.n_qubits)
    p_succ = 0.5 + 0.25 * trace_norm(diff)
    return 0.5 * p_succ

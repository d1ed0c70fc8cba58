"""Direct-trace fidelity evaluation and measurement comparisons.

The entanglement fidelity of the port-selection protocol is
F = (1/4) sum_i tr(Pi_i eta_i); the average teleportation fidelity follows
as f = (2F + 1)/3.  `ent_fidelity` works from explicit 2^(N+1)-dimensional
operators and serves as the numerical cross-check (the small-N oracle) of
the closed forms and of the symmetry-reduced noise-adapted PGM route,
`pgm_fidelities_reduced`, which the comparison tables and the spin-boson
curves use.
"""

from __future__ import annotations

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
    _bell_matrices,
    _embed_pair_block,
)
from .linops import DEFAULT_RANK_TOL, HermitianOp, LinopsError, _require_hermitian, trace_norm
from .povm import Povm

IMAG_RESIDUE_TOL = 1e-10
# Charge blocks per np.linalg.eigh call in `pgm_fidelities_reduced`: whole rows
# are stacked up to this many blocks, so the working memory (about 1 KiB a
# block) stays bounded at any N.
BLOCK_CHUNK = 1 << 14


@dataclass(frozen=True)
class FidelityResult:
    n_ports: int
    params: DephasingParams
    povm_source: str
    ent_fidelity: float
    teleport_fidelity: float
    per_port_traces: tuple


def _real_trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(ab) for Hermitian a, b (or stacks of them) with a check on each imaginary residue."""
    val = np.asarray(np.einsum("...ij,...ji->...", a, b))
    residue = val.imag[np.abs(val.imag) > IMAG_RESIDUE_TOL * np.maximum(np.abs(val.real), 1.0)]
    if residue.size:
        raise LinopsError(f"trace has imaginary residue {residue[0]:.3e}")
    return val.real


def ent_fidelity(povm: Povm, ensemble: SignalEnsemble) -> FidelityResult:
    """Entanglement fidelity of a measurement against a signal ensemble."""
    if povm.n != ensemble.n_ports:
        raise LinopsError(
            f"POVM has {povm.n} elements but ensemble has {ensemble.n_ports} ports"
        )
    if povm.dim != ensemble.average_unnormalized.dim:
        raise LinopsError("POVM and ensemble dimensions do not match")
    traces = tuple(
        float(_real_trace(e.matrix, st.matrix))
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


def _charge_blocks(n: int, bell: np.ndarray, two_j: np.ndarray, first: np.ndarray,
                   blocks: np.ndarray) -> tuple:
    """(2^(N+1) S on the given charge blocks, one stack per row; the sector of each block).

    `bell` (rows, 2, 2) is 4 rho on span{|01>, |10>} of (A_1, B).  Block b
    lies in the last sector whose `first` block index is <= b, at total Z
    charge M = b - first - j'; its basis is |00>|j',M-1>, |01>|j',M>,
    |10>|j',M>, |11>|j',M+1> on A_1 B V_j'.  A state with |m| > j' becomes a
    zero row and column, decoupled from the rest.
    """
    sector = np.searchsorted(first, blocks, side="right") - 1
    j = two_j[sector] / 2.0
    m = blocks - first[sector] - j
    h = 0.5 * (n - 1)
    a, b = bell[:, None, 0, 0], bell[:, None, 1, 1]
    q, qc = bell[:, None, 0, 1], bell[:, None, 1, 0]
    c_lo = np.sqrt(j * (j + 1.0) - (m - 1.0) * m)  # <j',M|J_+|j',M-1>
    c_hi = np.sqrt(j * (j + 1.0) - m * (m + 1.0))  # <j',M+1|J_+|j',M>
    s = np.zeros((len(bell), len(blocks), 4, 4), dtype=complex)
    s[..., 0, 0] = np.where(m > -j, b * (h - m + 1.0), 0.0)
    s[..., 1, 1] = a * (h + m + 1.0)
    s[..., 2, 2] = b * (h - m + 1.0)
    s[..., 3, 3] = np.where(m < j, a * (h + m + 1.0), 0.0)
    s[..., 1, 0], s[..., 0, 1] = q * c_lo, qc * c_lo
    s[..., 1, 2], s[..., 2, 1] = q, qc
    s[..., 3, 2], s[..., 2, 3] = q * c_hi, qc * c_hi
    return s, sector


def pgm_fidelities_reduced(n: int, params_seq: Sequence[DephasingParams]) -> list:
    """Entanglement fidelity of the noise-adapted PGM on its own ensemble, per params.

    F = (N/4) tr(X rho_1 X rho_1) with X = S^(-1/2) on the support of the
    ensemble average S; the same number as `ent_fidelity(pgm(ens), ens)` with
    `ens = SignalEnsemble.build(n, params)`.

    S and eta_1 commute with permutations of the ports A_2..A_N, so they split
    into one block per spin sector j' of those ports, counted
    degeneracy(N-1, j') times.  The dephased singlet rho lies in
    span{|01>, |10>}, so on (A_i, B) it conserves the Z charge, and
    sum_{i>=2} 4 rho_(A_i B) = a (h + J_z) |1><1|_B + b (h - J_z) |0><0|_B
    + q J_+ |1><0|_B + conj(q) J_- |0><1|_B, with h = (N-1)/2, a and b the
    diagonal of 4 rho there and q its |01><10| entry.  Each spin block
    therefore splits by total charge M into blocks of at most four states
    (`_charge_blocks`).  All blocks of all rows go, BLOCK_CHUNK at a time, to
    one batched eigh.

    Eigenvalues below DEFAULT_RANK_TOL times the row's largest eigenvalue
    over all of its blocks are cut, as in `linops.func_on_support`; a
    negative eigenvalue beyond the cut raises LinopsError.  Rows whose blocks
    exceed BLOCK_CHUNK are walked in pieces, the top sector j' = (N-1)/2
    first: S is a function of the total spin J of all N ports and of B, its
    eigenvalues are (a/2) (N + 1 +/- sqrt((2m+1)^2 + 4|gamma|^2 (J(J+1) - m(m+1))))
    at a = b, largest at J = N/2, and J = N/2 lies only in that sector.
    """
    if n < 1:
        raise LinopsError(f"need n >= 1, got {n}")
    rho = _bell_matrices([p.gamma_abs for p in params_seq], [p.theta for p in params_seq])
    _require_hermitian(rho)
    bell = 4.0 * rho[:, 1:3, 1:3]
    sectors = _sector_log_weights(n)
    two_j = np.array([t for t, _ in sectors])
    weight = np.exp([log_w for _, log_w in sectors])
    first = np.cumsum(two_j + 1) - (two_j + 1)
    per_row = int(np.sum(two_j + 1))
    rows_per = max(1, BLOCK_CHUNK // per_row)
    step = max(BLOCK_CHUNK, n)  # >= the n blocks of the top sector
    total = np.zeros(len(bell))
    for r0 in range(0, len(bell), rows_per):
        rows = slice(r0, r0 + rows_per)
        cut = None
        for b0 in range(0, per_row, step):
            s, sector = _charge_blocks(n, bell[rows], two_j, first,
                                       np.arange(b0, min(b0 + step, per_row)))
            w, v = np.linalg.eigh(s)
            if cut is None:
                cut = DEFAULT_RANK_TOL * w[..., -1].max(axis=1)[:, None, None]
            below = w < -cut
            if np.any(below):
                raise LinopsError(f"operator is not PSD: min eigenvalue {w[below].min():.3e}")
            on_support = w > cut
            inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, w, 1.0)), 0.0)
            # eta_1 lives on the |01>, |10> states, so only that corner of X enters
            v_mid = v[..., 1:3, :]
            x = (v_mid * inv_sqrt[..., None, :]) @ v_mid.conj().swapaxes(-1, -2)
            y = bell[rows, None] @ x
            total[rows] += (_real_trace(y, y) * weight[sector]).sum(axis=1)
    return (0.25 * n * total).tolist()


def pgm_fidelity_reduced(n: int, params: DephasingParams) -> float:
    """The noise-adapted PGM fidelity at one point (see `pgm_fidelities_reduced`)."""
    return pgm_fidelities_reduced(n, [params])[0]


def compare_noise_adapted(n: int, gamma_grid: Sequence[float]) -> list:
    """Noiseless vs noise-adapted PGM fidelities at theta = 0, with bounds."""
    grid = [DephasingParams(float(g), 0.0) for g in gamma_grid]
    return [
        ComparisonRow(
            p.gamma_abs,
            closedform.fidelity_noiseless_povm(n, p),
            adapted,
            closedform.beigi_konig_bound(n, p.gamma_abs),
            closedform.helstrom_bound_n2(p.gamma_abs) if n == 2 else None,
        )
        for p, adapted in zip(grid, pgm_fidelities_reduced(n, grid))
    ]


def helstrom_optimal_n2(ensemble: SignalEnsemble) -> float:
    """Optimal two-state discrimination fidelity F = (N/4) P_succ at N = 2."""
    if ensemble.n_ports != 2:
        raise LinopsError(f"Helstrom evaluation needs 2 states, got {ensemble.n_ports}")
    a, b = ensemble.states
    diff = HermitianOp(a.matrix - b.matrix, a.n_qubits)
    p_succ = 0.5 + 0.25 * trace_norm(diff)
    return 0.5 * p_succ

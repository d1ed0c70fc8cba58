"""The symmetry-reduced noise-adapted PGM fidelity.

The entanglement fidelity of the port-selection protocol is
F = (1/4) sum_i tr(Pi_i eta_i); the average teleportation fidelity follows
as f = (2F + 1)/3.  `pgm_fidelities_reduced` evaluates it for the
noise-adapted PGM from closed-form 2x2 total-spin blocks, at any N and in
real float64 arithmetic; `compare` and the spin-boson curves use it.  Its
small-N oracle is the dense `povm.pgm_fidelity(signal_states(...))`.
"""

from __future__ import annotations

import numpy as np

from . import closedform

# Eigenvalues below this times the largest lie off the support, here and in
# the dense `linops`, which imports it from here.
DEFAULT_RANK_TOL = 1e-12

# Blocks per stack in `pgm_fidelities_reduced`, give or take one sector, so
# that its working memory (a few hundred bytes a block) stays bounded at any N.
BLOCK_CHUNK = 1 << 14


def _sector_weights(n: int) -> list:
    """(2j', d_j' / 2^(N+1)) for each spin sector j' of the ports A_2..A_N.

    d_j' = C(N-1, k) (2j'+1) / (N-k) with k = (N-1)/2 - j' is the number of
    times spin j' occurs among N-1 spins 1/2; its weight is
    `closedform.binomial_weights(N-1)[k]` (2j'+1) / (N-k) / 4, finite for any N.
    """
    w = closedform.binomial_weights(n - 1)
    return [(n - 1 - 2 * k, w[k] * (n - 2 * k) / (n - k) / 4) for k in range((n + 1) // 2)]


def _sector_blocks(n: int, sectors: list) -> tuple:
    """The 2x2 blocks of 2^(N+1) S that carry eta_1, in the given sectors j'.

    One block per sector j', charge M = -j'..j' of A_2..A_N and total spin
    J = j' + 1/2 (row 0) or j' - 1/2 (row 1) of all ports, on |J,m>|0>_B,
    |J,m+1>|1>_B with m = M - 1/2.  Per block: its sector's weight; ones =
    N/2 - m, zeros = N/2 + m + 1 and hop = |<J,m+1|J_+|J,m>|^2; the squared
    Clebsch-Gordan weights cu2 of |01>|j',M> and cd2 of |10>|j',M>; and xo =
    -cu cd sqrt(hop).  A state that does not exist has hop 0 and no Clebsch-Gordan weight.
    """
    two_j = np.array([t for t, _ in sectors])
    weight = np.repeat([w for _, w in sectors], two_j + 1)
    two_m = np.concatenate([np.arange(-t, t + 1, 2) for t in two_j])
    two_j = np.repeat(two_j, two_j + 1)
    plus, minus = two_j + two_m, two_j - two_m  # 2 (j' + M), 2 (j' - M)
    up, down = np.stack([plus + 2, minus]), np.stack([minus + 2, plus])
    hop = 0.25 * up * down
    return (weight, 0.5 * (n + 1 - two_m), 0.5 * (n + 1 + two_m), hop,
            up / (2 * two_j + 2), down / (2 * two_j + 2),
            np.array([[-1.0], [1.0]]) * hop / (two_j + 1))


def _block_spectrum(qq, ones, zeros, hop) -> tuple:
    """Diagonal, eigenvalues and their gap of [[2 ones, q* sqrt(hop)], [q sqrt(hop), 2 zeros]],
    qq = |q|^2."""
    alpha, delta = 2.0 * ones, 2.0 * zeros
    gap = np.sqrt((alpha - delta) ** 2 + 4.0 * qq * hop)
    top = 0.5 * (alpha + delta + gap)
    return alpha, delta, top, (alpha * delta - qq * hop) / top, gap


def pgm_fidelities_reduced(n: int, gamma_abs) -> np.ndarray:
    """Entanglement fidelity of the noise-adapted PGM on its own ensemble, per |gamma|,
    in the shape of gamma_abs (a float or an array).

    F = (N/4) tr(X rho_1 X rho_1) with X = S^(-1/2) on the support of the
    ensemble average S; the same number as the dense
    `povm.pgm_fidelity(ensemble.signal_states(n, gamma_abs, theta))` at any theta.

    Pure dephasing leaves the |01>, |10> populations of (A_i, B) alone, so
    4 rho there is [[2, q], [q*, 2]] with q = -2 gamma.  A phase theta of
    gamma is the unitary diag(e^(-i theta), 1) on B, which the PGM follows,
    so F depends on |q|^2 = 4 |gamma|^2 only and everything here is real.
    2^(N+1) S = 2 (N/2 + J_z) |1><1|_B + 2 (N/2 - J_z) |0><0|_B
    + q J_+ |1><0|_B + h.c., J the total spin of all N ports: 2x2 blocks on
    |J,m>|0>_B, |J,m+1>|1>_B (`_block_spectrum`).  S and eta_1 commute with
    permutations of A_2..A_N, so they split into spin sectors j' of those
    ports, each counted d_j' times (`_sector_weights`).  The eta_1 states
    |01>|j',M>, |10>|j',M> lie, by Clebsch-Gordan coupling, in the m = M - 1/2
    blocks of J = j' +- 1/2 (`_sector_blocks`), so their corner of X sums two blocks' X.
    On a block X = ((tr + sqrt(l+ l-)) I - block) / (sqrt(l+ l-) (sqrt(l+) +
    sqrt(l-))), with l- = det / l+: no eigensolver runs and nothing cancels.

    Eigenvalues below DEFAULT_RANK_TOL times the row's largest,
    N + 1 + sqrt((N-1)^2 + 4N |gamma|^2) at J = N/2, m = -N/2 or N/2 - 1,
    are cut, as in `linops.func_on_support` (then X = P+ / sqrt(l+)), and so
    is an l- that rounds below zero; l+ >= N + 1 is never cut.
    The sectors are dealt round-robin into ceil(blocks / BLOCK_CHUNK)
    stacks, at most one per sector, so a stack holds at most BLOCK_CHUNK + N
    blocks per row; up to N = 255 that is one stack.  Raises ValueError for a
    |gamma| outside [0, 1] or NaN (`closedform.check_gamma_abs`) and for a
    port count that is not an integer >= 1 (`closedform.check_n`).
    """
    closedform.check_n(n)
    g = closedform.check_gamma_abs(gamma_abs)
    shape, g = g.shape, g.ravel()
    qq = 4.0 * g[:, None, None] ** 2
    cut = DEFAULT_RANK_TOL * (n + 1 + np.sqrt((n - 1) ** 2 + n * qq))
    total = np.zeros(len(g))
    sectors = _sector_weights(n)
    stacks = min(len(sectors), -(-sum(t + 1 for t, _ in sectors) // BLOCK_CHUNK))
    for piece in (sectors[i::stacks] for i in range(stacks)):
        weight, ones, zeros, hop, cu2, cd2, xo = _sector_blocks(n, piece)
        rows_per = max(1, BLOCK_CHUNK // len(weight))
        for r0 in range(0, len(g), rows_per):
            r = slice(r0, r0 + rows_per)
            alpha, delta, lp, lm, gap = _block_spectrum(qq[r], ones, zeros, hop)
            on = lm > cut[r]
            sp, sm = np.sqrt(lp), np.sqrt(np.where(on, lm, lp))
            # X = ((alpha + delta + s) I - block) k; its corner is [[xu, q x_off], [q* x_off, xd]]
            s = np.where(on, sp * sm, -lp)
            k = 1.0 / np.where(on, s * (sp + sm), -sp * gap)
            xu = (cu2 * (alpha + s) * k).sum(axis=1, keepdims=True)
            xd = (cd2 * (delta + s) * k).sum(axis=1, keepdims=True)
            x_off = (xo * k).sum(axis=1, keepdims=True)
            qqx = qq[r] * x_off
            tr_yy = ((2.0 * xu + qqx) ** 2 + (qqx + 2.0 * xd) ** 2
                     + 2.0 * qq[r] * (2.0 * x_off + xd) * (xu + 2.0 * x_off))
            total[r] += (tr_yy * weight).sum(axis=(1, 2))
    return (0.25 * n * total).reshape(shape)[()]


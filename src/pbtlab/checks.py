"""Consistency checks, each written once and shared by `verify` and the tests.

A check is a function of its grid and bounds.  It returns one `Gap` per
quantity it checks: the worst value over the grid, its bound and where it
sits.  `pbtlab verify` runs `SUITES` on small grids; the acceptance criteria
call the same functions on larger ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import quadrature as qd
from . import spinboson as sb
from .ensemble import signal_states
from .fidelity import _block_spectrum, _sector_blocks, _sector_weights, pgm_fidelities_reduced
from .linops import state_fidelity, trace_norm
from .povm import ent_fidelity, mixed_term, pgm, pgm_fidelity, pgm_taylor, validate


@dataclass
class Gap:
    """Worst measured value of one quantity, its bound and where it sits."""

    quantity: str
    bound: float
    worst: float = 0.0
    where: str = ""

    def see(self, value: float, where: str) -> None:
        if value > self.worst or math.isnan(value):  # a NaN is never within bound
            self.worst, self.where = value, where

    @property
    def ok(self) -> bool:
        return self.worst <= self.bound


def closed_form_vs_trace(ns, gammas, thetas, bound: float) -> tuple:
    """compare's two columns against the dense route on the same states: the noiseless
    PGM's direct trace against the closed form, and the dense noise-adapted PGM against
    the reduced route (one call per N, without theta, which must drop out)."""
    closed = Gap("|direct trace - closed form|", bound)
    reduced = Gap("|dense - reduced noise-adapted PGM fidelity|", bound)
    for n in ns:
        base = pgm(signal_states(n, 1.0))
        adapted = pgm_fidelities_reduced(n, gammas).tolist()
        for (g, f_reduced), t in itertools.product(zip(gammas, adapted), thetas):
            states, at = signal_states(n, g, t), f"N={n} gamma={g:g} theta={t:g}"
            # a Python float, so that the report's worst values and pass flags stay JSON
            f_closed = float(cf.noiseless_fidelity(n, g, t))
            closed.see(abs(ent_fidelity(base, states) - f_closed), at)
            reduced.see(abs(pgm_fidelity(states) - f_reduced), at)
    return closed, reduced


def povm_validity(ns, gammas, theta: float, residual_bound: float,
                  eig_bound: float, overlap_bound: float) -> tuple:
    """Completeness residual, most negative eigenvalue and defect overlap of the PGM."""
    residual = Gap("completeness residual", residual_bound)
    negative = Gap("-(smallest eigenvalue of a Pi_i or of I - sum Pi_i)", eig_bound)
    overlap = Gap("|defect-signal overlap|", overlap_bound)
    for n, g in itertools.product(ns, gammas):
        states = signal_states(n, g, theta)
        (smallest, res, most), at = validate(pgm(states), states), f"N={n} gamma={g:g}"
        residual.see(res, at)
        negative.see(-smallest, at)
        overlap.see(most, at)
    return residual, negative, overlap


def mixed_term_vanishes(ns, bound: float) -> Gap:
    """Bell cross-term trace of the noiseless PGM at every port."""
    gap = Gap("|tr(Pi_i K_i)|", bound)
    for n in ns:
        pov = pgm(signal_states(n, 1.0))
        for i in range(1, n + 1):
            gap.see(mixed_term(pov, i), f"N={n} port {i}")
    return gap


def block_spectrum(n: int, gamma_abs: float) -> np.ndarray:
    """Every eigenvalue of 2^(N+1) S from the reduced route's blocks, sorted.

    The blocks take |q|^2 = 4 |gamma|^2, as in `fidelity.pgm_fidelities_reduced`;
    the phase of gamma moves no eigenvalue.  Sector j' holds J = j' +- 1/2: the
    2x2 blocks of `fidelity._sector_blocks` (at J = j' - 1/2 only those with
    |M| < j', the others hold a state that does not exist) and the edge
    states |J,-J>|1>_B, |J,J>|0>_B, each with eigenvalue N - 2J.  Each sector
    is counted 2^(N+1) times its weight from `fidelity._sector_weights`.
    """
    values = []
    for two_j, weight in _sector_weights(n):
        _, ones, zeros, hop, *_ = _sector_blocks(n, [(two_j, weight)])
        _, _, lp, lm, _ = _block_spectrum(4.0 * gamma_abs ** 2, ones, zeros, hop)
        edges = np.array([two_j + 1] + ([two_j - 1] if two_j else []))  # 2J
        sector = [lp[0], lm[0], lp[1, 1:-1], lm[1, 1:-1], n - edges, n - edges]
        values.append(np.tile(np.concatenate(sector), round(2.0 ** (n + 1) * weight)))
    return np.sort(np.concatenate(values))


def spectrum_block_formulas(ns, gammas, thetas, bound: float) -> Gap:
    """Dense spectrum of 2^(N+1) S against `block_spectrum`; a count mismatch is an infinite gap."""
    gap = Gap("|dense eigenvalue - block formula| of 2^(N+1) S", bound)
    for n, g, t in itertools.product(ns, gammas, thetas):
        dense = np.linalg.eigvalsh(2.0 ** (n + 1) * signal_states(n, g, t).sum(axis=0))
        blocks = block_spectrum(n, g)
        gap.see(float(np.max(np.abs(dense - blocks))) if blocks.shape == dense.shape else math.inf,
                f"N={n} gamma={g:g} theta={t:g}")
    return gap


def pairwise_fidelity_half(ns, gammas, thetas, bound: float) -> Gap:
    """Uhlmann fidelity of every pair of signal states against 1/2."""
    gap = Gap("|pairwise fidelity - 1/2|", bound)
    for n, g, t in itertools.product(ns, gammas, thetas):
        states = signal_states(n, g, t)
        for i, j in itertools.combinations(range(n), 2):
            gap.see(abs(state_fidelity(states[i], states[j]) - 0.5),
                    f"N={n} gamma={g:g} theta={t:g} pair ({i},{j})")
    return gap


def helstrom(gammas, thetas, bound: float, slack: float) -> tuple:
    """N=2: ||eta_1 - eta_2||_1 against sqrt(1 + 2|gamma|^2) at thetas[0] and its
    change to each other theta (to bound); the noiseless and noise-adapted PGM
    fidelities at thetas[0] exceed the Helstrom bound by at most slack."""
    norm = Gap("|trace norm - sqrt(1 + 2|gamma|^2)|", bound)
    spread = Gap("theta dependence of the trace norm", bound)
    excess = Gap("PGM fidelity above the Helstrom bound", slack)
    base = pgm(signal_states(2, 1.0))
    for g in gammas:
        ens = [signal_states(2, g, t) for t in thetas]
        tns = [trace_norm(states[0] - states[1]) for states in ens]
        at = f"gamma={g:g} theta={thetas[0]:g}"
        norm.see(abs(tns[0] - math.sqrt(1.0 + 2.0 * g * g)), at)
        for t, tn in zip(thetas[1:], tns[1:]):
            spread.see(abs(tns[0] - tn), f"gamma={g:g} theta={t:g}")
        for f in (ent_fidelity(base, ens[0]), pgm_fidelity(ens[0])):
            excess.see(f - cf.helstrom_bound_n2(g), at)
    return norm, spread, excess


def spin_boson(s: float, th: float, ell: float, taus, settings, shift_bound: float) -> tuple:
    """For the bath (s, theta_T) at separation ell: quadrature chi >= 0; each
    of the other quadrature settings, (upper_cutoff, rel_tol) pairs, moves chi
    and the phase by <= shift_bound."""
    negative = Gap("negative part of chi", 0.0)
    shift = Gap("shift of chi and phase", shift_bound)
    for tau in taus:
        c0, p0 = qd.decoherence_and_error(tau, s, th, ell)[:2]
        negative.see(-c0, f"tau={tau:g}")
        for cutoff, rel_tol in settings:
            c, p = qd.decoherence_and_error(tau, s, th, ell, cutoff, rel_tol)[:2]
            shift.see(max(abs(c - c0), abs(p - p0)),
                      f"tau={tau:g} upper_cutoff={cutoff:g} rel_tol={rel_tol:g}")
    return negative, shift


def decoherence_routes(ohmicities, temps, taus, ell: float, bound: float) -> tuple:
    """Analytic chi and phase (`decoherence_grid`, one call for the whole
    (s, theta_T) grid, s-major) against the quadrature (`decoherence_and_error`,
    one call per point), each gap relative to max(1, |quadrature value|); and
    QUADPACK's own error estimate of those integrals, relative the same way."""
    chi_gap = Gap("|analytic - quadrature chi| / max(1, |chi|)", bound)
    phase_gap = Gap("|analytic - quadrature phase| / max(1, |phase|)", bound)
    estimate = Gap("QUADPACK error estimate of chi, phase / max(1, |value|)", bound)
    baths = list(itertools.product(ohmicities, temps))
    chis, phases = sb.decoherence_grid(taus, *zip(*baths), ell)
    for (s, th), chi_row, phase_row in zip(baths, chis.tolist(), phases.tolist()):
        for tau, chi_a, phase_a in zip(taus, chi_row, phase_row):
            at = f"s={s:g} theta_T={th:g} tau={tau:g}"
            c, p, c_err, p_err = qd.decoherence_and_error(tau, s, th, ell)
            chi_gap.see(abs(chi_a - c) / max(1.0, abs(c)), at)
            phase_gap.see(abs(phase_a - p) / max(1.0, abs(p)), at)
            estimate.see(max(c_err / max(1.0, abs(c)), p_err / max(1.0, abs(p))), at)
    return chi_gap, phase_gap, estimate


def taylor_pgm_agreement(ns, gammas, order: int, bound: float) -> Gap:
    """Series-expanded PGM fidelity against the eigensolver PGM at theta = 0."""
    gap = Gap(f"|Taylor (order {order}) - eigensolver PGM fidelity|", bound)
    for n, g in itertools.product(ns, gammas):
        states = signal_states(n, g, 0.0)
        gap.see(abs(pgm_fidelity(states) - ent_fidelity(pgm_taylor(states, order), states)),
                f"N={n} gamma={g:g}")
    return gap


# verify's suites in report order, each on a small grid.
SUITES = {
    "closed_form_agreement": lambda: closed_form_vs_trace(
        (2, 3, 4), (0.0, 0.5, 1.0), (0.0, math.pi / 2, math.pi), 1e-9),
    "povm_validity": lambda: povm_validity((2, 3, 4), (0.3, 1.0), 0.4, 1e-8, 1e-10, 1e-9),
    "mixed_term_vanishes": lambda: (mixed_term_vanishes((2, 3, 4), 1e-10),),
    "spectrum_block_formulas": lambda: (spectrum_block_formulas(
        (2, 3, 4), (0.0, 0.3, 1.0), (0.7,), 1e-10),),
    "pairwise_fidelity_half": lambda: (pairwise_fidelity_half(
        (3,), (0.0, 0.7, 1.0), (0.3,), 1e-9),),
    "helstrom_trace_norm": lambda: helstrom((0.0, 0.4, 1.0), (0.7,), 1e-10, 1e-9),
    "spin_boson_limits": lambda: spin_boson(2.0, 0.5, 3.0, (4.0, 5.0), ((120.0, 1e-10),), 1e-8),
    "taylor_pgm_agreement": lambda: (taylor_pgm_agreement((2,), (1.0,), 4000, 1e-6),),
    # 1e-9: the quadrature's own tolerance
    "decoherence_routes": lambda: decoherence_routes((1.5, 2.0, 3.0, 10.0), (0.0, 0.5),
                                                     (0.5, 4.0, 8.0), 3.0, 1e-9),
}

"""Closed-form fidelities, spectra and discrimination bounds.

All sums over binomial coefficients are evaluated in log space so that they
stay finite for port counts in the tens of thousands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .ensemble import DephasingParams

# The printed closed form of the correction term counts every k and its
# mirror N-k separately and omits the 1/4 entanglement-fidelity prefactor;
# the per-port trace that actually enters the teleportation fidelity is the
# printed sum divided by 8.  See f_corr_trace below.
CORR_TRACE_SCALE = 0.125


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def degeneracy(n: int, s) -> int:
    """Multiplicity of the total-spin-s irrep in n spin-1/2 systems.

    s is taken exactly: a float is admissible only if it is a multiple of 1/2.
    """
    s = Fraction(s)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    k = Fraction(n, 2) - s
    if s < 0 or k < 0 or k.denominator != 1:
        raise ValueError(f"spin {s} is not admissible for {n} qubits")
    k = int(k)
    num = math.factorial(n) * (n - 2 * k + 1)  # (2s + 1) as an integer
    den = math.factorial(k) * math.factorial(n - k + 1)
    assert num % den == 0
    return num // den


def f_ih(n: int) -> float:
    """Entanglement fidelity of ideal deterministic PBT with N ports."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = 0.0
    log_scale = (n + 3) * math.log(2.0)
    for k in range(n + 1):
        a = (n - 2 * k - 1) / math.sqrt(k + 1) + (n - 2 * k + 1) / math.sqrt(n - k + 1)
        total += math.exp(_log_binom(n, k) - log_scale) * a * a
    return total


def f_corr(n: int) -> float:
    """Correction term weighting the triplet contamination of the signal states."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = 0.0
    log_scale = n * math.log(2.0)
    for k in range(n + 1):
        a = 1.0 / math.sqrt(k + 1) - 1.0 / math.sqrt(n - k + 1)
        total += math.exp(_log_binom(n, k) - log_scale) * ((n - 2 * k) ** 2 - 1) * a * a
    return total / 3.0


def f_corr_trace(n: int) -> float:
    """The correction as it enters the fidelity: (1/4) sum_i tr(Pi_i omega_i)."""
    return CORR_TRACE_SCALE * f_corr(n)


@functools.lru_cache(maxsize=64)
def _noiseless_terms(n: int) -> tuple:
    """(f_ih(n), f_corr_trace(n)): two O(n) sums, computed once per n."""
    return f_ih(n), f_corr_trace(n)


def fidelity_noiseless_povm(n: int, params: DephasingParams) -> float:
    """Entanglement fidelity of the noiseless measurement on the dephased ensemble."""
    return noiseless_fidelity(n, params.gamma_abs * math.cos(params.theta))


def noiseless_fidelity(n: int, overlap):
    """`fidelity_noiseless_povm` at |gamma| cos(theta) = overlap, a float or an array.

    Affine in the overlap: weight (1 +/- overlap)/2 on the singlet and
    triplet channels respectively.
    """
    ih, corr = _noiseless_terms(n)
    return 0.5 * (1.0 + overlap) * ih + 0.5 * (1.0 - overlap) * corr


# Rounding may carry an entanglement fidelity this far outside [0, 1].
FIDELITY_SLACK = 1e-12


def teleport_fidelity(ent_fid: float) -> float:
    """Average teleportation fidelity from the entanglement fidelity."""
    if not -FIDELITY_SLACK <= ent_fid <= 1.0 + FIDELITY_SLACK:
        raise ValueError(f"entanglement fidelity {ent_fid} outside [0, 1]")
    return (2.0 * ent_fid + 1.0) / 3.0


def teleport_fidelities(ent_fid):
    """`teleport_fidelity` of every entry of a numpy array, with the same range check."""
    outside = ent_fid[~((ent_fid >= -FIDELITY_SLACK) & (ent_fid <= 1.0 + FIDELITY_SLACK))]
    if outside.size:
        raise ValueError(f"entanglement fidelity {outside[0]} outside [0, 1]")
    return (2.0 * ent_fid + 1.0) / 3.0


@dataclass(frozen=True)
class SpinBlock:
    """Spectral data of one total-spin block of the noiseless ensemble average."""

    s: Fraction
    lambda_minus: float  # absent (degeneracy 0) for s = 0
    lambda_plus: float
    deg_minus_first: int
    deg_minus_second: int
    deg_plus_first: int
    deg_plus_second: int

    @property
    def degeneracy_minus(self) -> int:
        return int(2 * self.s + 1) * (self.deg_minus_first + self.deg_minus_second)

    @property
    def degeneracy_plus(self) -> int:
        return int(2 * self.s + 1) * (self.deg_plus_first + self.deg_plus_second)


@dataclass(frozen=True)
class SpinBlockSpectrum:
    n_ports: int
    blocks: tuple

    def eigenvalue_multiplicities(self) -> dict:
        """Map eigenvalue -> total multiplicity over all blocks (support only)."""
        out: dict = {}
        for b in self.blocks:
            if b.degeneracy_minus > 0:
                out[b.lambda_minus] = out.get(b.lambda_minus, 0) + b.degeneracy_minus
            if b.degeneracy_plus > 0:
                out[b.lambda_plus] = out.get(b.lambda_plus, 0) + b.degeneracy_plus
        return out

    def trace(self) -> float:
        return sum(lam * m for lam, m in self.eigenvalue_multiplicities().items())


def _safe_degeneracy(n: int, s: Fraction) -> int:
    try:
        return degeneracy(n, s)
    except ValueError:
        return 0


def spin_block_spectrum(n: int) -> SpinBlockSpectrum:
    """Block eigenvalues and multiplicities of the noiseless average state.

    Blocks are labelled by the half-integer s running from s_min (0 for odd N,
    1/2 for even N) to (N-1)/2.  The lower eigenvalue family only exists for
    s > 0: its states carry a spin index s - 1/2, which is inadmissible at s = 0.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s_top = Fraction(n - 1, 2)
    s_min = Fraction(0) if s_top.denominator == 1 else Fraction(1, 2)
    blocks: List[SpinBlock] = []
    scale = 2.0 ** (n + 1)
    s = s_min
    while s <= s_top:
        lam_minus = float(n - 2 * s + 1) / scale
        lam_plus = float(n + 2 * s + 3) / scale
        if s > 0:
            dm1 = _safe_degeneracy(n - 1, s)
            dm2 = _safe_degeneracy(n - 1, s - 1)
        else:
            dm1 = dm2 = 0
        dp1 = _safe_degeneracy(n - 1, s + 1)
        dp2 = _safe_degeneracy(n - 1, s)
        blocks.append(SpinBlock(s, lam_minus, lam_plus, dm1, dm2, dp1, dp2))
        s += 1
    return SpinBlockSpectrum(n, tuple(blocks))


def kim_fidelity(n: int, gamma_abs: float) -> float:
    """Entanglement fidelity of the composed-channel model at theta = 0."""
    if not 0.0 <= gamma_abs <= 1.0:
        raise ValueError(f"gamma_abs must lie in [0, 1], got {gamma_abs}")
    return (2.0 * gamma_abs + 1.0) / 3.0 * f_ih(n) + (1.0 - gamma_abs) / 6.0


def beigi_konig_bound(n: int, gamma_abs: float) -> float:
    """Purity/rank lower bound on the PGM entanglement fidelity (may be negative)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 0.5 * (1.0 - (1.0 + 2.0 * gamma_abs ** 2) / n)


def knill_barnum_bound(n: int) -> float:
    """Success-probability lower bound from the constant 1/2 pairwise fidelity."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1.0 - (n - 1) / 4.0


def helstrom_bound_n2(gamma_abs: float) -> float:
    """Optimal two-state discrimination upper bound on the N=2 fidelity."""
    if not 0.0 <= gamma_abs <= 1.0:
        raise ValueError(f"gamma_abs must lie in [0, 1], got {gamma_abs}")
    return 0.25 * (1.0 + 0.5 * math.sqrt(1.0 + 2.0 * gamma_abs ** 2))

"""Exact spin-block spectrum of the noiseless ensemble average.

The dense spectrum check (`checks.spectrum_block_formulas`) and the tests
compare it with eigenvalues of the explicit 2^(N+1)-dimensional average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List


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

"""Dephasing parameters and the Bell projectors of the dense oracle, on plain ndarrays.

States live on the register (A_1, ..., A_N, B): port qubits first (most
significant), Bob's qubit B last.  Bell conventions: |psi-> = (|01> - |10>)/sqrt(2),
|psi+> = (|01> + |10>)/sqrt(2), with sigma_z |0> = +|0>.  The dephased Bell
block built from them is `povm.decohered_bell`.

Only the dense route builds a `DephasingParams`; the fast path takes |gamma|
as a float or an array, checked by the same `closedform.check_gamma_abs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import check_gamma_abs

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)

P_MINUS = np.outer(PSI_MINUS, PSI_MINUS.conj())
P_PLUS = np.outer(PSI_PLUS, PSI_PLUS.conj())
# the anti-Hermitian Bell cross operator |psi+><psi-| - |psi-><psi+|
BELL_CROSS = np.outer(PSI_PLUS, PSI_MINUS.conj()) - np.outer(PSI_MINUS, PSI_PLUS.conj())


@dataclass(frozen=True)
class DephasingParams:
    """Polar form of the dephasing factor: magnitude in [0, 1] and phase."""

    gamma_abs: float
    theta: float = 0.0

    def __post_init__(self):
        check_gamma_abs(self.gamma_abs)


NOISELESS = DephasingParams(1.0, 0.0)

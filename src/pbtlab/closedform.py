"""Closed-form fidelities and discrimination bounds.

Every binomial sum weighs its terms with `binomial_weights`, which stay finite
and accurate to a few ulp for port counts in the tens of thousands.
"""

from __future__ import annotations

import math

import numpy as np

# The printed closed form of the correction term counts every k and its
# mirror N-k separately and omits the 1/4 entanglement-fidelity prefactor;
# the per-port trace that actually enters the teleportation fidelity is the
# printed sum divided by 8, as `noiseless_fidelity` scales it.
CORR_TRACE_SCALE = 0.125


def binomial_weights(n: int) -> list:
    """C(n, k) / 2^n for k = 0..n as Python floats, normalised to sum 1.  The ratios
    (n-k)/(k+1) run outward from 1.0 at k = n//2, so no partial product exceeds 1
    and far tails underflow to 0; the lower half mirrors the upper."""
    right = [1.0]
    for k in range(n // 2, n):
        right.append(right[-1] * ((n - k) / (k + 1)))
    # the same total as over the mirrored list, but fsum keeps few partials when its terms fall
    total = math.fsum(right + right[1 + n % 2:])
    return [w / total for w in right[:n % 2:-1] + right]


def _noiseless_terms(n: int) -> tuple:
    """(f_ih(n), f_corr(n)): one build of the weights, one walk over k for both sums."""
    ih = corr = 0.0
    for k, w in enumerate(binomial_weights(check_n(n))):
        root_k, root_rest = math.sqrt(k + 1), math.sqrt(n - k + 1)
        a = (n - 2 * k - 1) / root_k + (n - 2 * k + 1) / root_rest
        ih += w * a * a
        a = 1.0 / root_k - 1.0 / root_rest
        corr += w * ((n - 2 * k) ** 2 - 1) * a * a
    return ih / 8.0, corr / 3.0


def f_ih(n: int) -> float:
    """Entanglement fidelity of ideal deterministic PBT with N ports."""
    return _noiseless_terms(n)[0]


def f_corr(n: int) -> float:
    """Correction term weighting the triplet contamination of the signal states."""
    return _noiseless_terms(n)[1]


def noiseless_fidelity(n: int, gamma_abs, theta=0.0):
    """Entanglement fidelity of the noiseless measurement on the ensemble dephased
    to |gamma| (checked by `check_gamma_abs`) at phase theta (checked by
    `check_theta`), each a float or an array, broadcast against each other.

    Affine in the overlap |gamma| cos(theta): weight (1 +/- overlap)/2 on the
    singlet and triplet channels respectively.  Call it once per N on a whole
    grid: each call builds the weights once and walks them once for both sums.
    """
    ih, corr = _noiseless_terms(n)
    corr *= CORR_TRACE_SCALE
    overlap = check_gamma_abs(gamma_abs) * np.cos(check_theta(theta))
    return 0.5 * (1.0 + overlap) * ih + 0.5 * (1.0 - overlap) * corr


def check_n(n) -> int:
    """The port count n, an int or a numpy integer: the one check of N.
    Raises ValueError for a non-integer or for n < 1."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"need an integer n, got {n}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n


# Rounding may carry |gamma| this far above 1.
GAMMA_SLACK = 1e-12


def check_gamma_abs(gamma_abs) -> np.ndarray:
    """|gamma|, a float or an array, as a float array: the one domain check of |gamma|.
    Raises ValueError for an entry outside [0, 1 + GAMMA_SLACK] or NaN."""
    g = np.asarray(gamma_abs, dtype=float)
    bad = ~((g >= 0.0) & (g <= 1.0 + GAMMA_SLACK))
    if bad.any():
        raise ValueError(f"gamma_abs must lie in [0, 1], got {g[bad][0]}")
    return g


def check_theta(theta) -> np.ndarray:
    """theta, a float or an array, as a float array: the one domain check of theta.
    Raises ValueError for an entry that is infinite or NaN."""
    t = np.asarray(theta, dtype=float)
    bad = ~np.isfinite(t)
    if bad.any():
        raise ValueError(f"theta must be finite, got {t[bad][0]}")
    return t


# Rounding may carry an entanglement fidelity this far outside [0, 1].
FIDELITY_SLACK = 1e-12


def teleport_fidelity(ent_fid):
    """Average teleportation fidelity from the entanglement fidelity, a float or an array.

    A float stays a float.  Raises ValueError if an entry lies outside [0, 1]
    by more than FIDELITY_SLACK, or is NaN.
    """
    f = np.asarray(ent_fid, dtype=float)
    bad = ~((f >= -FIDELITY_SLACK) & (f <= 1.0 + FIDELITY_SLACK))
    if bad.any():
        raise ValueError(f"entanglement fidelity {f[bad][0]} outside [0, 1]")
    return (2.0 * (f if f.ndim else f.item()) + 1.0) / 3.0


def beigi_konig_bound(n: int, gamma_abs):
    """Purity/rank lower bound on the PGM entanglement fidelity (may be negative),
    per |gamma|, a float or an array."""
    check_n(n)
    g = check_gamma_abs(gamma_abs)
    # float_power is libm pow, as a float's ** 2; numpy's ** 2 multiplies,
    # which can differ in the last bit
    return 0.5 * (1.0 - (1.0 + 2.0 * np.float_power(g, 2)) / n)


def helstrom_bound_n2(gamma_abs):
    """Optimal two-state discrimination upper bound on the N=2 fidelity, per
    |gamma|, a float or an array."""
    g = check_gamma_abs(gamma_abs)
    return 0.25 * (1.0 + 0.5 * np.sqrt(1.0 + 2.0 * np.float_power(g, 2)))  # see beigi_konig_bound

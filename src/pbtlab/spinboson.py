"""Dephasing factor of two qubits in a thermal bosonic bath.

The bath has spectral density proportional to w^s e^{-w} in units of the
cutoff (s > 1), the qubits sit a dimensionless distance ell apart, and the
bath temperature enters through theta_T = T / cutoff.  The pair's dephasing
factor after a dimensionless time tau is

    Gamma(tau, ell) = exp(-chi(tau, ell) + i * phase(tau, ell)),

with chi and phase given by frequency integrals over the spectral density.
Vanishing separation gives chi = phase = 0: the pair then sits in a
decoherence-free subspace.

Both integrals are combinations of the bath transform (a = s - 1)

    G(t) = int w^(s-2) e^{-w} coth(w / 2 theta_T) e^{i w t} dw
         = Gamma(a) [(1 - i t)^(-a) + 2 theta_T^a zeta(a, 1 + theta_T (1 - i t))],

with zeta the Hurwitz zeta (expand coth in powers of e^{-w/theta_T}):

    chi   = 2 Re[G(0) - G(tau) - G(ell) + G(tau - ell)/2 + G(tau + ell)/2],
    phase = 1/2 Im[G(ell) - G(ell + tau)/2 - G(ell - tau)/2]  at theta_T = 0.

`decoherence_grid` evaluates these for many baths on a whole tau grid at
once; the weights of each combination sum to zero, so a t-independent
constant in G cancels.  Its arithmetic is float64 throughout, except at
small tau about t = ell: there the first-order cancellation of the powers
is taken out by a series in the complex ratio tau / (b - i ell), b the
real base of a power in G, and that series stays complex (see
`_second_difference`).
`quadrature.chi_and_error` and `quadrature.phase_and_error` integrate the frequency integrals by
adaptive quadrature and are the independent check of that route.

The module is the bath alone: it imports no fidelity route.  `cli.cmd_spinboson`
turns |gamma| = e^(-chi) and the phase into each measurement's fidelity.
"""

from __future__ import annotations

import math

import numpy as np


# The Hurwitz zeta of the thermal part is summed over ZETA_TERMS terms
# directly and the rest by Euler-Maclaurin (DLMF 2.10.1, 25.11.5) with the
# Bernoulli numbers B_2 .. B_20, each over (2j)!.
ZETA_TERMS = 12
_BERNOULLI_OVER_FACTORIAL = np.array([
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330]) / np.array([math.factorial(2 * j) for j in range(1, 11)])
# (2j, log|B_2j/(2j)!|, sign B_2j) of each Bernoulli term, as floats
_BERNOULLI_TERMS = tuple(zip((2.0 * np.arange(1, _BERNOULLI_OVER_FACTORIAL.size + 1)).tolist(),
                             np.log(np.abs(_BERNOULLI_OVER_FACTORIAL)).tolist(),
                             np.sign(_BERNOULLI_OVER_FACTORIAL).tolist()))


def _power(log_coef, alpha, b, y) -> tuple:
    """e^log_coef (b - i y)^(-alpha) for real b > 0 and y, in float64: its
    modulus e^(log_coef - alpha log hypot(b, y)) and its argument alpha atan2(y, b)."""
    return np.exp(log_coef - alpha * np.log(np.hypot(b, y))), alpha * np.arctan2(y, b)


def _second_difference(base, ell, alpha, log_coef, taus: np.ndarray) -> tuple:
    """D(c) = e^log_coef [(c - i tau)^(-alpha)/2 + (c + i tau)^(-alpha)/2 - c^(-alpha)]
    for columns base, ell, alpha, log_coef (one row each) against a row of
    taus, about c = base and about c = base - i ell: two (rows, taus) arrays,
    D(base) real and D(base - i ell) complex.

    Each power is one exp of a logarithm, so a large coefficient does not
    overflow on its own.  Summed directly, the three powers cancel as
    tau -> 0; where |alpha x| < 1/2, x = tau / c, the bracket is therefore
    c^(-alpha) [expm1(m) - 2 e^m sin^2(alpha arctan(x) / 2)], m = -(alpha/2) log(1 + x^2)
    (e^m as 1 + expm1(m), whose rounding stays within the bracket's).
    Farther out the direct sum of `_power`s is kept: there the powers differ
    in size by large factors and that product would lose their phases.
    Where alpha = 0 it returns the limit of the bracket over alpha,
    -(1/2) log(1 + x^2) times e^log_coef.

    About 0, c and x are real and so is every term: both forms are evaluated
    in float64 over the whole array, and `np.where` picks each entry's.
    About ell the powers are `_power`s too, at y = ell for the centre and at
    y = ell -/+ tau for the far entries, where the direct form about 0 takes
    y = tau; at tau >> ell the two passes then round alike, and chi, their
    difference, keeps its digits.  The near entries about ell stay complex:
    x is complex there, and only the series, in complex expm1, sin and
    arctan of it, avoids the first-order cancellation of the direct sum at
    small tau (log(1 + x^2) is by hand: numpy's complex log1p loses small
    arguments).  Each branch about ell is gathered by index pairs and
    evaluated on its own entries.
    """
    # about 0: both forms over every entry in float64; np.where picks
    x = taus / base
    log_1x2 = np.log1p(x * x)
    expm1_m = np.expm1(-0.5 * alpha * log_1x2)
    modulus, turn = _power(log_coef, alpha, base, taus)
    centre = np.exp(log_coef - alpha * np.log(base))
    series = centre * (expm1_m - 2.0 * (1.0 + expm1_m) * np.sin(0.5 * turn) ** 2)
    about_0 = np.where(alpha == 0.0, -0.5 * np.exp(log_coef) * log_1x2,
                       np.where(np.abs(alpha * x) < 0.5, series, modulus * np.cos(turn) - centre))

    # about ell: the near entries (alpha = 0 among them) in complex, the far in float64
    c = base - 1j * ell
    modulus, turn = _power(log_coef, alpha, base, ell)
    centre = modulus * (np.cos(turn) + 1j * np.sin(turn))
    near = np.abs(alpha) * taus < 0.5 * np.abs(c)
    about_ell = np.empty(near.shape, dtype=complex)
    i, j = np.nonzero(near)
    a, x_n = alpha[i, 0], taus[j] / c[i, 0]
    x2 = x_n * x_n
    log_1x2 = (0.5 * np.log1p(x2.real * (2.0 + x2.real) + x2.imag ** 2)
               + 1j * np.arctan2(x2.imag, 1.0 + x2.real))
    expm1_m = np.expm1(-0.5 * a * log_1x2)
    about_ell[i, j] = np.where(
        a == 0.0, -0.5 * np.exp(log_coef[i, 0]) * log_1x2,
        centre[i, 0] * (expm1_m - 2.0 * (1.0 + expm1_m) * np.sin(0.5 * a * np.arctan(x_n)) ** 2))
    i, j = np.nonzero(~near)
    y = ell[i, 0] + np.array([[1.0], [-1.0]]) * taus[j]  # c -/+ i tau = base - i y
    modulus, turn = _power(log_coef[i, 0], alpha[i, 0], base[i, 0], y)
    half = 0.5 * modulus
    cos, sin = half * np.cos(turn), half * np.sin(turn)
    about_ell.real[i, j] = cos[0] + cos[1] - centre.real[i, 0]
    about_ell.imag[i, j] = sin[0] + sin[1] - centre.imag[i, 0]
    return about_0, about_ell


def _bath_terms(a: np.ndarray, theta_t: np.ndarray) -> tuple:
    """G of each bath as sum_r sign_r e^(log_coef_r) (base_r - i t)^(-alpha_r) + const.

    a and theta_T hold one entry per bath.  A bath's last row is the
    zero-temperature term Gamma(a) (1 - i t)^(-a).  At theta_T > 0 the rows
    before it are the thermal part, 2 Gamma(a) sum_{k>=1} (z + k/theta_T)^(-a),
    z = 1 - i t.  Rows k = 1..ZETA_TERMS are its first terms.  With
    W = z + (ZETA_TERMS + 1)/theta_T, Euler-Maclaurin turns the rest into
    2 Gamma(a) times
    theta_T W^(1-a)/(a-1) + W^(-a)/2 + sum_j B_2j/(2j)! (a)_(2j-1) theta_T^(1-2j) W^(1-a-2j),
    one row each.  The first row's exponent a - 1 is 0 at s = 2, where
    theta_T W^(1-a)/(a-1) is -theta_T log W up to a constant; its coefficient
    then leaves out the 1/(a-1) (see `_second_difference`).  Returned as one
    array of four rows (base, alpha, log_coef, sign), a column per term with
    the terms of every bath in turn, and the number of terms of each bath.
    The terms are Python floats, with math.lgamma and math.log, made an array
    once: a run has a few dozen, which numpy calls on tiny arrays would only
    slow down; this also keeps scipy off the sweeps, and numpy's log can
    differ from math's in the last bit.
    """
    log_2, terms, sizes = math.log(2.0), [], []
    for a, th in zip(a.tolist(), theta_t.tolist()):
        lg_a, first = math.lgamma(a), len(terms)
        if th > 0.0:  # a cold bath has the zero-temperature term alone
            log_th, w = math.log(th), 1.0 + (ZETA_TERMS + 1) / th
            pole = 0.0 if a == 1.0 else math.log(abs(a - 1.0))
            terms += [(1.0 + k / th, a, log_2 + lg_a, 1.0) for k in range(1, ZETA_TERMS + 1)]
            terms += [(w, a - 1.0, log_2 + log_th + lg_a - pole, 1.0 if a >= 1.0 else -1.0),
                      (w, a, lg_a, 1.0)]
            terms += [(w, a + two_j - 1, log_2 + math.lgamma(a + two_j - 1) + log_b + (1 - two_j) * log_th,
                       sign_b) for two_j, log_b, sign_b in _BERNOULLI_TERMS]
        terms.append((1.0, a, lg_a, 1.0))
        sizes.append(len(terms) - first)
    return np.array(terms).T, np.array(sizes)


def check_tau(taus) -> np.ndarray:
    """tau, a float or an array, as a float array: the one domain check of tau.
    Raises ValueError for an entry that is negative or not finite."""
    taus = np.asarray(taus, dtype=float)
    bad = ~((taus >= 0.0) & (taus < math.inf))
    if bad.any():
        raise ValueError(f"tau must be finite and >= 0, got {taus[bad][0]}")
    return taus


def check_bath(ohmicity, temperature_ratio, separation) -> np.ndarray:
    """The baths as one float array of three rows (s, theta_T, ell), a column
    per bath: the one domain check of a bath.  The arguments, floats or 1-d
    arrays or lists, are broadcast.  For the first bath with a bad entry it
    raises ValueError naming an ohmicity that is not finite and above 1, else
    a temperature ratio, else a separation, that is not finite and >= 0."""
    bath = np.empty((3,) + (np.broadcast(ohmicity, temperature_ratio, separation).shape or (1,)))
    bath[0], bath[1], bath[2] = ohmicity, temperature_ratio, separation
    bad = ~(np.isfinite(bath) & (bath >= 0.0))
    bad[0] |= bath[0] <= 1.0
    if bad.any():
        b, field = np.argwhere(bad.T)[0]  # the first bad bath and its first bad entry
        rule = ("ohmicity must be finite and exceed 1", "temperature ratio must be finite and >= 0",
                "separation must be finite and >= 0")[field]
        raise ValueError(f"{rule}, got {bath[field, b]}")
    return bath


def decoherence_grid(taus, ohmicity, temperature_ratio, separation) -> tuple:
    """chi and the phase of every bath at every tau: two (baths, taus) arrays,
    a row for each entry of the bath arguments (floats or equal-length arrays).

    They come from the closed form of the module docstring.  G(t) is the sum
    of a bath's `_bath_terms` rows, and chi and the phase are sums of
    `_second_difference`s of these powers, about t = 0 and t = ell
    (G(tau - ell) = conj G(ell - tau), so their real parts agree); a constant
    in G drops out of them.  The rows of all baths, each at its own ell, are
    stacked on one axis, so one `_second_difference` call serves the whole
    grid and a bath's chi sums its own rows.  The phase takes each bath's
    zero-temperature row at t = ell only, so baths that differ only in
    temperature get bit-for-bit the same phases.  tau = 0 and ell = 0 give
    exactly 0.  A bad bath, then a tau that is negative or not finite, raises
    ValueError (`check_bath`, `check_tau`, which the quadrature oracle
    shares), and so does a chi or phase outside the float range (s above
    about 172), naming the first such bath.

    Nothing flags the digits lost at large tau as s -> 1, where chi is a
    small difference of powers of size ~Gamma(s - 1) tau^(2 - s).  Against
    60-digit mpmath at theta_T = 0.9 and s = 1.01, chi's relative error is
    1.5e-7 at tau = 1e8 and 3.8e-5 at tau = 1e12; at s = 1.5, chi stays at
    5.741 for every tau >= 1e150, against 5.975 at tau = 1e10.
    """
    s, th, ell = check_bath(ohmicity, temperature_ratio, separation)
    taus = check_tau(taus)
    chis, phases = np.zeros((2, s.size, taus.size))
    live = ell != 0.0
    if live.any():
        terms, sizes = _bath_terms(s[live] - 1.0, th[live])
        base, alpha, log_coef, sign = terms[:, :, None]
        ell = np.repeat(ell[live], sizes)[:, None]
        ends = np.cumsum(sizes)
        # an overflow shows as a non-finite chi or phase, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            about_0, about_ell = _second_difference(base, ell, alpha, log_coef, taus)
            rows = sign * (about_ell.real - about_0)
            chis[live] = 2.0 * np.add.reduceat(rows, ends - sizes, axis=0)
            phases[live] = -0.5 * about_ell[ends - 1].imag
        chis[:, taus == 0.0] = 0.0
        phases[:, taus == 0.0] = 0.0
        bad = ~(np.isfinite(chis).all(axis=1) & np.isfinite(phases).all(axis=1))
        if bad.any():
            raise ValueError(f"the decoherence factor at s={s[np.argmax(bad)]:g} "
                             "leaves the float range")
    return chis, phases

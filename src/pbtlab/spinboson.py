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
constant in G cancels.  chi steps by the shorter of tau and ell about the
longer.  Its arithmetic is float64 throughout, except near the centre
y != 0 of a step h: there the first-order cancellation of the powers is
taken out by a series in the complex ratio h / (b - i y), b the real base
of a power in G, and that series stays complex (see `_second_difference`).
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


def _bracket(alpha, x, log_1x2):
    """expm1(m) - 2 e^m sin^2(alpha arctan(x) / 2), m = -(alpha/2) log(1 + x^2), for
    real or complex x and its log(1 + x^2): the series of `_second_difference`."""
    expm1_m = np.expm1(-0.5 * alpha * log_1x2)
    return expm1_m - 2.0 * (1.0 + expm1_m) * np.sin(0.5 * alpha * np.arctan(x)) ** 2


def _second_difference(base, alpha, log_coef, h: np.ndarray, y: np.ndarray) -> tuple:
    """D(c) = e^log_coef [(c - i h)^(-alpha)/2 + (c + i h)^(-alpha)/2 - c^(-alpha)]
    for columns base, alpha, log_coef (one row each) and (rows, taus) arrays
    of steps h and centres y, about c = base and about c = base - i y: two
    (rows, taus) arrays, D(base) real and D(base - i y) complex.

    Each power is one exp of a logarithm, so a large coefficient does not
    overflow on its own.  Summed directly, the three powers cancel as h -> 0;
    with x = h / c the bracket is
    c^(-alpha) [expm1(m) - 2 e^m sin^2(alpha arctan(x) / 2)], m = -(alpha/2) log(1 + x^2)
    (e^m as 1 + expm1(m), whose rounding stays within the bracket's;
    `_bracket`), which takes that cancellation out.  Where alpha = 0 it
    returns the limit of the bracket over alpha, -(1/2) log(1 + x^2) times
    e^log_coef.

    About 0, c and x are real, the series is exact at every x and it is
    evaluated in float64 over the whole array.  About y, x is complex; the
    series, in complex expm1, sin and arctan of it, is taken at the near
    entries, |alpha| h < |c| / 2 (log(1 + x^2) is by hand: numpy's complex
    log1p loses small arguments).  At the far entries the powers differ in
    size by large factors and that product would lose their phases, so
    there the three powers are `_power`s at y + h, y - h and y, summed in
    float64.  Each branch about y is gathered by index pairs and evaluated
    on its own entries.
    """
    # about 0: the series over every entry in float64
    x = h / base
    log_1x2 = np.log1p(x * x)
    about_0 = np.where(alpha == 0.0, -0.5 * np.exp(log_coef) * log_1x2,
                       np.exp(log_coef - alpha * np.log(base)) * _bracket(alpha, x, log_1x2))

    # about y: the near entries (alpha = 0 among them) in complex, the far in float64
    near = np.abs(alpha) * h < 0.5 * np.hypot(base, y)
    about_y = np.empty(near.shape, dtype=complex)
    i, j = np.nonzero(near)
    a, log_coef_n, y_n = alpha[i, 0], log_coef[i, 0], y[i, j]
    modulus, turn = _power(log_coef_n, a, base[i, 0], y_n)
    x = h[i, j] / (base[i, 0] - 1j * y_n)
    x2 = x * x
    log_1x2 = (0.5 * np.log1p(x2.real * (2.0 + x2.real) + x2.imag ** 2)
               + 1j * np.arctan2(x2.imag, 1.0 + x2.real))
    about_y[i, j] = np.where(a == 0.0, -0.5 * np.exp(log_coef_n) * log_1x2,
                             modulus * (np.cos(turn) + 1j * np.sin(turn)) * _bracket(a, x, log_1x2))
    i, j = np.nonzero(~near)
    y_far = y[i, j] + [[1.0], [-1.0], [0.0]] * h[i, j]  # c -/+ i h and c are base - i y_far
    modulus, turn = _power(log_coef[i, 0], alpha[i, 0], base[i, 0], y_far)
    half = np.array([[0.5], [0.5], [1.0]]) * modulus
    cos, sin = half * np.cos(turn), half * np.sin(turn)
    about_y.real[i, j] = cos[0] + cos[1] - cos[2]
    about_y.imag[i, j] = sin[0] + sin[1] - sin[2]
    return about_0, about_y


def _bath_terms(a: np.ndarray, theta_t: np.ndarray) -> tuple:
    """G of each bath as sum_r sign_r e^(log_coef_r) (base_r - i t)^(-alpha_r) + const.

    a and theta_T hold one entry per bath.  A bath's last row is the
    zero-temperature term Gamma(a) (1 - i t)^(-a).  At theta_T > 0 the rows
    before it are the thermal part, 2 Gamma(a) sum_{k>=1} (z + k/theta_T)^(-a),
    z = 1 - i t; a bath whose W below is past the float range (theta_T below
    ~7e-308) counts as cold, as the thermal part's second differences fall
    like theta_T^(a+2).  Rows k = 1..ZETA_TERMS are its first terms.  With
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
        w = 1.0 + (ZETA_TERMS + 1) / th if th > 0.0 else math.inf
        if w < math.inf:  # a cold bath, W past the float range included, has no thermal rows
            log_th, pole = math.log(th), 0.0 if a == 1.0 else math.log(abs(a - 1.0))
            terms += [(1.0 + k / th, a, log_2 + lg_a, 1.0) for k in range(1, ZETA_TERMS + 1)]
            terms += [(w, a - 1.0, log_2 + log_th + lg_a - pole, 1.0 if a >= 1.0 else -1.0),
                      (w, a, lg_a, 1.0)]
            terms += [(w, a + two_j - 1, log_2 + math.lgamma(a + two_j - 1) + log_b + (1 - two_j) * log_th,
                       sign_b) for two_j, log_b, sign_b in _BERNOULLI_TERMS]
        terms.append((1.0, a, lg_a, 1.0))
        sizes.append(len(terms) - first)
    return np.array(terms).reshape(-1, 4).T, np.array(sizes, dtype=int)


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
    `_second_difference`s of these powers; a constant in G drops out of them.
    chi = 2 Re[D_tau(ell) - D_tau(0)], D_h(y) = G(y + h)/2 + G(y - h)/2 - G(y),
    is symmetric in tau and ell, so its rows step by h = min(tau, ell) about
    y = max(tau, ell): the far powers at large tau then fall in the series
    about y, and chi(tau, ell) = chi(ell, tau) bit for bit.  The phase,
    -1/2 Im D_tau(ell) of the zero-temperature term, is not symmetric: each
    bath's zero-temperature row is stacked once more at (h, y) = (tau, ell),
    so baths that differ only in temperature get bit-for-bit the same
    phases.  The rows of all baths are stacked on one axis, so one
    `_second_difference` call serves the whole grid and a bath's chi sums
    its own rows.  tau = 0 and ell = 0 give exactly 0.  A bad bath, then a
    tau that is negative or not finite, raises ValueError (`check_bath`,
    `check_tau`, which the quadrature oracle shares), and so does a chi or
    phase outside the float range (s above about 172), naming the first such
    bath, or the largest s where log Gamma(s - 1) itself overflows.
    """
    s, th, ell = check_bath(ohmicity, temperature_ratio, separation)
    taus = check_tau(taus)
    try:
        terms, sizes = _bath_terms(s - 1.0, th)
    except OverflowError:  # math.lgamma past s ~ 2.5e305
        raise ValueError(f"the decoherence factor at s={s.max():g} leaves the float range") from None
    ends, n = np.cumsum(sizes), sizes.sum()  # the n rows of chi, then a phase row per bath
    base, alpha, log_coef, sign = np.concatenate([terms, terms[:, ends - 1]], axis=1)[:, :, None]
    row_ell = np.concatenate([np.repeat(ell, sizes), ell])[:, None]
    h, y = np.minimum(taus, row_ell), np.maximum(taus, row_ell)
    h[n:], y[n:] = taus, row_ell[n:]
    # an overflow shows as a non-finite chi or phase, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        about_0, about_y = _second_difference(base, alpha, log_coef, h, y)
        rows = sign * (about_y.real - about_0)
        chis = 2.0 * np.add.reduceat(rows[:n], ends - sizes, axis=0)
    phases = -0.5 * about_y[n:].imag
    chis[:, taus == 0.0] = phases[:, taus == 0.0] = 0.0
    chis[ell == 0.0] = phases[ell == 0.0] = 0.0
    bad = ~(np.isfinite(chis).all(axis=1) & np.isfinite(phases).all(axis=1))
    if bad.any():
        raise ValueError(f"the decoherence factor at s={s[np.argmax(bad)]:g} "
                         "leaves the float range")
    return chis, phases

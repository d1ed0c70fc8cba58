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
constant in G cancels.
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
_LOG_BERNOULLI = np.log(np.abs(_BERNOULLI_OVER_FACTORIAL))
_TWO_J = 2 * np.arange(1, _BERNOULLI_OVER_FACTORIAL.size + 1)
_SIGN_BERNOULLI = np.sign(_BERNOULLI_OVER_FACTORIAL)
_K = np.arange(1, ZETA_TERMS + 1)


def _second_difference(c, alpha, log_coef, taus: np.ndarray) -> np.ndarray:
    """e^log_coef [(c - i tau)^(-alpha)/2 + (c + i tau)^(-alpha)/2 - c^(-alpha)], Re c > 0,
    for columns c, alpha, log_coef (one row each) against a row of taus.

    Each power is one exp of a logarithm, so a large coefficient does not
    overflow on its own.  Summed directly, the three powers cancel as
    tau -> 0; where |alpha x| < 1/2, x = tau / c, the bracket is therefore
    c^(-alpha) [expm1(m) - 2 e^m sin^2(alpha arctan(x) / 2)], m = -(alpha/2) log(1 + x^2)
    (log1p by hand: numpy's complex log1p loses small arguments).  Farther out
    the direct sum is kept: there the powers differ in size by large factors
    and that product would lose their phases.  Where alpha = 0 it returns the
    limit of the bracket over alpha, -(1/2) log(1 + x^2) times e^log_coef.
    Each entry is evaluated on its own branch only.  For a real c the two
    powers are conjugates, so the direct sum takes one and keeps its real part.
    """
    x = taus / c
    limit = np.broadcast_to(alpha == 0.0, x.shape)
    near = (np.abs(alpha * x) < 0.5) & ~limit
    far = ~(near | limit)
    centre = np.exp(log_coef - alpha * np.log(c))
    out = np.empty(x.shape, dtype=complex)

    def at(mask, *cols):
        return [np.broadcast_to(col, x.shape)[mask] for col in cols]

    def log1p_x2(y):
        x2 = y * y
        return (0.5 * np.log1p(x2.real * (2.0 + x2.real) + x2.imag ** 2)
                + 1j * np.arctan2(x2.imag, 1.0 + x2.real))

    x_n, alpha_n, centre_n = at(near, x, alpha, centre)
    m = -0.5 * alpha_n * log1p_x2(x_n)
    out[near] = centre_n * (np.expm1(m) - 2.0 * np.exp(m) * np.sin(0.5 * alpha_n * np.arctan(x_n)) ** 2)
    c_f, tau_f, alpha_f, log_coef_f, centre_f = at(far, c, taus, alpha, log_coef, centre)
    power = np.exp(log_coef_f - alpha_f * np.log(c_f - 1j * tau_f))
    if np.isrealobj(c):
        out[far] = power.real - centre_f
    else:
        out[far] = 0.5 * (power + np.exp(log_coef_f - alpha_f * np.log(c_f + 1j * tau_f))) - centre_f
    x_l, log_coef_l = at(limit, x, log_coef)
    out[limit] = -0.5 * np.exp(log_coef_l) * log1p_x2(x_l)
    return out


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
    then leaves out the 1/(a-1) (see `_second_difference`).  Returned as
    (base, alpha, log_coef, sign), each with the rows of every bath in turn,
    and the number of rows of each bath, from one pass.  The log-gammas of a
    and a_j, log theta_T and log|a - 1| are math.lgamma and math.log, one
    call per entry: this keeps scipy off the sweeps, and numpy's log can
    differ from math's in the last bit.
    """
    hot = theta_t > 0.0
    th = np.where(hot, theta_t, 1.0)[:, None]  # a cold bath's thermal rows are dropped
    log_th = np.array([[math.log(t)] for t in th[:, 0]])
    pole = np.array([[0.0 if x == 1.0 else math.log(abs(x - 1.0))] for x in a])
    a = a[:, None]
    a_j = a + _TWO_J - 1
    lg = np.array([[math.lgamma(x) for x in row] for row in np.hstack((a, a_j)).tolist()])
    lg_a, log_2, z = lg[:, :1], math.log(2.0), ZETA_TERMS
    # per bath: zeta rows 0..z-1, the W^(1-a), W^(-a) rows z, z+1, the Bernoulli rows, the cold row
    base, alpha, log_coef, sign = terms = np.empty((4, a.size, z + _TWO_J.size + 3))
    base[:, :z], base[:, z:-1], base[:, -1:] = 1.0 + _K / th, 1.0 + (z + 1) / th, 1.0
    alpha[:], alpha[:, z:z + 1], alpha[:, z + 2:-1] = a, a - 1.0, a_j
    log_coef[:], log_coef[:, :z] = lg_a, log_2 + lg_a
    log_coef[:, z:z + 1] = log_2 + log_th + lg_a - pole
    log_coef[:, z + 2:-1] = log_2 + lg[:, 1:] + _LOG_BERNOULLI + (1 - _TWO_J) * log_th
    sign[:], sign[:, z:z + 1], sign[:, z + 2:-1] = 1.0, np.where(a >= 1.0, 1.0, -1.0), _SIGN_BERNOULLI
    keep = np.ones(base.shape, dtype=bool)
    keep[~hot, :-1] = False
    return terms[:, keep], keep.sum(axis=1)


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
    arrays, are broadcast.  For the first bath with a bad entry it raises
    ValueError naming an ohmicity that is not finite and above 1, else a
    temperature ratio, else a separation, that is not finite and >= 0."""
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
    stacked on one axis, so two `_second_difference` calls serve the whole
    grid and a bath's chi sums its own rows.  The phase takes each bath's
    zero-temperature row at t = ell only, so baths that differ only in
    temperature get bit-for-bit the same phases.  tau = 0 and ell = 0 give
    exactly 0.  A bad bath, then a tau that is negative or not finite, raises
    ValueError (`check_bath`, `check_tau`, which the quadrature oracle
    shares), and so does a chi or phase outside the float range (s above
    about 172), naming the first such bath.
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
            about_ell = _second_difference(base - 1j * ell, alpha, log_coef, taus)
            about_0 = _second_difference(base, alpha, log_coef, taus)
            rows = sign * (about_ell.real - about_0.real)
            chis[live] = 2.0 * np.add.reduceat(rows, ends - sizes, axis=0)
            phases[live] = -0.5 * about_ell[ends - 1].imag
        chis[:, taus == 0.0] = 0.0
        phases[:, taus == 0.0] = 0.0
        bad = ~(np.isfinite(chis).all(axis=1) & np.isfinite(phases).all(axis=1))
        if bad.any():
            raise ValueError(f"the decoherence factor at s={s[np.argmax(bad)]:g} "
                             "leaves the float range")
    return chis, phases

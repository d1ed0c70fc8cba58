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
`quadrature.decoherence_and_error` integrates the frequency integrals by
adaptive quadrature and is the independent check of that route.

The module is the bath alone: it imports no fidelity route.  `cli.cmd_spinboson`
turns |gamma| = e^(-chi) and the phase into each measurement's fidelity.
"""

from __future__ import annotations

import math

import numpy as np


# The Hurwitz zeta of the thermal part is summed over ZETA_TERMS terms
# directly and the rest by Euler-Maclaurin (DLMF 2.10.1, 25.11.5), whose
# terms times 2 Gamma(a) are rows c Gamma(a + d) theta_T^(-d) W^(-a-d), each
# kept as (d, log|c|, sign c): k = 0 the integral (d = -1, c = 2), k = 1
# the half term (d = 0, c = 1), then B_2 .. B_20 (d = 2j - 1, c = 2 B_2j/(2j)!).
ZETA_TERMS = 12
_BERNOULLI_OVER_FACTORIAL = np.array([
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330]) / np.array([math.factorial(2 * j) for j in range(1, 11)])
_EULER_MACLAURIN = ((-1, math.log(2.0), 1.0), (0, 0.0, 1.0)) + tuple(zip(
    range(1, 20, 2), np.log(2.0 * np.abs(_BERNOULLI_OVER_FACTORIAL)).tolist(),
    np.sign(_BERNOULLI_OVER_FACTORIAL).tolist()))


def _power(log_coef, alpha, b, y) -> tuple:
    """e^log_coef (b - i y)^(-alpha) for real b > 0 and y, in float64: its
    modulus e^(log_coef - alpha log hypot(b, y)) and its argument alpha atan2(y, b)."""
    return np.exp(log_coef - alpha * np.log(np.hypot(b, y))), alpha * np.arctan2(y, b)


def _bracket(alpha, x, log_1x2):
    """expm1(m) - 2 e^m sin^2(alpha arctan(x) / 2), m = -(alpha/2) log(1 + x^2), for
    real or complex x and its log(1 + x^2): the series of `_second_difference`.
    Where alpha = 0 it is -(1/2) log(1 + x^2), the limit of the bracket over alpha."""
    expm1_m = np.expm1(-0.5 * alpha * log_1x2)
    return np.where(alpha == 0.0, -0.5 * log_1x2,
                    expm1_m - 2.0 * (1.0 + expm1_m) * np.sin(0.5 * alpha * np.arctan(x)) ** 2)


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
    `_bracket`, which also owns its alpha = 0 limit), which takes that
    cancellation out.  Every e^log_coef c^(-alpha) is a `_power`.

    About 0, c and x are real, the series is exact at every x and it is
    evaluated in float64 over the whole array.  About y, x is complex; the
    series, in complex expm1, sin and arctan of it, is taken at the near
    entries, |alpha| h < 3 |c| / 4 (log(1 + x^2) is by hand: numpy's complex
    log1p loses small arguments).  At the far entries the powers differ in
    size by large factors and that product would lose their phases, so
    there the three powers are `_power`s at y + h, y - h and y, summed in
    float64.  Each branch about y is gathered by index pairs and evaluated
    on its own entries.
    """
    # about 0: the series over every entry in float64
    x = h / base
    log_1x2 = np.log1p(x * x)
    about_0 = _power(log_coef, alpha, base, 0.0)[0] * _bracket(alpha, x, log_1x2)

    # about y: the near entries (alpha = 0 among them) in complex, the far in float64
    near = np.abs(alpha) * h < 0.75 * np.hypot(base, y)
    about_y = np.empty(near.shape, dtype=complex)
    i, j = np.nonzero(near)
    a, log_coef_n, y_n = alpha[i, 0], log_coef[i, 0], y[i, j]
    modulus, turn = _power(log_coef_n, a, base[i, 0], y_n)
    x = h[i, j] / (base[i, 0] - 1j * y_n)
    x2 = x * x
    log_1x2 = (0.5 * np.log1p(x2.real * (2.0 + x2.real) + x2.imag ** 2)
               + 1j * np.arctan2(x2.imag, 1.0 + x2.real))
    about_y[i, j] = modulus * (np.cos(turn) + 1j * np.sin(turn)) * _bracket(a, x, log_1x2)
    i, j = np.nonzero(~near)
    y_far = y[i, j] + [[1.0], [-1.0], [0.0]] * h[i, j]  # c -/+ i h and c are base - i y_far
    modulus, turn = _power(log_coef[i, 0], alpha[i, 0], base[i, 0], y_far)
    half = np.array([[0.5], [0.5], [1.0]]) * modulus
    cos, sin = half * np.cos(turn), half * np.sin(turn)
    about_y.real[i, j] = cos[0] + cos[1] - cos[2]
    about_y.imag[i, j] = sin[0] + sin[1] - sin[2]
    return about_0, about_y


def _bath_terms(a: np.ndarray, theta_t: np.ndarray, ell: np.ndarray) -> tuple:
    """The table `decoherence_grid` evaluates: G(t) of each bath as
    sum_r sign_r e^(log_coef_r) (base_r - i t)^(-alpha_r) + const, a column per row r.

    a, theta_T and ell hold one entry per bath.  Every row follows one rule,
    c Gamma(alpha) (b - i t)^(-alpha) for real c: a bath lists its terms
    (b, alpha, log|c|, sign c) and one pass adds log|Gamma(alpha)| and the
    sign of Gamma(alpha), save at alpha = 0, where the row is -c log(b - i t)
    up to a constant (`_bracket` owns that limit).  Each bath has the
    zero-temperature term Gamma(a) (1 - i t)^(-a).  At theta_T > 0 the
    thermal part, 2 Gamma(a) sum_{k>=1} (z + k/theta_T)^(-a), z = 1 - i t,
    adds its terms k = 1..ZETA_TERMS (c = 2) and, with
    W = z + (ZETA_TERMS + 1)/theta_T, the `_EULER_MACLAURIN` rest at base W;
    a bath whose W is past the float range (theta_T below ~7e-308) counts as
    cold, as the thermal part's second differences fall like theta_T^(a+2).
    Returned: five rows (base, alpha, log_coef, sign, ell), every bath's G
    rows in turn with its separation, then each bath's zero-temperature row
    once more for the phase; and the column of each bath's first row.  The
    rows are Python floats (math.lgamma, math.log; numpy's log can differ in
    the last bit) made an array once, which keeps scipy and tiny numpy calls
    off the sweeps.
    """
    terms, phase_terms, starts = [], [], []
    for a, th, sep in zip(a.tolist(), theta_t.tolist(), ell.tolist()):
        starts.append(len(terms))
        w = 1.0 + (ZETA_TERMS + 1) / th if th > 0.0 else math.inf
        if w < math.inf:  # a cold bath, W past the float range included, has no thermal terms
            terms += [(1.0 + k / th, a, math.log(2.0), 1.0, sep) for k in range(1, ZETA_TERMS + 1)]
            terms += [(w, a + d, log_c - d * math.log(th), sign_c, sep)
                      for d, log_c, sign_c in _EULER_MACLAURIN]
        terms.append((1.0, a, 0.0, 1.0, sep))
        phase_terms.append(terms[-1])
    rows = [(b, alpha, log_c + (math.lgamma(alpha) if alpha else 0.0),
             -sign_c if alpha < 0.0 and math.floor(alpha) % 2 else sign_c, sep)
            for b, alpha, log_c, sign_c, sep in terms + phase_terms]
    return np.array(rows).reshape(-1, 5).T, np.array(starts, dtype=int)


def check_bath(taus, ohmicity, temperature_ratio, separation) -> tuple:
    """tau as a float array, and the baths as one float array of three rows
    (s, theta_T, ell), a column per bath: the one domain check of a bath
    evaluation.  tau is a float or a 1-d array; the bath arguments, floats or
    1-d arrays or lists, are broadcast.  More dimensions raise ValueError
    naming the shapes.  For the first bath with a bad entry it raises
    ValueError naming an ohmicity that is not finite and above 1, else a
    temperature ratio, else a separation, that is not finite and >= 0; then
    for the first tau that is negative or not finite."""
    taus = np.asarray(taus, dtype=float)
    shape = np.broadcast(ohmicity, temperature_ratio, separation).shape
    if taus.ndim > 1 or len(shape) > 1:
        raise ValueError("tau and the baths must be at most 1-d, "
                         f"got shapes {taus.shape} and {shape}")
    bath = np.empty((3,) + (shape or (1,)))
    bath[0], bath[1], bath[2] = ohmicity, temperature_ratio, separation
    bad = ~(np.isfinite(bath) & (bath >= 0.0))
    bad[0] |= bath[0] <= 1.0
    if bad.any():
        b, field = np.argwhere(bad.T)[0]  # the first bad bath and its first bad entry
        rule = ("ohmicity must be finite and exceed 1", "temperature ratio must be finite and >= 0",
                "separation must be finite and >= 0")[field]
        raise ValueError(f"{rule}, got {bath[field, b]}")
    bad = ~((taus >= 0.0) & (taus < math.inf))
    if bad.any():
        raise ValueError(f"tau must be finite and >= 0, got {taus[bad][0]}")
    return taus, bath


def decoherence_grid(taus, ohmicity, temperature_ratio, separation) -> tuple:
    """chi and the phase of every bath at every tau: two (baths, taus) arrays,
    a row for each entry of the bath arguments (floats or equal-length arrays).

    Both are sums of `_second_difference`s of the `_bath_terms` table's
    powers, taken as the table gives them.  chi = 2 Re[D_tau(ell) - D_tau(0)],
    D_h(y) = G(y + h)/2 + G(y - h)/2 - G(y), is symmetric in tau and ell, so
    the G rows step by h = min(tau, ell) about y = max(tau, ell): the far
    powers at large tau then fall in the series about y, and
    chi(tau, ell) = chi(ell, tau) bit for bit.  The phase rows, -1/2 Im D_tau(ell)
    of the zero-temperature term, take (h, y) = (tau, ell), so baths that
    differ only in temperature get bit-for-bit the same phases.  One kernel
    call serves the table; a bath's chi sums its own G rows.  tau = 0 and
    ell = 0 give exactly 0.  A bad bath, then a tau that is negative or not
    finite, raises ValueError (`check_bath`, which the quadrature oracle
    shares), and so does a chi or phase outside the float range (s above
    about 172), naming the first such bath, or the largest s where
    log Gamma(s - 1) itself overflows.  At theta_T > 0 chi loses about
    1e-16 / (s - 1) relative as s -> 1, unflagged (4.3e-5 at s - 1 = 1e-12,
    0.15 at 1e-15; cold baths within 5e-15): the row 2 Gamma(a - 1) theta_T W^(1-a)
    has a coefficient ~1/(s - 1) and, at alpha -> -1, a second difference ~0.
    """
    taus, (s, th, ell) = check_bath(taus, ohmicity, temperature_ratio, separation)
    try:
        table, starts = _bath_terms(s - 1.0, th, ell)
    except OverflowError:  # math.lgamma past s ~ 2.5e305
        raise ValueError(f"the decoherence factor at s={s.max():g} leaves the float range") from None
    base, alpha, log_coef, sign, row_ell = table[:, :, None]
    n = len(base) - len(ell)  # the n rows of chi, then a phase row per bath
    h, y = np.minimum(taus, row_ell), np.maximum(taus, row_ell)
    h[n:], y[n:] = taus, row_ell[n:]
    # an overflow shows as a non-finite chi or phase, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        about_0, about_y = _second_difference(base, alpha, log_coef, h, y)
        rows = sign * (about_y.real - about_0)
        chis = 2.0 * np.add.reduceat(rows[:n], starts, axis=0)
    phases = -0.5 * about_y[n:].imag
    chis[:, taus == 0.0] = phases[:, taus == 0.0] = 0.0
    chis[ell == 0.0] = phases[ell == 0.0] = 0.0
    bad = ~(np.isfinite(chis).all(axis=1) & np.isfinite(phases).all(axis=1))
    if bad.any():
        raise ValueError(f"the decoherence factor at s={s[np.argmax(bad)]:g} "
                         "leaves the float range")
    return chis, phases

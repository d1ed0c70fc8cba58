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

`decoherence_grid` evaluates these for a list of baths on a whole tau grid at
once; the weights of each combination sum to zero, so a t-independent
constant in G cancels.
`chi` and `phase` integrate the frequency integrals by adaptive quadrature
and are the independent check of that route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from . import closedform
from .ensemble import DephasingParams
from .fidelity import pgm_fidelities_reduced

SMALL_W = 1e-6
# QUADPACK's absolute tolerance and subdivision limit on each panel
QUAD_ABS_TOL = 1e-12
QUAD_MAX_SUBDIVISIONS = 200
# Measurements a fidelity curve can be computed for; see fidelities_vs_time.
POVM_MODES = ("closed_form", "noise_adapted")


class QuadratureError(ArithmeticError):
    """Raised when the frequency integral fails to converge."""


@dataclass(frozen=True)
class QuadratureSettings:
    upper_cutoff: float = 0.0  # 0 means auto: 40 + 10 s
    rel_tol: float = 1e-10

    def cutoff_for(self, ohmicity: float) -> float:
        if self.upper_cutoff > 0.0:
            return self.upper_cutoff
        return 40.0 + 10.0 * ohmicity


@dataclass(frozen=True)
class SpinBosonParams:
    """One bath and separation.  `quad` steers only the quadrature (`chi`,
    `phase`); the analytic route that `spinboson` rows use does not read it."""

    ohmicity: float
    temperature_ratio: float = 0.0
    separation: float = 0.0
    quad: QuadratureSettings = field(default_factory=QuadratureSettings)

    def __post_init__(self):
        if not self.ohmicity > 1.0:
            raise ValueError(f"ohmicity must exceed 1, got {self.ohmicity}")
        if self.temperature_ratio < 0.0:
            raise ValueError(f"temperature ratio must be >= 0, got {self.temperature_ratio}")
        if self.separation < 0.0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")


@dataclass(frozen=True)
class DecoherenceFactor:
    chi: float
    phase: float

    @property
    def gamma_abs(self) -> float:
        return math.exp(-self.chi)

    @property
    def as_params(self) -> DephasingParams:
        return DephasingParams(self.gamma_abs, math.atan2(
            math.sin(self.phase), math.cos(self.phase)))


def _coth_half(w: float, theta_t: float) -> float:
    """coth(w / (2 theta_T)), with the zero-temperature limit 1."""
    if theta_t == 0.0:
        return 1.0
    x = w / (2.0 * theta_t)
    if x > 20.0:
        return 1.0
    return 1.0 / math.tanh(x)


def _panel_integrate(f: Callable[[float], float], lo: float, hi: float,
                     panel_width: float, quad: QuadratureSettings) -> tuple:
    """Adaptive quadrature summed over panels no wider than panel_width, and
    QUADPACK's error estimate summed over the panels."""
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    total = error = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = integrate.quad(
            f, a, b,
            epsabs=QUAD_ABS_TOL, epsrel=quad.rel_tol, limit=QUAD_MAX_SUBDIVISIONS,
        )
        if not math.isfinite(val):
            raise QuadratureError(
                f"quadrature gave a non-finite value on panel [{a:g}, {b:g}]")
        total += val
        error += err
    return total, error


def _panel_width(tau: float, ell: float) -> float:
    return math.pi / max(tau, ell, 1.0)


def chi(tau: float, params: SpinBosonParams) -> float:
    """Decay exponent chi(tau, ell) >= 0."""
    return chi_and_error(tau, params)[0]


def chi_and_error(tau: float, params: SpinBosonParams) -> tuple:
    """chi and the error estimate of its quadrature (0 where chi is exactly 0)."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    s, th, ell = params.ohmicity, params.temperature_ratio, params.separation
    if tau == 0.0 or ell == 0.0:
        return 0.0, 0.0

    def integrand(w: float) -> float:
        return (
            2.0 * w ** (s - 2.0) * math.exp(-w)
            * (1.0 - math.cos(w * tau))
            * _coth_half(w, th)
            * (1.0 - math.cos(w * ell))
        )

    # Below SMALL_W the two cosine differences contribute w^4 tau^2 ell^2 / 4,
    # and coth contributes 2 theta_T / w at finite temperature (1 at theta_T = 0),
    # leaving an integrable power of w that we integrate analytically.
    eps = SMALL_W
    if th > 0.0:
        # integrand ~ tau^2 ell^2 theta_T w^(s+1)
        head = tau * tau * ell * ell * th * eps ** (s + 2.0) / (s + 2.0)
    else:
        # integrand ~ (tau^2 ell^2 / 2) w^(s+2)
        head = 0.5 * tau * tau * ell * ell * eps ** (s + 3.0) / (s + 3.0)
    omega_max = params.quad.cutoff_for(s)
    tail, error = _panel_integrate(integrand, eps, omega_max,
                                   _panel_width(tau, ell), params.quad)
    return head + tail, error


def phase(tau: float, params: SpinBosonParams) -> float:
    """Phase theta(tau, ell); independent of temperature.

    A reliable oracle only up to s ~ 10: the integrand is of size Gamma(s-1)
    and the quadrature tolerances cannot resolve its cancellation beyond.
    Against `decoherence_factors` (itself checked against mpmath) the
    relative gap is 4e-12 at s = 10, 4e-9 at s = 15, 5e-6 at s = 20 and 0.6
    at s = 30.
    """
    return phase_and_error(tau, params)[0]


def phase_and_error(tau: float, params: SpinBosonParams) -> tuple:
    """The phase and the error estimate of its quadrature (0 where it is exactly 0)."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    s, ell = params.ohmicity, params.separation
    if tau == 0.0 or ell == 0.0:
        return 0.0, 0.0

    def integrand(w: float) -> float:
        return (
            0.5 * w ** (s - 2.0) * math.exp(-w)
            * (1.0 - math.cos(w * tau))
            * math.sin(w * ell)
        )

    # small-w: (1 - cos) sin ~ (tau^2 / 2) w^2 * ell w, so integrand ~ (tau^2 ell / 4) w^(s+1)
    eps = SMALL_W
    head = 0.25 * tau * tau * ell * eps ** (s + 2.0) / (s + 2.0)
    omega_max = params.quad.cutoff_for(s)
    tail, error = _panel_integrate(integrand, eps, omega_max,
                                   _panel_width(tau, ell), params.quad)
    return head + tail, error


# The Hurwitz zeta of the thermal part is summed over ZETA_TERMS terms
# directly and the rest by Euler-Maclaurin (DLMF 2.10.1, 25.11.5) with the
# Bernoulli numbers B_2 .. B_20, each over (2j)!.
ZETA_TERMS = 12
_BERNOULLI_OVER_FACTORIAL = np.array([
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330]) / np.array([math.factorial(2 * j) for j in range(1, 11)])


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


def _bath_terms(a: float, theta_t: float) -> tuple:
    """G as sum_r sign_r e^(log_coef_r) (base_r - i t)^(-alpha_r) + const.

    The last row is the zero-temperature term Gamma(a) (1 - i t)^(-a).  At
    theta_T > 0 the rows before it are the thermal part, 2 Gamma(a)
    sum_{k>=1} (z + k/theta_T)^(-a), z = 1 - i t.  Rows k = 1..ZETA_TERMS are
    its first terms.  With W = z + (ZETA_TERMS + 1)/theta_T, Euler-Maclaurin
    turns the rest into 2 Gamma(a) times
    theta_T W^(1-a)/(a-1) + W^(-a)/2 + sum_j B_2j/(2j)! (a)_(2j-1) theta_T^(1-2j) W^(1-a-2j),
    one row each.  The first row's exponent a - 1 is 0 at s = 2, where
    theta_T W^(1-a)/(a-1) is -theta_T log W up to a constant; its coefficient
    then leaves out the 1/(a-1) (see `_second_difference`).  Returned as
    (base, alpha, log_coef, sign) arrays.
    """
    lg = gammaln(a)
    cold = ([1.0], [a], [lg], [1.0])
    if theta_t == 0.0:
        return tuple(np.array(col) for col in cold)
    k = np.arange(1, ZETA_TERMS + 1)
    w_0 = 1.0 + (ZETA_TERMS + 1) / theta_t
    j = np.arange(1, _BERNOULLI_OVER_FACTORIAL.size + 1)
    log_2, log_th = math.log(2.0), math.log(theta_t)
    pole = 0.0 if a == 1.0 else math.log(abs(a - 1.0))
    base = (1.0 + k / theta_t, np.full(j.size + 2, w_0))
    alpha = (np.full(k.size, a), [a - 1.0, a], a + 2 * j - 1)
    log_coef = (
        np.full(k.size, log_2 + lg), [log_2 + log_th + lg - pole, lg],
        log_2 + gammaln(a + 2 * j - 1) + np.log(np.abs(_BERNOULLI_OVER_FACTORIAL)) + (1 - 2 * j) * log_th)
    sign = (np.ones(k.size), [1.0 if a >= 1.0 else -1.0, 1.0], np.sign(_BERNOULLI_OVER_FACTORIAL))
    return tuple(np.concatenate((*col, hot)) for col, hot in zip((base, alpha, log_coef, sign), cold))


def decoherence_grid(taus: Sequence[float], baths: Sequence[SpinBosonParams]) -> tuple:
    """chi and the phase of every bath at every tau: two (baths, taus) arrays.

    They come from the closed form of the module docstring.  G(t) is the sum
    of a bath's `_bath_terms` rows, and chi and the phase are sums of
    `_second_difference`s of these powers, about t = 0 and t = ell
    (G(tau - ell) = conj G(ell - tau), so their real parts agree); a constant
    in G drops out of them.  The rows of all baths, each at its own ell, are
    stacked on one axis, so two `_second_difference` calls serve the whole
    grid and a bath's chi sums its own rows.  The phase takes each bath's
    zero-temperature row at t = ell only, so baths that differ only in
    temperature get bit-for-bit the same phases.  tau = 0 and ell = 0 give
    exactly 0.  A chi or phase outside the float range (s above about 172)
    raises ValueError naming the first such bath.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0.0):
        raise ValueError(f"tau must be >= 0, got {taus.min()}")
    chis, phases = np.zeros((2, len(baths), taus.size))
    live = [b for b, p in enumerate(baths) if p.separation != 0.0]
    if live:
        terms = [_bath_terms(baths[b].ohmicity - 1.0, baths[b].temperature_ratio) for b in live]
        base, alpha, log_coef, sign = (np.concatenate(col)[:, None] for col in zip(*terms))
        sizes = [t[0].size for t in terms]
        ell = np.repeat([baths[b].separation for b in live], sizes)[:, None]
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
            s = baths[int(np.argmax(bad))].ohmicity
            raise ValueError(f"the decoherence factor at s={s:g} leaves the float range")
    return chis, phases


def decoherence_factors(taus: Sequence[float], params: SpinBosonParams) -> list:
    """chi and the phase of one bath at every tau (see `decoherence_grid`)."""
    chis, phases = decoherence_grid(taus, [params])
    return [DecoherenceFactor(c, p) for c, p in zip(chis[0].tolist(), phases[0].tolist())]


def decoherence_factor(tau: float, params: SpinBosonParams) -> DecoherenceFactor:
    """The decoherence factor at one tau (see `decoherence_grid`)."""
    return decoherence_factors([tau], params)[0]


@dataclass(frozen=True)
class FidelityCurvePoint:
    tau: float
    chi: float
    phase: float
    gamma_abs: float
    ent_fidelity: float
    teleport_fidelity: float


class FidelityCurves(NamedTuple):
    """Fidelity curves of several baths along one tau grid.

    Every array has shape (baths, taus); the fidelities map each POVM mode to
    its array.  A NamedTuple, not a frozen dataclass: creating one of those
    takes ~1.5 ms at import, which every CLI run would pay.
    """

    chi: np.ndarray
    phase: np.ndarray
    gamma_abs: np.ndarray
    ent_fidelity: dict
    teleport_fidelity: dict


def fidelity_vs_time(n: int, params: SpinBosonParams, taus: Sequence[float],
                     povm_mode: str = "closed_form") -> list:
    """Teleportation fidelity along a time grid for a fixed bath (one POVM mode)."""
    curves = fidelities_vs_time(n, [params], taus, (povm_mode,))
    columns = (taus, curves.chi[0], curves.phase[0], curves.gamma_abs[0],
               curves.ent_fidelity[povm_mode][0], curves.teleport_fidelity[povm_mode][0])
    return [FidelityCurvePoint(*map(float, row)) for row in zip(*columns)]


def fidelities_vs_time(n: int, baths: Sequence[SpinBosonParams], taus: Sequence[float],
                       povm_modes: Sequence[str]) -> FidelityCurves:
    """Teleportation fidelities of several POVM modes along one time grid, per bath.

    chi and the phase of every bath and tau come from one `decoherence_grid`
    call, shared by all modes; baths that differ only in temperature get the
    same phase bit for bit.  |gamma| = e^(-chi), and the phase is wrapped to
    (-pi, pi] as `DecoherenceFactor.as_params` does.
    "closed_form" is the analytic fidelity of the ideal measurement, affine
    in |gamma| cos(theta) (`closedform.noiseless_fidelity`);
    "noise_adapted" is the PGM of the dephased ensemble (complex dephasing
    factor) at every grid point, by the symmetry-reduced route: one
    `fidelity.pgm_fidelities_reduced` call for all baths and taus.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus[1:] < taus[:-1]):
        raise ValueError("tau grid must be sorted ascending")
    for mode in povm_modes:
        if mode not in POVM_MODES:
            raise ValueError(f"unknown povm_mode {mode!r}")
    chis, phases = decoherence_grid(taus, baths)
    gamma_abs = np.exp(-chis)
    if not np.all(gamma_abs <= 1.0 + 1e-12):
        raise ValueError(f"gamma_abs must lie in [0, 1], got {gamma_abs.max()}")
    theta = np.arctan2(np.sin(phases), np.cos(phases))
    ent = {}
    for mode in povm_modes:
        if mode == "closed_form":
            ent[mode] = closedform.noiseless_fidelity(n, gamma_abs * np.cos(theta))
        else:
            grid = [DephasingParams(g, t) for g, t in zip(gamma_abs.ravel().tolist(),
                                                          theta.ravel().tolist())]
            ent[mode] = np.reshape(pgm_fidelities_reduced(n, grid), chis.shape)
    return FidelityCurves(chis, phases, gamma_abs, ent,
                          {mode: closedform.teleport_fidelities(f) for mode, f in ent.items()})

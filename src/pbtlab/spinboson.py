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

`decoherence_factors` evaluates these on a whole tau grid; the weights of
each combination sum to zero, so a t-independent constant in G cancels.
`chi` and `phase` integrate the frequency integrals by adaptive quadrature
and are the independent check of that route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from . import closedform
from .ensemble import DephasingParams
from .fidelity import pgm_fidelities_reduced

SMALL_W = 1e-6
# Measurements a fidelity curve can be computed for; see fidelities_vs_time.
POVM_MODES = ("closed_form", "noise_adapted")


class QuadratureError(ArithmeticError):
    """Raised when the frequency integral fails to converge."""


@dataclass(frozen=True)
class QuadratureSettings:
    upper_cutoff: float = 0.0  # 0 means auto: 40 + 10 s
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

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
                     panel_width: float, quad: QuadratureSettings) -> float:
    """Adaptive quadrature summed over panels no wider than panel_width."""
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = integrate.quad(
            f, a, b,
            epsabs=quad.abs_tol, epsrel=quad.rel_tol,
            limit=quad.max_subdivisions,
        )
        if not math.isfinite(val):
            raise QuadratureError(
                f"quadrature gave a non-finite value on panel [{a:g}, {b:g}]")
        total += val
    return total


def _panel_width(tau: float, ell: float) -> float:
    return math.pi / max(tau, ell, 1.0)


def chi(tau: float, params: SpinBosonParams) -> float:
    """Decay exponent chi(tau, ell) >= 0."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    s, th, ell = params.ohmicity, params.temperature_ratio, params.separation
    if tau == 0.0 or ell == 0.0:
        return 0.0

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
    tail = _panel_integrate(integrand, eps, omega_max,
                            _panel_width(tau, ell), params.quad)
    return head + tail


def phase(tau: float, params: SpinBosonParams) -> float:
    """Phase theta(tau, ell); independent of temperature.

    A reliable oracle only up to s ~ 10: the integrand is of size Gamma(s-1)
    and the quadrature tolerances cannot resolve its cancellation beyond.
    Against `decoherence_factors` (itself checked against mpmath) the
    relative gap is 4e-12 at s = 10, 4e-9 at s = 15, 5e-6 at s = 20 and 0.6
    at s = 30.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    s, ell = params.ohmicity, params.separation
    if tau == 0.0 or ell == 0.0:
        return 0.0

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
    tail = _panel_integrate(integrand, eps, omega_max,
                            _panel_width(tau, ell), params.quad)
    return head + tail


# The Hurwitz zeta of the thermal part is summed over ZETA_TERMS terms
# directly and the rest by Euler-Maclaurin (DLMF 2.10.1, 25.11.5) with the
# Bernoulli numbers B_2 .. B_20, each over (2j)!.
ZETA_TERMS = 12
_BERNOULLI_OVER_FACTORIAL = np.array([
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330]) / np.array([math.factorial(2 * j) for j in range(1, 11)])


def _second_difference(c, alpha, log_coef, taus: np.ndarray) -> np.ndarray:
    """e^log_coef [(c - i tau)^(-alpha)/2 + (c + i tau)^(-alpha)/2 - c^(-alpha)], Re c > 0.

    Each power is one exp of a logarithm, so a large coefficient does not
    overflow on its own.  Summed directly, the three powers cancel as
    tau -> 0; where |alpha x| < 1/2, x = tau / c, the bracket is therefore
    c^(-alpha) [expm1(m) - 2 e^m sin^2(alpha arctan(x) / 2)], m = -(alpha/2) log(1 + x^2)
    (log1p by hand: numpy's complex log1p loses small arguments).  Farther out
    the direct sum is kept: there the powers differ in size by large factors
    and that product would lose their phases.  Where alpha = 0 it returns the
    limit of the bracket over alpha, -(1/2) log(1 + x^2) times e^log_coef.
    """
    x = taus / c
    x2 = x * x
    log1p_x2 = (0.5 * np.log1p(x2.real * (2.0 + x2.real) + x2.imag ** 2)
                + 1j * np.arctan2(x2.imag, 1.0 + x2.real))
    m = -0.5 * alpha * log1p_x2
    centre = np.exp(log_coef - alpha * np.log(c))
    near = centre * (np.expm1(m) - 2.0 * np.exp(m) * np.sin(0.5 * alpha * np.arctan(x)) ** 2)
    far = 0.5 * (np.exp(log_coef - alpha * np.log(c - 1j * taus))
                 + np.exp(log_coef - alpha * np.log(c + 1j * taus))) - centre
    limit = -0.5 * np.exp(log_coef) * log1p_x2
    return np.where(alpha == 0.0, limit, np.where(np.abs(alpha * x) < 0.5, near, far))


def _thermal_terms(a: float, theta_t: float) -> tuple:
    """The thermal part of G as sum_r sign_r e^(log_coef_r) (base_r - i t)^(-alpha_r) + const.

    It is 2 Gamma(a) sum_{k>=1} (z + k/theta_T)^(-a), z = 1 - i t.  Rows
    k = 1..ZETA_TERMS are its first terms.  With W = z + (ZETA_TERMS + 1)/theta_T,
    Euler-Maclaurin turns the rest into 2 Gamma(a) times
    theta_T W^(1-a)/(a-1) + W^(-a)/2 + sum_j B_2j/(2j)! (a)_(2j-1) theta_T^(1-2j) W^(1-a-2j),
    one row each.  The first row's exponent a - 1 is 0 at s = 2, where
    theta_T W^(1-a)/(a-1) is -theta_T log W up to a constant; its coefficient
    then leaves out the 1/(a-1) (see `_second_difference`).  Returned as
    (base, alpha, log_coef, sign) columns.
    """
    lg = gammaln(a)
    k = np.arange(1, ZETA_TERMS + 1)
    w_0 = 1.0 + (ZETA_TERMS + 1) / theta_t
    j = np.arange(1, _BERNOULLI_OVER_FACTORIAL.size + 1)
    log_2, log_th = math.log(2.0), math.log(theta_t)
    pole = 0.0 if a == 1.0 else math.log(abs(a - 1.0))
    base = np.concatenate((1.0 + k / theta_t, np.full(j.size + 2, w_0)))
    alpha = np.concatenate((np.full(k.size, a), [a - 1.0, a], a + 2 * j - 1))
    log_coef = np.concatenate((
        np.full(k.size, log_2 + lg), [log_2 + log_th + lg - pole, lg],
        log_2 + gammaln(a + 2 * j - 1) + np.log(np.abs(_BERNOULLI_OVER_FACTORIAL)) + (1 - 2 * j) * log_th))
    sign = np.concatenate((np.ones(k.size), [1.0 if a >= 1.0 else -1.0, 1.0],
                           np.sign(_BERNOULLI_OVER_FACTORIAL)))
    return tuple(col[:, None] for col in (base, alpha, log_coef, sign))


def decoherence_factors(taus: Sequence[float], params: SpinBosonParams) -> list:
    """chi and the phase at every tau, from the closed form of the module docstring.

    G(t) is Gamma(a) (1 - i t)^(-a) plus, at theta_T > 0, the rows of
    `_thermal_terms`.  chi and the phase are sums of `_second_difference`s
    of these powers, about t = 0 and t = ell (G(tau - ell) = conj G(ell - tau),
    so their real parts agree), and a constant in G drops out of them.  The
    phase takes the zero-temperature term only, so baths that differ only in
    temperature get bit-for-bit the same phases.  tau = 0 and ell = 0 give
    exactly 0.  A chi or phase outside the float range (s above about 172)
    raises ValueError.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0.0):
        raise ValueError(f"tau must be >= 0, got {taus.min()}")
    s, th, ell = params.ohmicity, params.temperature_ratio, params.separation
    chis = phases = np.zeros(taus.size)
    if ell != 0.0:
        a, lg = s - 1.0, gammaln(s - 1.0)
        # an overflow shows as a non-finite chi or phase, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            cold = _second_difference(1.0 - 1j * ell, a, lg, taus)
            phases = -0.5 * cold.imag
            combo = cold - _second_difference(1.0, a, lg, taus)
            if th > 0.0:
                base, alpha, log_coef, sign = _thermal_terms(a, th)
                combo = combo + sum(sign * (_second_difference(base - 1j * ell, alpha, log_coef, taus)
                                            - _second_difference(base, alpha, log_coef, taus)))
            chis = 2.0 * combo.real
        chis = np.where(taus == 0.0, 0.0, chis)
        phases = np.where(taus == 0.0, 0.0, phases)
        if not np.all(np.isfinite([chis, phases])):
            raise ValueError(f"the decoherence factor at s={s:g} leaves the float range")
    return [DecoherenceFactor(float(c), float(p)) for c, p in zip(chis, phases)]


def decoherence_factor(tau: float, params: SpinBosonParams) -> DecoherenceFactor:
    """The decoherence factor at one tau (see `decoherence_factors`)."""
    return decoherence_factors([tau], params)[0]


@dataclass(frozen=True)
class FidelityCurvePoint:
    tau: float
    chi: float
    phase: float
    gamma_abs: float
    ent_fidelity: float
    teleport_fidelity: float


def fidelity_vs_time(n: int, params: SpinBosonParams, taus: Sequence[float],
                     povm_mode: str = "closed_form") -> list:
    """Teleportation fidelity along a time grid for a fixed bath (one POVM mode)."""
    (curve,) = fidelities_vs_time(n, [params], taus, (povm_mode,))
    return [pts[povm_mode] for pts in curve]


def fidelities_vs_time(n: int, baths: Sequence[SpinBosonParams], taus: Sequence[float],
                       povm_modes: Sequence[str]) -> list:
    """Teleportation fidelities of several POVM modes along one time grid, per bath.

    One list per bath holds one dict per tau, mapping each mode to its point.
    All modes share the tau's decoherence factor (`decoherence_factors`, one
    call per bath), and baths that differ only in temperature get the same
    phase bit for bit.
    "closed_form" is the analytic fidelity of the ideal measurement;
    "noise_adapted" is the PGM of the dephased ensemble (complex dephasing
    factor) at every grid point, by the symmetry-reduced route: one
    `fidelity.pgm_fidelities_reduced` call for all baths and taus.
    """
    taus = [float(t) for t in taus]
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be sorted ascending")
    for mode in povm_modes:
        if mode not in POVM_MODES:
            raise ValueError(f"unknown povm_mode {mode!r}")
    factors = [decoherence_factors(taus, params) for params in baths]
    grid = [fac.as_params for facs in factors for fac in facs]
    adapted = pgm_fidelities_reduced(n, grid) if "noise_adapted" in povm_modes else None
    out = []
    for b, facs in enumerate(factors):
        curve = []
        for i, (tau, fac) in enumerate(zip(taus, facs), start=b * len(taus)):
            pts = {}
            for mode in povm_modes:
                if mode == "closed_form":
                    f = closedform.fidelity_noiseless_povm(n, grid[i])
                else:
                    f = adapted[i]
                pts[mode] = FidelityCurvePoint(
                    tau, fac.chi, fac.phase, fac.gamma_abs,
                    f, closedform.teleport_fidelity(f),
                )
            curve.append(pts)
        out.append(curve)
    return out

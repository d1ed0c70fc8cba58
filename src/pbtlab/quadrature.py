"""Panel quadrature of chi and the phase: the oracle of `spinboson.decoherence_grid`.

The frequency integrals of the `spinboson` module docstring, integrated by
adaptive QUADPACK panels.  Only the consistency checks and the tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .spinboson import SpinBosonParams

SMALL_W = 1e-6
# QUADPACK's absolute tolerance and subdivision limit on each panel
QUAD_ABS_TOL = 1e-12
QUAD_MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureSettings:
    upper_cutoff: float = 0.0  # 0 means auto: 40 + 10 s
    rel_tol: float = 1e-10

    def cutoff_for(self, ohmicity: float) -> float:
        if self.upper_cutoff > 0.0:
            return self.upper_cutoff
        return 40.0 + 10.0 * ohmicity


DEFAULT_QUAD = QuadratureSettings()


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
            raise ValueError(f"quadrature gave a non-finite value on panel [{a:g}, {b:g}]")
        total += val
        error += err
    return total, error


def _panel_width(tau: float, ell: float) -> float:
    return math.pi / max(tau, ell, 1.0)


def chi_and_error(tau: float, params: SpinBosonParams,
                  quad: QuadratureSettings = DEFAULT_QUAD) -> tuple:
    """Decay exponent chi(tau, ell) >= 0 and the error estimate of its quadrature
    (0 where chi is exactly 0)."""
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
    tail, error = _panel_integrate(integrand, eps, quad.cutoff_for(s),
                                   _panel_width(tau, ell), quad)
    return head + tail, error


def phase_and_error(tau: float, params: SpinBosonParams,
                    quad: QuadratureSettings = DEFAULT_QUAD) -> tuple:
    """Phase theta(tau, ell), independent of temperature, and the error estimate
    of its quadrature (0 where the phase is exactly 0).

    A reliable oracle only up to s ~ 10: the integrand is of size Gamma(s-1)
    and the quadrature tolerances cannot resolve its cancellation beyond.
    Against `spinboson.decoherence_grid` (itself checked against mpmath) the
    relative gap is 4e-12 at s = 10, 4e-9 at s = 15, 5e-6 at s = 20 and 0.6
    at s = 30.
    """
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
    tail, error = _panel_integrate(integrand, eps, quad.cutoff_for(s),
                                   _panel_width(tau, ell), quad)
    return head + tail, error

"""Panel quadrature of chi and the phase: the oracle of `spinboson.decoherence_grid`.

The frequency integrals of the `spinboson` module docstring, integrated by
adaptive QUADPACK panels in one routine, `_integral`.  Each function checks
its bath and tau with one call of `spinboson.check_bath`, as
`decoherence_grid` does.  Only the consistency checks and the tests use it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate

from .spinboson import check_bath

# QUADPACK's absolute tolerance and subdivision limit on each panel
QUAD_ABS_TOL = 1e-12
QUAD_MAX_SUBDIVISIONS = 200


def _coth_half(w: float, theta_t: float) -> float:
    """coth(w / (2 theta_T)), with the zero-temperature limit 1."""
    if theta_t == 0.0:
        return 1.0
    return 1.0 / math.tanh(w / (2.0 * theta_t))


def _integral(integrand: Callable[[float], float], tau: float, s: float, ell: float,
              upper_cutoff: float = 0.0, rel_tol: float = 1e-10) -> tuple:
    """The integral of integrand from 0 (an endpoint, which QUADPACK never
    evaluates) to upper_cutoff (0 for 40 + 10 s), summed over panels no wider
    than pi / max(tau, ell, 1) with QUADPACK's relative tolerance rel_tol, and
    their error estimates summed; (0, 0) at tau = 0 or ell = 0."""
    if tau == 0.0 or ell == 0.0:
        return 0.0, 0.0
    hi = upper_cutoff if upper_cutoff > 0.0 else 40.0 + 10.0 * s
    width = math.pi / max(tau, ell, 1.0)
    edges = np.linspace(0.0, hi, math.ceil(hi / width) + 1)
    total = error = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            val, err = integrate.quad(
                integrand, a, b,
                epsabs=QUAD_ABS_TOL, epsrel=rel_tol, limit=QUAD_MAX_SUBDIVISIONS,
            )
        except OverflowError:  # w ** (s - 2) leaves the float range at large s
            val = math.inf
        if not math.isfinite(val):
            raise ValueError(f"quadrature gave a non-finite value on panel [{a:g}, {b:g}]")
        total += val
        error += err
    return total, error


def chi_and_error(tau: float, ohmicity: float, temperature_ratio: float, separation: float,
                  upper_cutoff: float = 0.0, rel_tol: float = 1e-10) -> tuple:
    """Decay exponent chi(tau, ell) >= 0 and the error estimate of its quadrature
    (0 where chi is exactly 0), with `_integral`'s upper_cutoff and rel_tol."""
    tau, (s, th, ell) = check_bath(tau, ohmicity, temperature_ratio, separation)
    tau, s, th, ell = tau.item(), s.item(), th.item(), ell.item()

    def integrand(w: float) -> float:
        return (
            2.0 * w ** (s - 2.0) * math.exp(-w)
            * (1.0 - math.cos(w * tau))
            * _coth_half(w, th)
            * (1.0 - math.cos(w * ell))
        )

    return _integral(integrand, tau, s, ell, upper_cutoff, rel_tol)


def phase_and_error(tau: float, ohmicity: float, temperature_ratio: float, separation: float,
                    upper_cutoff: float = 0.0, rel_tol: float = 1e-10) -> tuple:
    """Phase theta(tau, ell), independent of temperature, and the error estimate
    of its quadrature (0 where the phase is exactly 0), with `_integral`'s
    upper_cutoff and rel_tol.

    A reliable oracle only up to s ~ 10: the integrand is of size Gamma(s-1)
    and the quadrature tolerances cannot resolve its cancellation beyond.
    Against `spinboson.decoherence_grid` (itself checked against mpmath) the
    relative gap is 4e-12 at s = 10, 4e-9 at s = 15, 5e-6 at s = 20 and 0.6
    at s = 30.
    """
    tau, (s, _, ell) = check_bath(tau, ohmicity, temperature_ratio, separation)
    tau, s, ell = tau.item(), s.item(), ell.item()

    def integrand(w: float) -> float:
        return (
            0.5 * w ** (s - 2.0) * math.exp(-w)
            * (1.0 - math.cos(w * tau))
            * math.sin(w * ell)
        )

    return _integral(integrand, tau, s, ell, upper_cutoff, rel_tol)

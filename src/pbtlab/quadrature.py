"""Panel quadrature of chi and the phase: the oracle of `spinboson.decoherence_grid`.

The frequency integrals of the `spinboson` module docstring, both integrated
by adaptive QUADPACK panels in one call, `decoherence_and_error`, which checks
its bath and tau with one call of `spinboson.check_bath`, as
`decoherence_grid` does.  Only the consistency checks and the tests use it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .spinboson import check_bath

# QUADPACK's absolute tolerance and subdivision limit on each panel
QUAD_ABS_TOL = 1e-12
QUAD_MAX_SUBDIVISIONS = 200
# the most panels one integrand may take, about 2 s of QUADPACK calls a point
# (`verify` needs at most 360)
QUAD_MAX_PANELS = 10 ** 5


def decoherence_and_error(tau: float, ohmicity: float, temperature_ratio: float,
                          separation: float, upper_cutoff: float = 0.0,
                          rel_tol: float = 1e-10) -> tuple:
    """(chi, phase, chi_error, phase_error) at one tau and one bath: the decay
    exponent chi(tau, ell) >= 0, the phase theta(tau, ell) (independent of
    temperature) and QUADPACK's error estimates of the two integrals; exactly
    (0, 0, 0, 0) at tau = 0 or ell = 0.

    Each integral runs from 0 (an endpoint, which QUADPACK never evaluates)
    to upper_cutoff (0 for 40 + 10 s), summed over panels no wider than
    pi / max(tau, ell, 1) with QUADPACK's relative tolerance rel_tol, and its
    error estimates summed; chi is integrated over every panel before the
    phase.  Raises ValueError, before integrating, for more than
    QUAD_MAX_PANELS panels (tau = 10^6 at s = 2 needs 1.9e7; an infinite
    upper_cutoff, infinitely many), and for a panel whose value is not finite.

    The phase is a reliable oracle only up to s ~ 10: its integrand is of
    size Gamma(s-1) and the quadrature tolerances cannot resolve its
    cancellation beyond.  Against `spinboson.decoherence_grid` (itself checked
    against mpmath) the relative gap is 4e-12 at s = 10, 4e-9 at s = 15, 5e-6
    at s = 20 and 0.6 at s = 30.
    """
    tau, (s, th, ell) = check_bath(tau, ohmicity, temperature_ratio, separation)
    tau, s, th, ell = tau.item(), s.item(), th.item(), ell.item()
    if tau == 0.0 or ell == 0.0:
        return 0.0, 0.0, 0.0, 0.0

    def chi(w: float) -> float:
        coth_half = 1.0 if th == 0.0 else 1.0 / math.tanh(w / (2.0 * th))
        return (2.0 * w ** (s - 2.0) * math.exp(-w) * (1.0 - math.cos(w * tau))
                * coth_half * (1.0 - math.cos(w * ell)))

    def phase(w: float) -> float:
        return 0.5 * w ** (s - 2.0) * math.exp(-w) * (1.0 - math.cos(w * tau)) * math.sin(w * ell)

    hi = upper_cutoff if upper_cutoff > 0.0 else 40.0 + 10.0 * s
    panels = hi / (math.pi / max(tau, ell, 1.0))
    if not panels <= QUAD_MAX_PANELS:  # an infinite upper_cutoff included
        raise ValueError(f"the quadrature needs {panels:.3g} panels at tau={tau:g}, "
                         f"more than {QUAD_MAX_PANELS}")
    edges = np.linspace(0.0, hi, math.ceil(panels) + 1)
    sums = []
    for integrand in (chi, phase):
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
        sums.append((total, error))
    (chi_sum, chi_err), (phase_sum, phase_err) = sums
    return chi_sum, phase_sum, chi_err, phase_err

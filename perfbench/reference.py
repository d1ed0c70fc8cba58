"""Reference values for the correctness gates, computed without pbtlab.

Every function here re-derives a quantity the package computes, by a route
that shares no code with it:

* the noiseless-measurement closed forms f_ih(N) and f_corr(N), summed at
  mpmath precision (the package sums them in float64 log space);
* the spin-boson phase from its closed-form frequency integral (the package
  uses adaptive QUADPACK panels);
* the spin-boson decay exponent chi from composite Gauss-Legendre quadrature
  in numpy, integrated well past the package's frequency cutoff.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

MP_DPS = 40

# Gauss-Legendre rule used on every chi panel; nodes on [0, 1].
_GL_ORDER = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W
# Upper frequency limit of the reference chi integral; the integrand decays
# as e^(-w), so the neglected tail is below 1e-30 for the ohmicities used.
CHI_UPPER = 120.0


def _closed_form_terms(n: int):
    """(f_ih(N), f_corr(N)) as mpmath numbers at MP_DPS digits."""
    with mpmath.workdps(MP_DPS):
        ih = mpmath.mpf(0)
        corr = mpmath.mpf(0)
        for k in range(n + 1):
            b = mpmath.binomial(n, k)
            a = ((n - 2 * k - 1) / mpmath.sqrt(k + 1)
                 + (n - 2 * k + 1) / mpmath.sqrt(n - k + 1))
            ih += b * a * a
            c = 1 / mpmath.sqrt(k + 1) - 1 / mpmath.sqrt(n - k + 1)
            corr += b * ((n - 2 * k) ** 2 - 1) * c * c
        return ih / mpmath.mpf(2) ** (n + 3), corr / (3 * mpmath.mpf(2) ** n)


class ClosedForm:
    """Noiseless-measurement fidelity at one port count.

    F(N, |gamma|, theta) = (1 + c)/2 f_ih(N) + (1 - c)/2 f_corr(N)/8 with
    c = |gamma| cos(theta); the 1/8 turns the printed correction sum into
    the per-port trace that enters the fidelity.
    """

    def __init__(self, n: int):
        ih, corr = _closed_form_terms(n)
        self.n = n
        self.f_ih = float(ih)
        self.f_corr_trace = float(corr / 8)

    def ent_fidelity(self, gamma_abs: float, theta: float) -> float:
        c = gamma_abs * math.cos(theta)
        return 0.5 * (1.0 + c) * self.f_ih + 0.5 * (1.0 - c) * self.f_corr_trace


def teleport_fidelity(ent_fidelity: float) -> float:
    return (2.0 * ent_fidelity + 1.0) / 3.0


def beigi_konig_bound(n: int, gamma_abs: float) -> float:
    """Purity/rank lower bound on the PGM entanglement fidelity."""
    return 0.5 * (1.0 - (1.0 + 2.0 * gamma_abs ** 2) / n)


def spinboson_phase(tau: float, ohmicity: float, ell: float) -> float:
    """Phase 1/2 int w^(s-2) e^(-w) (1 - cos w tau) sin(w ell) dw over [0, inf).

    With G(t) = Gamma(s-1) (1 - i t)^(-(s-1)) = int w^(s-2) e^(-w) e^(i w t) dw,
    the phase is 1/2 [Im G(ell) - 1/2 Im G(ell + tau) - 1/2 Im G(ell - tau)].
    """
    with mpmath.workdps(30):
        s1 = mpmath.mpf(ohmicity) - 1

        def im_g(t):
            return mpmath.im(mpmath.gamma(s1) * (1 - 1j * mpmath.mpf(t)) ** (-s1))

        return float((im_g(ell) - (im_g(ell + tau) + im_g(ell - tau)) / 2) / 2)


def spinboson_chi(tau: float, ohmicity: float, temp_ratio: float, ell: float) -> float:
    """chi = int 2 w^(s-2) e^(-w) (1 - cos w tau)(1 - cos w ell) coth(w/2T) dw.

    Composite Gauss-Legendre on panels half the shortest oscillation period
    wide, from 0 to CHI_UPPER.  The integrand vanishes like w^(s+1)
    at w = 0, so no node needs special treatment there.
    """
    if tau == 0.0 or ell == 0.0:
        return 0.0
    width = math.pi / max(tau, ell, 1.0)
    n_panels = int(math.ceil(CHI_UPPER / width))
    edges = np.linspace(0.0, CHI_UPPER, n_panels + 1)
    h = np.diff(edges)
    w = (edges[:-1, None] + h[:, None] * _GL_X[None, :]).ravel()
    weights = (h[:, None] * _GL_W[None, :]).ravel()
    # 1 - cos x = 2 sin^2(x/2) keeps full relative accuracy at small x.
    f = (2.0 * w ** (ohmicity - 2.0) * np.exp(-w)
         * 2.0 * np.sin(0.5 * w * tau) ** 2
         * 2.0 * np.sin(0.5 * w * ell) ** 2)
    if temp_ratio > 0.0:
        f = f / np.tanh(w / (2.0 * temp_ratio))
    return float(np.dot(weights, f))

"""Dephasing factor of two qubits in a thermal bosonic bath.

The bath has spectral density proportional to w^s e^{-w} in units of the
cutoff (s > 1), the qubits sit a dimensionless distance ell apart, and the
bath temperature enters through theta_T = T / cutoff.  The pair's dephasing
factor after a dimensionless time tau is

    Gamma(tau, ell) = exp(-chi(tau, ell) + i * phase(tau, ell)),

with chi and phase given by frequency integrals over the spectral density.
Vanishing separation gives chi = phase = 0: the pair then sits in a
decoherence-free subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from . import closedform
from .ensemble import DephasingParams
from .fidelity import pgm_fidelity_reduced

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
        try:
            val, err = integrate.quad(
                f, a, b,
                epsabs=quad.abs_tol, epsrel=quad.rel_tol,
                limit=quad.max_subdivisions,
            )
        except OverflowError:
            # w^(s-2) in the chi/phase integrands leaves the float range below
            # the cutoff 40 + 10 s once s exceeds about 103 (where it does not
            # raise, it shows up as a non-finite value, caught below)
            raise QuadratureError(
                f"integrand factor w^(s-2) overflows the float range on panel "
                f"[{a:g}, {b:g}]"
            ) from None
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
    """Phase theta(tau, ell); independent of temperature."""
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


def decoherence_factor(tau: float, params: SpinBosonParams) -> DecoherenceFactor:
    return DecoherenceFactor(chi(tau, params), phase(tau, params))


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
    All modes share the tau's decoherence factor, and baths that differ only
    in temperature share its phase, which does not depend on the temperature.
    "closed_form" is the analytic fidelity of the ideal measurement;
    "noise_adapted" is the PGM of the dephased ensemble (complex dephasing
    factor) at every grid point, by the symmetry-reduced route
    `fidelity.pgm_fidelity_reduced`.
    """
    taus = [float(t) for t in taus]
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be sorted ascending")
    for mode in povm_modes:
        if mode not in POVM_MODES:
            raise ValueError(f"unknown povm_mode {mode!r}")
    phases = {}  # (tau, bath at zero temperature) -> phase
    out = []
    for params in baths:
        cold = replace(params, temperature_ratio=0.0)
        curve = []
        for tau in taus:
            if (tau, cold) in phases:
                fac = DecoherenceFactor(chi(tau, params), phases[tau, cold])
            else:
                fac = decoherence_factor(tau, params)
                phases[tau, cold] = fac.phase
            dp = fac.as_params
            pts = {}
            for mode in povm_modes:
                if mode == "closed_form":
                    f = closedform.fidelity_noiseless_povm(n, dp)
                else:
                    f = pgm_fidelity_reduced(n, dp)
                pts[mode] = FidelityCurvePoint(
                    tau, fac.chi, fac.phase, fac.gamma_abs,
                    f, closedform.teleport_fidelity(f),
                )
            curve.append(pts)
        out.append(curve)
    return out

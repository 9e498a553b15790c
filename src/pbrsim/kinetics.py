"""Growth kinetics of the culture.

Two rate models are kept side by side:

* the full model couples the local photosynthetic O2 production rate to the
  two-flux light profile and integrates it over the vessel depth;
* a lumped single-exponential model (Haldane response to the depth-averaged
  irradiance) that the model-based controller uses as its internal plant.

Photon fluxes are per second while the reactor dynamics are written per
hour, so the O2 balance carries an explicit seconds-to-hours conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .radiative import (
    Q0_OPTICS_MAX,
    Geometry,
    irradiance_at_depth,
    mean_irradiance_simplified,
    optical_coefficients,
    _two_flux,
)

__all__ = [
    "FullModelParams",
    "SimplifiedModelParams",
    "local_oxygen_rate",
    "mean_oxygen_rate",
    "growth_rate_full",
    "growth_rate_simplified",
]

SECONDS_PER_HOUR = 3600.0
# Below this optical thickness delta*L the closed-form depth mean cancels, and
# the kernel takes an 8-node Gauss-Legendre rule on [0, 1] (nodes, weights).
_THIN_SLAB = 1e-3
_GL_NODES = np.array([0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
                      0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
                      0.8983332387068134, 0.9801449282487681])
_GL_WEIGHTS = np.array([0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
                        0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
                        0.11119051722668721, 0.05061426814518853])


def _check_positive(params: object) -> None:
    """Every constant of a rate model must be positive; NaN fails too."""
    for f in fields(params):
        if not getattr(params, f.name) > 0:
            raise ValueError(f"{f.name} must be positive, got {getattr(params, f.name)}")


@dataclass(frozen=True)
class FullModelParams:
    """Constants of the radiative/energetic growth description."""

    q0_max: ClassVar[float] = Q0_OPTICS_MAX  # light must stay below it

    K: float = 120.0  # photosynthesis half-saturation, umol/m2/s
    K_R: float = 6.0  # respiration inhibition constant, umol/m2/s
    rho_m: float = 0.8  # maximum energetic yield of photon conversion
    phi_prime: float = 1.12e-7  # molar quantum yield, mol O2 / umol photon
    resp_rate: float = 3.19e-4  # dark respiration O2 demand, mol O2/kg/s
    nu_O2_X: float = 1.183  # O2-to-biomass stoichiometric coupling
    M_x: float = 24e-3  # C-molar mass of biomass, kg/C-mol

    def __post_init__(self) -> None:
        _check_positive(self)

    def rate(self, X: float, q0: float, geom: Geometry) -> float:
        """Volumetric growth rate r_X in kg/m3/h (see growth_rate_full)."""
        return growth_rate_full(X, q0, self, geom)


@dataclass(frozen=True)
class SimplifiedModelParams:
    """Constants of the lumped Haldane growth model."""

    q0_max: ClassVar[float] = math.inf  # any positive light

    mu_0: float = 0.14  # rate scale, 1/h
    mu_r: float = 0.013  # maintenance respiration rate, 1/h
    alpha_hat: float = 0.71  # scattering modulus of the lumped light law
    E_a_hat: float = 151.0  # absorption cross section, m^2/kg
    K_I: float = 120.0  # light half-saturation, umol/m2/s
    K_II: float = 500.0  # photoinhibition constant, umol/m2/s

    def __post_init__(self) -> None:
        _check_positive(self)

    def rate(self, X: float, q0: float, geom: Geometry) -> float:
        """Volumetric growth rate in kg/m3/h (see growth_rate_simplified)."""
        return growth_rate_simplified(X, q0, self, geom)


def local_oxygen_rate(G, E_a: float, p: FullModelParams = FullModelParams()):
    """Net specific O2 rate at local irradiance G, in mol O2/kg/h.

    Photosynthesis saturates with G (half-saturation K) while respiration is
    progressively inhibited by light (constant K_R).  The balance is formed
    on a per-second photon basis and converted to hours.  G may be an array.
    """
    photo = p.rho_m * p.K / (p.K + G) * p.phi_prime * E_a * G
    resp = p.resp_rate * p.K_R / (p.K_R + G)
    return (photo - resp) * SECONDS_PER_HOUR


def _mean_inverse(c: float, A: float, B: float, B_L: float, thickness: float) -> float:
    """Depth mean of 1 / (c + G) for G = A w - B / w, w = exp(-delta z).

    In w, it is the integral of dw / (A w^2 + c w - B) over [w_L, 1], divided
    by delta L.  With s = sqrt(c^2 + 4AB) and the roots w1 = 2B / (c + s) and
    w2 = -(c + s) / (2A), that is ln[(1 - w1)(w_L - w2) / ((w_L - w1)(1 - w2))]
    / (delta L s).  Each logarithm is taken in a form that neither overflows
    nor cancels: with B_L = B / w_L, ln(w_L - w1) = -delta L + log1p(-w1 / w_L).
    """
    s = math.sqrt(c * c + 4.0 * A * B)
    cs = c + s
    log_ratio = (
        math.log1p(-2.0 * B / cs) + thickness - math.log1p(-2.0 * B_L / cs)
        + math.log1p(math.expm1(-thickness) * 2.0 * A / (2.0 * A + cs))
    )
    return log_ratio / (thickness * s)


def mean_oxygen_rate(
    X: float, q0: float, p: FullModelParams = FullModelParams(), geom: Geometry = Geometry()
) -> float:
    """Depth-averaged net O2 rate in mol O2/kg/h, in closed form.

    K G / (K + G) = K - K^2 / (K + G), so the mean needs only the depth means
    of 1 / (c + G) at c = K and c = K_R (_mean_inverse).  In a slab thinner
    than _THIN_SLAB, Gauss-Legendre on the profile is exact to rounding.
    """
    if not X >= 0:  # NaN fails it too
        raise ValueError(f"X must be nonnegative, got {X}")
    if not q0 >= 0:
        raise ValueError(f"q0 must be nonnegative, got {q0}")
    if q0 == 0:
        # Dark culture: uninhibited respiration only.
        return float(-p.resp_rate * SECONDS_PER_HOUR)
    props = optical_coefficients(q0)
    E_a = props.E_a
    delta, alpha = _two_flux(X, props)
    thickness = delta * geom.depth
    if thickness < _THIN_SLAB:
        G = irradiance_at_depth(_GL_NODES * geom.depth, X, q0, geom, props)
        return float(_GL_WEIGHTS @ local_oxygen_rate(G, E_a, p))
    # The two-flux profile of irradiance_at_depth, written as A w - B / w.
    w_L = math.exp(-thickness)
    den = (1.0 + alpha) ** 2 - (1.0 - alpha) ** 2 * w_L * w_L
    A = 2.0 * q0 * (1.0 + alpha) / den
    B_L = 2.0 * q0 * (1.0 - alpha) * w_L / den
    K, K_R = p.K, p.K_R
    photo = K - K * K * _mean_inverse(K, A, B_L * w_L, B_L, thickness)
    resp = K_R * _mean_inverse(K_R, A, B_L * w_L, B_L, thickness)
    return (p.rho_m * p.phi_prime * E_a * photo - p.resp_rate * resp) * SECONDS_PER_HOUR


def growth_rate_full(
    X: float, q0: float, p: FullModelParams = FullModelParams(), geom: Geometry = Geometry()
) -> float:
    """Volumetric biomass growth rate r_X in kg/m3/h under the full model."""
    if X == 0:
        return 0.0
    return mean_oxygen_rate(X, q0, p, geom) * p.M_x * X / p.nu_O2_X


def growth_rate_simplified(
    X: float,
    q0: float,
    sp: SimplifiedModelParams = SimplifiedModelParams(),
    geom: Geometry = Geometry(),
) -> float:
    """Volumetric growth rate in kg/m3/h under the lumped Haldane model."""
    if not X >= 0:
        raise ValueError(f"X must be nonnegative, got {X}")
    G_bar = mean_irradiance_simplified(X, q0, sp, geom)
    mu = sp.mu_0 * G_bar / (sp.K_I + G_bar + G_bar * G_bar / sp.K_II) - sp.mu_r
    return mu * X


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

from .radiative import (
    _CLEAR_SLAB_THICKNESS,
    Q0_OPTICS_MAX,
    Geometry,
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


def _mean_inverse(
    c: float, two_A: float, four_AB: float, B_L: float, G_L: float, em: float, thickness: float
) -> float:
    """Depth mean of 1 / (c + G) for G = A w - B / w, w = exp(-delta z).

    In w, it is the integral of dw / (A w^2 + c w - B) over [w_L, 1], divided
    by delta L.  With s = sqrt(c^2 + 4AB) that is
    (1 + (ln R + ln(1 - em 2A / (2A + c + s))) / delta L) / s, where
    em = 1 - w_L and R - 1 = em (B_L + 2AB / (c + s)) / (G_L + c), with
    B_L = B / w_L and G_L = G(L).  Every operand of R - 1 is nonnegative, so
    nothing cancels in a thin slab, and an opaque one gives 1 / c.
    """
    s = math.sqrt(c * c + four_AB)
    cs = c + s
    log_sum = (
        math.log1p(em * (B_L + 0.5 * four_AB / cs) / (G_L + c))
        + math.log1p(-em * two_A / (two_A + cs))
    )
    return (1.0 + log_sum / thickness) / s


def mean_oxygen_rate(
    X: float, q0: float, p: FullModelParams = FullModelParams(), geom: Geometry = Geometry()
) -> float:
    """Depth-averaged net O2 rate in mol O2/kg/h, in closed form.

    K G / (K + G) = K - K^2 / (K + G), so the mean needs only the depth means
    of 1 / (c + G) at c = K and c = K_R (_mean_inverse).  A slab thinner than
    radiative's clear-slab thickness sees q0 throughout.
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
    if thickness < _CLEAR_SLAB_THICKNESS:
        return local_oxygen_rate(q0, E_a, p)
    # The two-flux profile of irradiance_at_depth, written as A w - B / w.
    w_L = math.exp(-thickness)
    den = (1.0 + alpha) ** 2 - (1.0 - alpha) ** 2 * w_L * w_L
    two_A = 4.0 * q0 * (1.0 + alpha) / den
    B_L = 2.0 * q0 * (1.0 - alpha) * w_L / den
    four_AB = 2.0 * two_A * B_L * w_L
    G_L = 4.0 * q0 * alpha * w_L / den
    em = -math.expm1(-thickness)
    K, K_R = p.K, p.K_R
    photo = K - K * K * _mean_inverse(K, two_A, four_AB, B_L, G_L, em, thickness)
    resp = K_R * _mean_inverse(K_R, two_A, four_AB, B_L, G_L, em, thickness)
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


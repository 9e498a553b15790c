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

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .radiative import (
    Q0_OPTICS_MAX,
    Geometry,
    irradiance_at_depth,
    mean_irradiance_simplified,
    optical_coefficients,
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
N_NODES = 101  # depth nodes of the Simpson mean


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
        for name in (
            "K",
            "K_R",
            "rho_m",
            "phi_prime",
            "resp_rate",
            "nu_O2_X",
            "M_x",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

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
        for name in ("mu_0", "mu_r", "alpha_hat", "E_a_hat", "K_I", "K_II"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

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


@functools.lru_cache(maxsize=None, typed=True)
def _depth_grid(depth: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes z over [0, depth] and their composite Simpson weights.

    Built once per (depth, n_nodes); typed, so a float n_nodes is never
    served the grid of the equal int.
    """
    z = np.linspace(0.0, depth, n_nodes)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    z.flags.writeable = False
    weights.flags.writeable = False
    return z, weights


def mean_oxygen_rate(
    X: float,
    q0: float,
    p: FullModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
    n_nodes: int = N_NODES,
) -> float:
    """Depth-averaged net O2 rate in mol O2/kg/h (composite Simpson)."""
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError(f"n_nodes must be odd and >= 3, got {n_nodes}")
    if not X >= 0:  # NaN fails it too
        raise ValueError(f"X must be nonnegative, got {X}")
    if not q0 >= 0:
        raise ValueError(f"q0 must be nonnegative, got {q0}")
    if q0 == 0:
        # Dark culture: uninhibited respiration only.
        return float(-p.resp_rate * SECONDS_PER_HOUR)
    E_a = optical_coefficients(q0).E_a
    z, weights = _depth_grid(geom.depth, n_nodes)
    G = irradiance_at_depth(z, X, q0, geom)
    values = local_oxygen_rate(G, E_a, p)
    # Simpson mean = (h/3) * sum(w*y) / L with h = L/(n-1), so L cancels.
    return float(weights @ values / (3.0 * (n_nodes - 1)))


def growth_rate_full(
    X: float,
    q0: float,
    p: FullModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
    n_nodes: int = N_NODES,
) -> float:
    """Volumetric biomass growth rate r_X in kg/m3/h under the full model."""
    if X == 0:
        return 0.0
    return mean_oxygen_rate(X, q0, p, geom, n_nodes) * p.M_x * X / p.nu_O2_X


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


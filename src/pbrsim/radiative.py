"""Light attenuation inside a flat-panel photobioreactor.

The culture is illuminated from one face with a photon flux density q0.
Light decays with depth because the cells absorb and scatter it, so the
local irradiance G(z) depends on the biomass concentration X.  A two-flux
(forward/backward stream) description gives G in closed form for a slab.

Cells grown under dim light are more heavily pigmented than cells grown
under strong light, so the optical cross sections themselves vary with q0.
Log-linear correlations capture that acclimation trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kinetics import SimplifiedModelParams

__all__ = [
    "Geometry",
    "OpticalProps",
    "optical_coefficients",
    "irradiance_at_depth",
    "mean_irradiance_simplified",
]

# Optical acclimation correlations, cross section versus ln(q0 in umol/m2/s).
E_A_LOG_SLOPE = -28.0  # m^2/kg
E_A_INTERCEPT = 337.0  # m^2/kg
E_S_LOG_SLOPE = 28.9  # m^2/kg
E_S_INTERCEPT = 708.0  # m^2/kg
BACKSCATTER_FRACTION = 0.08  # dimensionless
# The absorption correlation holds while E_a > 0, i.e. for 0 < q0 < Q0_OPTICS_MAX.
Q0_OPTICS_MAX = math.exp(-E_A_INTERCEPT / E_A_LOG_SLOPE)  # umol/m2/s

# Below this optical thickness the slab is treated as transparent.
_CLEAR_SLAB_THICKNESS = 1e-12


@dataclass(frozen=True)
class Geometry:
    """Flat-panel vessel geometry."""

    depth: float = 0.05  # light path length, m

    def __post_init__(self) -> None:
        if not self.depth > 0:
            raise ValueError(f"depth must be positive, got {self.depth}")


@dataclass(frozen=True)
class OpticalProps:
    """Mass-specific optical cross sections of the cells."""

    E_a: float  # absorption, m^2/kg
    E_s: float  # scattering, m^2/kg
    b: float = BACKSCATTER_FRACTION  # backward-scattered fraction


def optical_coefficients(q0: float) -> OpticalProps:
    """Cross sections of cells acclimated to incident light q0 (umol/m2/s).

    Raises ValueError if q0 is non-positive or at least Q0_OPTICS_MAX, where
    the absorption correlation leaves its validity range (E_a reaches zero).
    """
    return OpticalProps(*_cross_sections(q0))


def _cross_sections(q0: float) -> tuple[float, float]:
    """E_a and E_s at q0 from the correlations: optical_coefficients without the dataclass."""
    if not q0 > 0:  # NaN fails it too
        raise ValueError(f"q0 must be positive, got {q0}")
    if q0 >= Q0_OPTICS_MAX:
        raise ValueError(
            f"q0={q0} outside the validity range of the absorption correlation"
        )
    log_q0 = math.log(q0)
    return E_A_LOG_SLOPE * log_q0 + E_A_INTERCEPT, E_S_LOG_SLOPE * log_q0 + E_S_INTERCEPT


def _two_flux(E_a: float, E_s: float, b: float = BACKSCATTER_FRACTION) -> tuple[float, float]:
    """Extinction per unit biomass (m^2/kg, delta / X) and scattering modulus alpha."""
    diffuse = E_a + 2.0 * b * E_s
    return math.sqrt(E_a * diffuse), math.sqrt(E_a / diffuse)


def irradiance_at_depth(
    z,
    X: float,
    q0: float,
    geom: Geometry = Geometry(),
    props: OpticalProps | None = None,
):
    """Local irradiance G(z) in umol/m2/s; z may be a scalar or an array.

    By default the cross sections follow the acclimation correlations at q0;
    pass props explicitly to pin the acclimation state (G is then exactly
    linear in q0, as the two-flux solution is in its boundary flux).
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0) or np.any(z > geom.depth):
        raise ValueError("z must lie within [0, depth]")
    if not q0 >= 0:  # NaN fails it too
        raise ValueError(f"q0 must be nonnegative, got {q0}")
    if q0 == 0:
        out = np.zeros_like(z)
        return float(out) if out.ndim == 0 else out
    if props is None:
        props = optical_coefficients(q0)
    if not X >= 0:
        raise ValueError(f"X must be nonnegative, got {X}")
    extinction, alpha = _two_flux(props.E_a, props.E_s, props.b)
    delta = X * extinction
    depth = geom.depth
    if delta * depth < _CLEAR_SLAB_THICKNESS:
        out = q0 * np.ones_like(z)
    elif math.isinf(delta):
        # The opaque limit: exp(-delta z) would be NaN at z = 0.
        out = np.where(z == 0, 2.0 * q0 / (1.0 + alpha), 0.0)
    else:
        # Negative exponents only, so G stays finite for optically thick
        # cultures where exp(delta*L) would overflow.
        up = 1.0 + alpha
        down = 1.0 - alpha
        num = up * np.exp(-delta * z) - down * np.exp(-delta * (2.0 * depth - z))
        den = up * up - down * down * math.exp(-2.0 * delta * depth)
        out = 2.0 * q0 * num / den
    return float(out) if out.ndim == 0 else out


def mean_irradiance_simplified(
    X: float, q0: float, sp: "SimplifiedModelParams", geom: Geometry = Geometry()
) -> float:
    """Depth-averaged irradiance under a single-exponential attenuation law.

    The lumped growth model replaces the two-flux profile by
    G(z) = q0 * exp(-c * X * z) with c = (1 + alpha_hat) / (2 alpha_hat) * E_a_hat,
    whose depth average has the closed form q0 * (1 - exp(-cXL)) / (cXL).
    """
    if not X >= 0:  # NaN fails it too
        raise ValueError(f"X must be nonnegative, got {X}")
    if not q0 >= 0:
        raise ValueError(f"q0 must be nonnegative, got {q0}")
    return _exponential_mean(q0, _attenuation(sp) * X * geom.depth)


def _attenuation(sp: "SimplifiedModelParams") -> float:
    """c of the single-exponential law, per unit X: m^2/kg."""
    return (1.0 + sp.alpha_hat) / (2.0 * sp.alpha_hat) * sp.E_a_hat


def _exponential_mean(q0: float, thickness: float) -> float:
    """Depth mean of q0 * exp(-thickness * z / L): q0 in a clear slab."""
    if thickness < _CLEAR_SLAB_THICKNESS:
        return float(q0)
    return q0 * (1.0 - math.exp(-thickness)) / thickness

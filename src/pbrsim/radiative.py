"""Light attenuation inside a flat-panel photobioreactor.

The culture is illuminated from one face with a photon flux density q0.
Light decays with depth because the cells absorb and scatter it, so the
local irradiance G(z) depends on the biomass concentration X.  A two-flux
(forward/backward stream) description gives G in closed form for a slab.

Cells grown under dim light are more heavily pigmented than cells grown
under strong light, so the optical cross sections themselves vary with q0.
Log-linear correlations capture that acclimation trend.
"""

import math
from dataclasses import dataclass

import numpy as np

# optical_coefficients and irradiance_at_depth stay public but unexported: tests compare against
# them and perfbench's tracer labels them, until ROADMAP items 2 and 11.
__all__ = ["Geometry"]

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

POSITIVE = ("(", 0.0, math.inf, ")")  # a config field's interval: brackets and ends


def _shown(value: object) -> str:
    """repr(value) for an error line, cut after 80 characters; its type if repr fails."""
    try:
        text = repr(value)
    except (RecursionError, ValueError):  # nested too deep, or an int of over 4,300 digits
        return f"<unprintable {type(value).__name__}>"
    return text if len(text) <= 80 else f"{text[:80]}… ({len(text)} chars)"


def check_ranges(config: object) -> None:
    """Raise ValueError for the first field of config.ranges outside its interval or,
    where annotated int, not an int (True included)."""
    types = type(config).__annotations__  # Python 3.14 serves none through an instance
    for name, (left, lo, hi, right) in config.ranges.items():
        v = getattr(config, name)
        if types[name] is int and type(v) is not int:
            raise ValueError(f"{name} must be an integer, got {_shown(v)}")
        if not ((lo < v if left == "(" else lo <= v) and (v < hi if right == ")" else v <= hi)):
            raise ValueError(f"{name} must lie in {left}{lo:g}, {hi:g}{right}, got {_shown(v)}")


@dataclass(frozen=True)
class Geometry:
    """Flat-panel vessel geometry."""

    ranges = {"depth": POSITIVE}
    depth: float = 0.05  # light path length, m

    __post_init__ = check_ranges


def optical_coefficients(q0: float) -> tuple[float, float]:
    """E_a and E_s (m^2/kg) of cells acclimated to incident light q0 (umol/m2/s).

    Raises ValueError if q0 is non-positive or at least Q0_OPTICS_MAX, where
    the absorption correlation leaves its validity range (E_a reaches zero).
    """
    if not q0 > 0:  # NaN fails it too
        raise ValueError(f"q0 must be positive, got {q0}")
    if q0 >= Q0_OPTICS_MAX:
        raise ValueError(
            f"q0={q0} outside the validity range of the absorption correlation"
        )
    log_q0 = math.log(q0)
    return E_A_LOG_SLOPE * log_q0 + E_A_INTERCEPT, E_S_LOG_SLOPE * log_q0 + E_S_INTERCEPT


def _two_flux(E_a: float, E_s: float) -> tuple[float, float]:
    """Extinction per unit biomass (m^2/kg, delta / X) and scattering modulus alpha."""
    diffuse = E_a + 2.0 * BACKSCATTER_FRACTION * E_s
    return math.sqrt(E_a * diffuse), math.sqrt(E_a / diffuse)


def irradiance_at_depth(
    z,
    X: float,
    q0: float,
    geom: Geometry = Geometry(),
    props: tuple[float, float] | None = None,
):
    """Local irradiance G(z) in umol/m2/s; z may be a scalar or an array.

    By default the cross sections follow the acclimation correlations at q0;
    props=(E_a, E_s) pins them (G is then exactly linear in q0, as the two-flux
    solution is in its boundary flux); E_s = 0 gives the Beer-Lambert limit.
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
    extinction, alpha = _two_flux(*props)
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

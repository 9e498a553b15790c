"""Growth kinetics of the culture.

Two rate models are kept side by side:

* the full model couples the local photosynthetic O2 production rate to the
  two-flux light profile and integrates it over the vessel depth;
* a lumped single-exponential model (Haldane response to the depth-averaged
  irradiance) that the model-based controller uses as its internal plant.

Photon fluxes are per second while the reactor dynamics are written per
hour, so the O2 balance carries an explicit seconds-to-hours conversion.
"""

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .radiative import (
    _CLEAR_SLAB_THICKNESS,
    POSITIVE,
    Q0_OPTICS_MAX,
    Geometry,
    _two_flux,
    check_ranges,
    optical_coefficients,
)

# local_oxygen_rate, mean_oxygen_rate, growth_rate_simplified stay public but unexported: tests
# compare against them and perfbench's tracer labels them, until ROADMAP items 2 and 11.
__all__ = ["FullModelParams", "SimplifiedModelParams"]

SECONDS_PER_HOUR = 3600.0
K_MAX = 1e10  # above it the photo term K - K^2 I(K) loses over 1e-9 to cancellation

# The closed form's sqrt, exp, expm1, log1p on floats (the kernel) and on arrays (the scan):
# numpy's +, -, *, / and sqrt round as Python's do; its exp, expm1, log1p are not libm's.
_LIBM = (math.sqrt, math.exp, math.expm1, math.log1p)
_NUMPY = (np.sqrt, np.exp, np.expm1, np.log1p)


@dataclass(frozen=True)
class FullModelParams:
    """Constants of the radiative/energetic growth description."""

    q0_range: ClassVar[tuple[float, float]] = (0.0, math.nextafter(Q0_OPTICS_MAX, 0.0))
    # The finite ends but K_MAX keep the rate's products finite (README, "Config ranges").
    ranges = {
        "K": ("(", 0.0, K_MAX, "]"), "K_R": POSITIVE, "rho_m": ("(", 0.0, 1e307, "]"),
        "phi_prime": ("(", 0.0, 1e300, "]"), "resp_rate": ("(", 0.0, 1e305, "]"),
        "nu_O2_X": ("[", 1e-156, math.inf, ")"), "M_x": ("(", 0.0, 1e155, "]"),
    }
    K: float = 120.0  # photosynthesis half-saturation, umol/m2/s
    K_R: float = 6.0  # respiration inhibition constant, umol/m2/s
    rho_m: float = 0.8  # maximum energetic yield of photon conversion
    phi_prime: float = 1.12e-7  # molar quantum yield, mol O2 / umol photon
    resp_rate: float = 3.19e-4  # dark respiration O2 demand, mol O2/kg/s
    nu_O2_X: float = 1.183  # O2-to-biomass stoichiometric coupling
    M_x: float = 24e-3  # C-molar mass of biomass, kg/C-mol

    __post_init__ = check_ranges

    def rate_at(self, q0: float, geom: Geometry) -> Callable[[float], float]:
        """r_X in kg/m3/h at q0 in q0_range, a function of X alone (_light keeps q0's constants)."""
        lo, hi = self.q0_range
        if not lo <= q0 <= hi:  # NaN fails it too
            raise ValueError(f"q0 must be nonnegative and at most {hi!r}, got {q0}")
        M_x, nu_O2_X = self.M_x, self.nu_O2_X
        return lambda X: 0.0 if X == 0 else mean_oxygen_rate(X, q0, self, geom) * M_x * X / nu_O2_X

    def _fast_rates(self, q0: float, geom: Geometry, X: np.ndarray) -> np.ndarray:
        """rate_at(q0, geom) at each X by one closed-form pass on _NUMPY; NaN if a slab is clear."""
        light = _light(q0)
        if (t := X * light[1] * geom.depth).min() >= _CLEAR_SLAB_THICKNESS:
            return _closed_form(t, self, light, _NUMPY) * self.M_x * X / self.nu_O2_X
        return X * math.nan


@dataclass(frozen=True)
class SimplifiedModelParams:
    """Constants of the lumped Haldane growth model."""

    q0_range: ClassVar[tuple[float, float]] = (0.0, sys.float_info.max)  # any finite light
    ranges = dict.fromkeys(("mu_0", "mu_r", "alpha_hat", "E_a_hat", "K_I", "K_II"), POSITIVE)
    mu_0: float = 0.14  # rate scale, 1/h
    mu_r: float = 0.013  # maintenance respiration rate, 1/h
    alpha_hat: float = 0.71  # scattering modulus of the lumped light law
    E_a_hat: float = 151.0  # absorption cross section, m^2/kg
    K_I: float = 120.0  # light half-saturation, umol/m2/s
    K_II: float = 500.0  # photoinhibition constant, umol/m2/s

    __post_init__ = check_ranges

    def rate_at(self, q0: float, geom: Geometry) -> Callable[[float], float]:
        """The Haldane rate in kg/m3/h at light q0 in q0_range, as a function of X >= 0 alone. Its
        light is the depth mean of q0 exp(-cXz), c = (1 + alpha_hat) / (2 alpha_hat) E_a_hat,
        which is q0 (1 - exp(-cXL)) / (cXL), or q0 in a clear slab."""
        lo, hi = self.q0_range
        if not lo <= q0 <= hi:  # NaN fails it too
            raise ValueError(f"q0 must be nonnegative and at most {hi!r}, got {q0}")
        attenuation = (1.0 + self.alpha_hat) / (2.0 * self.alpha_hat) * self.E_a_hat
        depth, clear, exp = geom.depth, float(q0), math.exp
        mu_0, mu_r, K_I, K_II = self.mu_0, self.mu_r, self.K_I, self.K_II

        def rate(X: float) -> float:
            cXL = attenuation * X * depth
            G_bar = clear if cXL < _CLEAR_SLAB_THICKNESS else q0 * (1.0 - exp(-cXL)) / cXL
            return (mu_0 * G_bar / (K_I + G_bar + G_bar * G_bar / K_II) - mu_r) * X

        return rate

    def _fast_rates(self, q0: float, geom: Geometry, X: np.ndarray) -> np.ndarray:
        return X * math.nan  # no array form: every scan is the exact one


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
    c: float, two_A, four_AB, B_L, G_L, em, thickness, sqrt: Callable, log1p: Callable
):
    """Depth mean of 1 / (c + G) for G = A w - B / w, w = exp(-delta z).

    In w, it is the integral of dw / (A w^2 + c w - B) over [w_L, 1], divided
    by delta L.  With s = sqrt(c^2 + 4AB) that is
    (1 + (ln R + ln(1 - em 2A / (2A + c + s))) / delta L) / s, where
    em = 1 - w_L and R - 1 = em (B_L + 2AB / (c + s)) / (G_L + c), with
    B_L = B / w_L and G_L = G(L).  Every operand of R - 1 is nonnegative, so
    nothing cancels in a thin slab, and an opaque one gives 1 / c.
    """
    s = sqrt(c * c + four_AB)
    cs = c + s
    log_sum = (
        log1p(em * (B_L + 0.5 * four_AB / cs) / (G_L + c))
        + log1p(-em * two_A / (two_A + cs))
    )
    return (1.0 + log_sum / thickness) / s


@functools.lru_cache(maxsize=1)
def _light(q0: float) -> tuple[float, ...]:
    """E_a, extinction per unit X, (1 +- alpha)^2, 4 q0 (1 + alpha), 2 q0 (1 - alpha) and
    4 q0 alpha: every factor of _closed_form that q0 alone sets.

    One entry: q0 holds over a setpoint solve, a held light's period and a night.
    """
    E_a, E_s = optical_coefficients(q0)
    extinction, alpha = _two_flux(E_a, E_s)
    up, down = 1.0 + alpha, 1.0 - alpha
    return E_a, extinction, up**2, down**2, 4.0 * q0 * up, 2.0 * q0 * down, 4.0 * q0 * alpha


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
    light = _light(q0)
    thickness = X * light[1] * geom.depth
    if thickness < _CLEAR_SLAB_THICKNESS:
        return local_oxygen_rate(q0, light[0], p)
    return _closed_form(thickness, p, light)


def _closed_form(thickness, p: FullModelParams, light: tuple, libm=_LIBM):
    """mean_oxygen_rate beyond the clear slab, at one thickness or, with
    libm=_NUMPY, at each of a float64 array's: the one copy of the formula."""
    sqrt, exp, expm1, log1p = libm
    E_a, _, up2, down2, four_q0_up, two_q0_down, four_q0_alpha = light
    # The two-flux profile of irradiance_at_depth, written as A w - B / w.
    w_L = exp(-thickness)
    den = up2 - down2 * w_L * w_L
    two_A = four_q0_up / den
    B_L = two_q0_down * w_L / den
    four_AB = 2.0 * two_A * B_L * w_L
    G_L = four_q0_alpha * w_L / den
    em = -expm1(-thickness)
    K, K_R = p.K, p.K_R
    photo = K - K * K * _mean_inverse(K, two_A, four_AB, B_L, G_L, em, thickness, sqrt, log1p)
    resp = K_R * _mean_inverse(K_R, two_A, four_AB, B_L, G_L, em, thickness, sqrt, log1p)
    return (p.rho_m * p.phi_prime * E_a * photo - p.resp_rate * resp) * SECONDS_PER_HOUR


def growth_rate_simplified(
    X: float,
    q0: float,
    sp: SimplifiedModelParams = SimplifiedModelParams(),
    geom: Geometry = Geometry(),
) -> float:
    """Volumetric growth rate in kg/m3/h under the lumped Haldane model."""
    if not X >= 0:
        raise ValueError(f"X must be nonnegative, got {X}")
    return sp.rate_at(q0, geom)(X)


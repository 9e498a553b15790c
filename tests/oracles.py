"""Test-local oracles, each written from its continuous form and independent
of the src code it checks."""

import math

from pbrsim.kinetics import SimplifiedModelParams
from pbrsim.radiative import _CLEAR_SLAB_THICKNESS, Geometry


def mean_irradiance_simplified(
    X: float, q0: float, sp: SimplifiedModelParams, geom: Geometry = Geometry()
) -> float:
    """Depth mean of the lumped model's light G(z) = q0 exp(-c X z) over [0, L].

    c = (1 + alpha_hat) / (2 alpha_hat) E_a_hat is the single-exponential
    attenuation per unit X, and (1 / L) int_0^L q0 exp(-c X z) dz is
    q0 (1 - exp(-cXL)) / (cXL).  Its limit as cXL -> 0 is q0, which stands
    below radiative's clear-slab thickness.
    """
    c = (1.0 + sp.alpha_hat) / (2.0 * sp.alpha_hat) * sp.E_a_hat
    cXL = c * X * geom.depth
    if cXL < _CLEAR_SLAB_THICKNESS:
        return float(q0)
    return q0 * (1.0 - math.exp(-cXL)) / cXL


def haldane_rate(
    X: float, q0: float, sp: SimplifiedModelParams, geom: Geometry = Geometry()
) -> float:
    """The lumped model's growth rate in kg/m3/h: X times the Haldane response
    mu_0 G / (K_I + G + G^2 / K_II) - mu_r at the depth-mean light G."""
    G = mean_irradiance_simplified(X, q0, sp, geom)
    return (sp.mu_0 * G / (sp.K_I + G + G * G / sp.K_II) - sp.mu_r) * X

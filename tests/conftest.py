"""Fixtures shared across test modules."""

import pytest

from pbrsim.scenarios import light_step_scenario, robustness_sweep


@pytest.fixture(scope="session")
def sweep_41():
    """The paper-4.1 robustness sweep (iP base, noise seed 0, mu0 0.07, 0.14,
    0.21), run once for every module that reads it; no test mutates it."""
    base = light_step_scenario(controller="ip", seed=0)
    return robustness_sweep(base, (0.07, 0.14, 0.21))

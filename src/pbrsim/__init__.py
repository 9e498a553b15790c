"""Simulation workbench for dilution control of a flat-panel photobioreactor.

The package pairs a radiative/energetic plant model with two output
controllers (model-based feedback linearization and a model-free
intelligent-proportional law), steady-state setpoint optimization, and
reproducible closed-loop campaigns with a command-line front end.
"""

from .control import (
    ActuatorBounds,
    EstimationWindow,
    EstimatorNotReady,
    FlConfig,
    FlController,
    IpConfig,
    IpController,
    estimate_F_closed,
    estimate_F_open,
    fl_control,
    ip_control,
    saturate,
)
from .kinetics import (
    FullModelParams,
    SimplifiedModelParams,
    growth_rate,
    growth_rate_full,
    growth_rate_simplified,
    local_oxygen_rate,
    mean_oxygen_rate,
    specific_growth_rate,
)
from .plant import (
    LIGHT_STEP_PROFILE,
    DayNightLight,
    IntegrationError,
    NoiseConfig,
    PiecewiseConstant,
    PlantState,
    SamplingConfig,
    light_at,
    measure,
    plant_derivative,
    step,
)
from .radiative import (
    Geometry,
    OpticalProps,
    TwoFluxCoeffs,
    irradiance_at_depth,
    mean_irradiance_simplified,
    optical_coefficients,
    two_flux_coeffs,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    MU0_SWEEP_VALUES,
    MapReference,
    Scenario,
    SimulationTrace,
    SweepCell,
    TrackingMetrics,
    compute_metrics,
    day_night_scenario,
    light_step_scenario,
    reference_at,
    robustness_sweep,
    run_scenario,
    time_to_band,
)
from .steady_state import (
    NoAdmissibleSetpointError,
    NotUnimodalError,
    OperatingPoint,
    SetpointSearch,
    optimal_setpoint,
    setpoint_map,
)

__version__ = "0.1.0"

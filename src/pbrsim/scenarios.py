"""Closed-loop simulation campaigns and tracking metrics.

A scenario bundles the plant, the light schedule, the reference policy, one
controller, and the sampling/noise settings.  Running it produces a sampled
trace: true state, noisy measurement, reference, applied dilution, incident
light, and (for the model-free controller) the online F estimate.

A reference is called as ref(t, q0): either a step function of time (a
fixed setpoint is a one-point schedule) or the live productivity optimum at
the current light.  Either is held between samples, so the reference has no
derivative for the controllers to use; reference steps are left to the
feedback to absorb.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .control import ActuatorBounds, FlConfig, IpConfig
from .kinetics import FullModelParams, SimplifiedModelParams
from .plant import (
    LIGHT_STEP_PROFILE,
    DayNightLight,
    IntegrationError,
    LightProfile,
    NoiseConfig,
    PiecewiseConstant,
    SamplingConfig,
    light_at,
    measure,
    step,
)
from .radiative import Geometry
from .steady_state import Q0_VALID_RANGE, optimal_setpoint

__all__ = [
    "MapReference",
    "Reference",
    "Scenario",
    "SimulationTrace",
    "TrackingMetrics",
    "SweepCell",
    "CONTROLLERS",
    "MAX_SAMPLES",
    "MAX_RK4_STEPS",
    "MU0_SWEEP_VALUES",
    "BUILTIN_SCENARIOS",
    "light_step_scenario",
    "day_night_scenario",
    "run_scenario",
    "compute_metrics",
    "time_to_band",
    "robustness_sweep",
]

# Controller-model rate scales exercised by the robustness sweep, 1/h.
MU0_SWEEP_VALUES = (0.07, 0.14, 0.21)

# Controller name -> config type, for the built-ins and the config "kind" tag.
CONTROLLERS: dict[str, type] = {"fl": FlConfig, "ip": IpConfig}

# Most sampling periods in one run; its seven float64 trace columns take ~56 MB.
MAX_SAMPLES = 10**6
# Most RK4 steps (periods x substeps) in one run: MAX_SAMPLES at 10 substeps.
MAX_RK4_STEPS = 10**7


@dataclass
class MapReference:
    """Track the productivity-optimal setpoint for the current light level,
    as `optimal_setpoint` finds it with its default plant and geometry.

    Each distinct q0 is solved once and cached, so the cache grows by at most
    one entry per sample of the runs that share the instance.
    """

    q0_range: ClassVar[tuple[float, float]] = Q0_VALID_RANGE  # light it can solve at
    _cache: dict[float, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def value_at(self, q0: float) -> float:
        if q0 not in self._cache:
            op = optimal_setpoint(q0)
            self._cache[q0] = op.x_star
        return self._cache[q0]

    def __call__(self, t: float, q0: float) -> float:
        return self.value_at(q0)


Reference = PiecewiseConstant | MapReference


@dataclass
class Scenario:
    """Complete description of one closed-loop run."""

    name: str
    duration_h: float
    x0: float  # initial biomass, kg/m3
    light: LightProfile
    reference: Reference
    controller: FlConfig | IpConfig
    plant: FullModelParams | SimplifiedModelParams = field(default_factory=FullModelParams)
    geometry: Geometry = field(default_factory=Geometry)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    bounds: ActuatorBounds = field(default_factory=ActuatorBounds)

    def __post_init__(self) -> None:
        if not self.duration_h > 0:  # NaN fails it too
            raise ValueError("duration_h must be positive")
        if not 0 < self.x0 < math.inf:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        periods = self.duration_h / self.sampling.period_h
        if not periods <= MAX_SAMPLES:
            raise ValueError(f"duration_h / sampling.period_h is {periods:g}, over {MAX_SAMPLES}")
        rk4_steps = periods * self.sampling.substeps
        if not rk4_steps <= MAX_RK4_STEPS:
            raise ValueError(f"periods x sampling.substeps is {rk4_steps:g}, over {MAX_RK4_STEPS}")
        n = round(periods)
        if n < 1 or abs(n * self.sampling.period_h - self.duration_h) > 1e-9:
            raise ValueError("duration_h must be a whole number of sampling periods")
        lo, hi = self.light.value_range
        if not hi < self.plant.q0_max:
            raise ValueError(
                f"light peak {hi:g} leaves the optical correlations' range "
                f"q0 < {self.plant.q0_max:g}"
            )
        ref_lo, ref_hi = self.reference.q0_range
        if not (ref_lo <= lo and hi <= ref_hi):
            raise ValueError(
                f"light range [{lo:g}, {hi:g}] leaves the map reference's "
                f"range {self.reference.q0_range}"
            )
        # Rejects, e.g., an iP window too long to count.
        self.controller.build(self.bounds, self.geometry, self.sampling.period_h)


@dataclass
class SimulationTrace:
    """Sampled closed-loop record, one array per CSV column in column order;
    f_est is NaN where no estimate exists."""

    t: np.ndarray
    x_true: np.ndarray
    y_meas: np.ndarray
    y_ref: np.ndarray
    d_applied: np.ndarray
    q0: np.ndarray
    f_est: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


# step() reports a diverging state as IntegrationError; numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def run_scenario(scenario: Scenario) -> SimulationTrace:
    """Simulate the closed loop over the scenario horizon.

    The controller runs first at t = 0 on a fresh measurement; the plant is
    then integrated over one sampling period under the held command.  The
    final sample at the horizon is recorded (controller included) but not
    integrated further.  A fixed noise seed reproduces the trace bit for bit.
    """
    s = scenario
    n = round(s.duration_h / s.sampling.period_h)
    rng = np.random.default_rng(s.noise.seed)
    controller = s.controller.build(s.bounds, s.geometry, s.sampling.period_h)
    X = s.x0

    tr = SimulationTrace(*(np.empty(n + 1) for _ in fields(SimulationTrace)))
    for k in range(n + 1):
        t = k * s.sampling.period_h
        q0 = light_at(t, s.light)
        y_ref = s.reference(t, q0)
        y = measure(X, s.noise, rng)
        d = controller.step(t, y, y_ref, q0)
        tr.t[k] = t
        tr.x_true[k] = X
        tr.y_meas[k] = y
        tr.y_ref[k] = y_ref
        tr.d_applied[k] = d
        tr.q0[k] = q0
        tr.f_est[k] = controller.f_estimate
        if k < n:
            X = step(X, t, d, s.light, s.sampling.period_h, s.plant, s.geometry,
                     s.sampling.substeps)
    return tr


@dataclass(frozen=True)
class TrackingMetrics:
    """Scalar summaries of one closed-loop trace."""

    steady_state_offset: float  # mean(y_ref - x_true) over the tail window
    iae: float  # integral of |y_ref - x_true| over the run
    settle_time_to_2pct: float | None  # None when never permanently inside
    batch_phase_duration: float  # time until the pump first opens
    offset_window_h: float  # tail window the offset was averaged over


def _trapz(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def compute_metrics(trace: SimulationTrace, offset_window_h: float = 10.0) -> TrackingMetrics:
    """Tracking summaries; the offset is noise-free (uses the true state)."""
    t = trace.t
    horizon = float(t[-1])
    window = offset_window_h
    if horizon < offset_window_h:
        window = 0.2 * horizon
        warnings.warn(
            f"run shorter than {offset_window_h} h; offset averaged over "
            f"the final {window:.3g} h",
            stacklevel=2,
        )
    tail = t >= horizon - window - 1e-9
    err = trace.y_ref - trace.x_true
    offset = float(np.mean(err[tail]))
    iae = _trapz(np.abs(err), t)

    inside = np.abs(err) <= 0.02 * trace.y_ref
    if inside.all():
        settle: float | None = 0.0
    elif inside[-1]:
        last_out = int(np.flatnonzero(~inside)[-1])
        settle = float(t[last_out + 1])
    else:
        settle = None

    open_idx = np.flatnonzero(trace.d_applied > 0)
    batch = float(t[open_idx[0]]) if open_idx.size else horizon

    return TrackingMetrics(
        steady_state_offset=offset,
        iae=iae,
        settle_time_to_2pct=settle,
        batch_phase_duration=batch,
        offset_window_h=window,
    )


def time_to_band(trace: SimulationTrace, t_from: float, band: float = 0.02) -> float | None:
    """Hours after t_from until the true state first enters the relative
    band around the reference; None if it never does.

    Only samples strictly after t_from count, so when t_from is a reference
    switch instant the band is measured against the new value (switches take
    effect strictly after their start time).
    """
    mask = trace.t > t_from + 1e-9
    err = np.abs(trace.y_ref - trace.x_true)[mask]
    inside = err <= band * trace.y_ref[mask]
    hit = np.flatnonzero(inside)
    if not hit.size:
        return None
    return float(trace.t[mask][hit[0]] - t_from)


def _controller_config(name: str) -> FlConfig | IpConfig:
    if name not in CONTROLLERS:
        raise ValueError(f"unknown controller {name!r} (choices: {', '.join(CONTROLLERS)})")
    return CONTROLLERS[name]()


def light_step_scenario(controller: str = "ip", seed: int = 0) -> Scenario:
    """Benchmark: bright-to-dim light step with a matching setpoint drop.

    Fifty hours at the productivity-optimal setpoints: 0.38 kg/m3 under
    600 umol/m2/s, dropping to 0.17 kg/m3 when the light steps down to
    100 umol/m2/s at t = 30 h.  Registered as "paper-4.1".
    """
    return Scenario(
        name="paper-4.1",
        duration_h=50.0,
        x0=0.17,
        light=LIGHT_STEP_PROFILE,
        reference=PiecewiseConstant(((0.0, 0.38), (30.0, 0.17))),
        controller=_controller_config(controller),
        noise=NoiseConfig(seed=seed),
    )


def day_night_scenario(controller: str = "ip", seed: int = 0) -> Scenario:
    """Benchmark: fixed setpoint under a day/night light cycle.

    Fifty hours holding 0.175 kg/m3 while the light follows a half-sine day
    (peak 600) and a dim night (floor 100) on a 24 h period.  Registered as
    "paper-4.2".
    """
    return Scenario(
        name="paper-4.2",
        duration_h=50.0,
        x0=0.17,
        light=DayNightLight(),
        reference=PiecewiseConstant(((0.0, 0.175),)),
        controller=_controller_config(controller),
        noise=NoiseConfig(seed=seed),
    )


BUILTIN_SCENARIOS = {
    "paper-4.1": light_step_scenario,
    "paper-4.2": day_night_scenario,
}


@dataclass
class SweepCell:
    """One run of the robustness sweep; error is set if the run aborted."""

    controller_kind: str
    mu_0: float
    scenario: Scenario
    trace: SimulationTrace | None
    metrics: TrackingMetrics | None
    error: str | None = None


def robustness_sweep(
    base: Scenario,
    mu0_values: tuple[float, ...] = MU0_SWEEP_VALUES,
) -> list[SweepCell]:
    """Run both controllers across a grid of controller-model rate scales.

    Only the model inside the model-based controller is perturbed; the true
    plant never changes, and the model-free controller does not read mu_0 at
    all (its cells differ only in label).  Every cell reuses the same noise
    seed, so cells are pairwise comparable sample by sample.  Cells are
    independent; a diverging cell (IntegrationError) is recorded with its
    error message and the sweep continues.  Any other error propagates.
    """
    cells: list[SweepCell] = []
    for kind, config_type in CONTROLLERS.items():
        kind_base = base.controller if isinstance(base.controller, config_type) else config_type()
        for mu_0 in mu0_values:
            cfg = kind_base.with_model_rate(mu_0)
            cell_scenario = replace(base, name=f"{base.name}[{kind},mu0={mu_0:g}]", controller=cfg)
            try:
                trace = run_scenario(cell_scenario)
                metrics = compute_metrics(trace)
                cells.append(SweepCell(kind, mu_0, cell_scenario, trace, metrics))
            except IntegrationError as exc:
                cells.append(SweepCell(kind, mu_0, cell_scenario, None, None, error=str(exc)))
    return cells

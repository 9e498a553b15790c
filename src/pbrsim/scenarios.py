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

import warnings
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Iterable

import numpy as np

from .control import ActuatorBounds, FlConfig, IpConfig
from .kinetics import FullModelParams, SimplifiedModelParams
from .plant import (
    CLOCK_TOL,
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
from .radiative import POSITIVE, Geometry, _shown, check_ranges
from .steady_state import Q0_VALID_RANGE, _scan, optimal_setpoint

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
# Most RK4 steps (periods x substeps) in one run: MAX_SAMPLES at the default substeps.
MAX_RK4_STEPS = MAX_SAMPLES * SamplingConfig.substeps

OFFSET_WINDOW_H = 10.0  # tail window the steady-state offset is averaged over
BAND = 0.02  # relative band of the settle time and time_to_band


@dataclass(frozen=True)
class MapReference:
    """Track the productivity-optimal setpoint for the current light level,
    as `optimal_setpoint` finds it with its default plant and geometry.

    Each distinct q0 is solved once and cached, so the cache grows by at most one entry per
    sample of the runs that share the instance.  `prepare` scans a run's unsolved sample lights
    ahead in numpy passes; each is still solved, from its bracket, at the first sample that asks.
    """

    q0_range: ClassVar[tuple[float, float]] = Q0_VALID_RANGE  # light it can solve at
    _cache: dict[float, float] = field(default_factory=dict, init=False, repr=False, compare=False)
    _scanned: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def prepare(self, lights: Iterable[float]) -> None:
        self._scanned.update(_scan(q0 for q0 in map(float, lights) if q0 not in self._cache))

    def value_at(self, q0: float) -> float:
        if q0 not in self._cache:
            op = optimal_setpoint(q0, bracket=self._scanned.pop(q0, None))
            self._cache[q0] = op.x_star
        return self._cache[q0]

    def __call__(self, t: float, q0: float) -> float:
        return self.value_at(q0)


Reference = PiecewiseConstant | MapReference


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run."""

    ranges = {"duration_h": POSITIVE, "x0": ("(", 0.0, 1e307, "]")}
    name: str
    duration_h: float
    x0: float  # initial biomass, kg/m3
    light: LightProfile
    reference: Reference
    controller: FlConfig | IpConfig
    plant: FullModelParams | SimplifiedModelParams = FullModelParams()
    geometry: Geometry = Geometry()
    sampling: SamplingConfig = SamplingConfig()
    noise: NoiseConfig = NoiseConfig()
    bounds: ActuatorBounds = ActuatorBounds()

    def __post_init__(self) -> None:
        check_ranges(self)
        periods = self.duration_h / self.sampling.period_h
        if not periods <= MAX_SAMPLES:
            raise ValueError(f"duration_h / sampling.period_h is {periods:g}, over {MAX_SAMPLES}")
        n, period_h = round(periods), self.sampling.period_h
        if n < 1 or abs(n * period_h - self.duration_h) > CLOCK_TOL * period_h:
            raise ValueError("duration_h must be a whole number of sampling periods")
        if not n * self.sampling.substeps <= MAX_RK4_STEPS:  # in ints: exact at any size
            raise ValueError(f"{n} periods x sampling.substeps is over {MAX_RK4_STEPS} RK4 steps")
        lo, hi = self.light.value_range
        for name, part in (("plant", self.plant), ("reference", self.reference)):
            part_lo, part_hi = part.q0_range  # the closed range of light it serves
            if not part_lo <= lo <= hi <= part_hi:
                raise ValueError(f"light range [{lo:.17g}, {hi:.17g}] leaves the {name}'s range "
                                 f"[{part_lo:.17g}, {part_hi:.17g}]")
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


def run_scenario(scenario: Scenario) -> SimulationTrace:
    """Simulate the closed loop over the scenario horizon.

    The controller runs first at t = 0 on a fresh measurement; the plant is
    then integrated over one sampling period under the held command.  The
    final sample at the horizon is recorded (controller included) but not
    integrated further.  A fixed noise seed reproduces the trace bit for bit; its
    n + 1 noise values come from one draw, equal to n + 1 scalar draws in order.
    The reference is handed every sample light (reference.prepare) before the loop.
    """
    s = scenario
    period_h, substeps = s.sampling.period_h, s.sampling.substeps
    light, reference, plant, geom = s.light, s.reference, s.plant, s.geometry
    n = round(s.duration_h / period_h)
    nus = np.random.default_rng(s.noise.seed).normal(0.0, s.noise.relative_std, n + 1)
    controller = s.controller.build(s.bounds, geom, period_h)
    X = s.x0

    tr = SimulationTrace(*(np.empty(n + 1) for _ in fields(SimulationTrace)))
    t_col, x_col, y_col, ref_col, d_col, q0_col, f_col = (
        getattr(tr, f.name) for f in fields(SimulationTrace))
    q0_col[:] = np.fromiter((light_at(k * period_h, light) for k in range(n + 1)), float, n + 1)
    reference.prepare(q0_col)
    for k, (nu, q0) in enumerate(zip(map(float, nus), map(float, q0_col))):  # as Python floats
        t = k * period_h
        y_ref = reference(t, q0)
        y = measure(X, nu)
        d = controller.step(t, y, y_ref, q0)
        t_col[k] = t
        x_col[k] = X
        y_col[k] = y
        ref_col[k] = y_ref
        d_col[k] = d
        f_col[k] = controller.f_estimate
        if k < n:
            X = step(X, t, d, light, period_h, plant, geom, substeps)
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


def compute_metrics(trace: SimulationTrace) -> TrackingMetrics:
    """Tracking summaries; the offset is noise-free (uses the true state)."""
    t = trace.t
    horizon = float(t[-1])
    window = OFFSET_WINDOW_H
    if horizon < OFFSET_WINDOW_H:
        window = 0.2 * horizon
        warnings.warn(
            f"run shorter than {OFFSET_WINDOW_H} h; offset averaged over "
            f"the final {window:.3g} h",
            stacklevel=2,
        )
    tail = t >= horizon - window - CLOCK_TOL * t[1]
    err = trace.y_ref - trace.x_true
    offset = float(np.mean(err[tail]))
    iae = _trapz(np.abs(err), t)

    inside = np.abs(err) <= BAND * trace.y_ref
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


def time_to_band(trace: SimulationTrace, t_from: float) -> float | None:
    """Hours after t_from until the true state first enters the relative
    BAND around the reference; None if it never does.

    Only samples strictly after t_from count, so when t_from is a reference
    switch instant the band is measured against the new value (switches take
    effect strictly after their start time).
    """
    mask = trace.t > t_from + CLOCK_TOL * trace.t[1]
    err = np.abs(trace.y_ref - trace.x_true)[mask]
    inside = err <= BAND * trace.y_ref[mask]
    hit = np.flatnonzero(inside)
    if not hit.size:
        return None
    return float(trace.t[mask][hit[0]] - t_from)


def _controller_config(name: str) -> FlConfig | IpConfig:
    if name not in CONTROLLERS:
        raise ValueError(f"unknown controller {_shown(name)} (choices: {', '.join(CONTROLLERS)})")
    return CONTROLLERS[name]()


def light_step_scenario(controller: str = "ip", seed: int = 0) -> Scenario:
    """Benchmark: bright-to-dim light step with a matching setpoint drop.

    Fifty hours at the benchmark's fixed setpoints: 0.38 kg/m3 under
    600 umol/m2/s, dropping to 0.17 kg/m3 when the light steps down to
    100 umol/m2/s at t = 30 h.  Both sit below the productivity optimum that
    optimal_setpoint finds, X* = 0.3985 and 0.2018 kg/m3, by 4.6% and 15.8%.
    Registered as "paper-4.1".
    """
    return Scenario(
        name="paper-4.1",
        duration_h=50.0,
        x0=0.17,
        light=LIGHT_STEP_PROFILE,
        reference=PiecewiseConstant(((0.0, 0.38), (LIGHT_STEP_PROFILE.points[-1][0], 0.17))),
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
    plant never changes, and the model-free controller does not read mu_0, so
    its cells share one equal scenario (each cell keeps the base's name).  All
    cells reuse one noise seed, so they are comparable sample by sample.  Cells
    are independent; a diverging cell (IntegrationError) is recorded with its
    error message and the sweep continues.  Any other error propagates.
    """
    cells: list[SweepCell] = []
    for kind, config_type in CONTROLLERS.items():
        kind_base = base.controller if isinstance(base.controller, config_type) else config_type()
        for mu_0 in mu0_values:
            cfg = kind_base.with_model_rate(mu_0)
            cell_scenario = replace(base, controller=cfg)
            try:
                trace = run_scenario(cell_scenario)
                metrics = compute_metrics(trace)
                cells.append(SweepCell(kind, mu_0, cell_scenario, trace, metrics))
            except IntegrationError as exc:
                cells.append(SweepCell(kind, mu_0, cell_scenario, None, None, error=str(exc)))
    return cells

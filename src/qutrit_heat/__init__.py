"""Steady-state heat transport through a resonator-filtered qutrit.

A three-level superconducting circuit exchanges photons with three thermal
reservoirs through finite-quality-factor resonators. The package derives the
circuit spectrum, assembles Lorentzian-filtered transition rates obeying
local detailed balance, solves the stationary rate equations, and computes
heat currents plus the derived diode (rectification) and circulator metrics,
with a sweep engine and CLI for parameter maps.
"""

from .circuit import (
    CircuitParams,
    QutritSpectrum,
    derive_spectrum,
)
from .errors import (
    AmbiguousExtremum,
    ConfigError,
    InvalidFlux,
    NonPositiveFrequency,
    QutritHeatError,
    ReducibleChain,
    UndefinedCoefficient,
)
from .steady import (
    SteadyState,
    StochasticEstimate,
    gillespie_estimate,
    ideal_current_amplitude,
)
from .sweep import (
    PRESETS,
    SweepAxis,
    SweepResult,
    SweepSpec,
    preset,
    run_sweep,
    write_csv,
    write_sweep,
)
from .transport import (
    HeatCurrents,
    SystemConfig,
    TemperatureScenario,
    circulation,
    classify_regime,
    rectification_2t,
    rectification_3t,
    solve_temperatures,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousExtremum",
    "CircuitParams",
    "ConfigError",
    "HeatCurrents",
    "InvalidFlux",
    "NonPositiveFrequency",
    "PRESETS",
    "QutritHeatError",
    "QutritSpectrum",
    "ReducibleChain",
    "SteadyState",
    "StochasticEstimate",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TemperatureScenario",
    "UndefinedCoefficient",
    "circulation",
    "classify_regime",
    "derive_spectrum",
    "gillespie_estimate",
    "ideal_current_amplitude",
    "preset",
    "rectification_2t",
    "rectification_3t",
    "run_sweep",
    "solve_temperatures",
    "write_csv",
    "write_sweep",
]

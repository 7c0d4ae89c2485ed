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
    filter_width_advisories,
)
from .errors import (
    AmbiguousExtremum,
    ChannelMismatch,
    ConfigError,
    InvalidFlux,
    NonPositiveFrequency,
    QutritHeatError,
    ReducibleChain,
    UndefinedCoefficient,
)
from .rates import (
    BathChannel,
    BathSet,
    RateMatrix,
    assemble_rate_matrix,
    bose_occupation,
)
from .steady import (
    SteadyState,
    StochasticEstimate,
    derive_seed,
    gillespie_estimate,
    ideal_current_amplitude,
    solve_steady,
)
from .sweep import (
    PRESETS,
    SweepAxis,
    SweepResult,
    SweepSpec,
    preset,
    run_sweep,
    write_csv,
)
from .transport import (
    HeatCurrents,
    SystemConfig,
    TemperatureScenario,
    TransportReport,
    circulation,
    classify_regime,
    heat_currents,
    rectification_2t,
    rectification_3t,
    scenario_current,
    solve_temperatures,
    transport_report,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousExtremum",
    "BathChannel",
    "BathSet",
    "ChannelMismatch",
    "CircuitParams",
    "ConfigError",
    "HeatCurrents",
    "InvalidFlux",
    "NonPositiveFrequency",
    "PRESETS",
    "QutritHeatError",
    "QutritSpectrum",
    "RateMatrix",
    "ReducibleChain",
    "SteadyState",
    "StochasticEstimate",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TemperatureScenario",
    "TransportReport",
    "UndefinedCoefficient",
    "assemble_rate_matrix",
    "bose_occupation",
    "circulation",
    "classify_regime",
    "derive_seed",
    "derive_spectrum",
    "filter_width_advisories",
    "gillespie_estimate",
    "heat_currents",
    "ideal_current_amplitude",
    "preset",
    "rectification_2t",
    "rectification_3t",
    "run_sweep",
    "scenario_current",
    "solve_steady",
    "solve_temperatures",
    "transport_report",
    "write_csv",
]

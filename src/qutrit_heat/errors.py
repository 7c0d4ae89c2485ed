"""Exception hierarchy for qutrit_heat."""


class QutritHeatError(Exception):
    """Base class for all package errors."""


class InvalidFlux(QutritHeatError):
    """Reduced flux puts the circuit outside the cos(phi/3) > 0 domain."""


class NonPositiveFrequency(QutritHeatError):
    """A derived transition frequency came out non-positive."""


class ReducibleChain(QutritHeatError):
    """The transition-rate digraph is not strongly connected; the stationary
    state is not unique."""


class UndefinedCoefficient(QutritHeatError):
    """Rectification or circulation coefficient is 0/0 at this point."""


class AmbiguousExtremum(QutritHeatError):
    """Two baths tie for the temperature extremum that the regime
    classification depends on."""


class ConfigError(QutritHeatError):
    """Invalid run configuration (CLI or config file)."""

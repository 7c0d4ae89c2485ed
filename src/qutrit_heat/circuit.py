"""Three-level spectrum of a flux-tunable superconducting circuit.

The qutrit is the lowest three levels of a superconducting island shunted by
a three-junction loop. Everything here is dimensionless: frequencies are in
units of a reference angular frequency omega_r, energies in hbar*omega_r,
temperatures in hbar*omega_r/k_B, and heat currents (downstream) in
lambda*hbar*omega_r**2. There is deliberately no SI conversion layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import cos, inf, sqrt

from .errors import InvalidFlux, NonPositiveFrequency

# Below e_j/e_c = 5 the perturbative two-band treatment of the anharmonic
# well starts to degrade; warn, do not fail.
TRANSMON_RATIO_ADVISORY = 5.0


@dataclass(frozen=True)
class CircuitParams:
    """Loop parameters defining the qutrit.

    e_j is the Josephson energy of each (identical) junction and e_c the
    island charging energy, both in units of hbar*omega_r. phi is the reduced
    flux phase threading the loop, in radians; the effective Josephson energy
    (3/2)*e_j*cos(phi/3) must stay positive for the well to exist. This is
    the one place the flux domain is checked. All three must be finite.
    """

    e_j: float
    e_c: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.e_j < inf:
            raise ValueError(f"e_j must be finite and positive, got {self.e_j}")
        if not 0 <= self.e_c < inf:
            raise ValueError(f"e_c must be finite and non-negative, got {self.e_c}")
        if not -inf < self.phi < inf:
            raise ValueError(f"phi must be finite, got {self.phi}")
        if cos(self.phi / 3.0) <= 0:
            raise InvalidFlux(
                f"cos(phi/3) <= 0 for phi={self.phi}; no stable well"
            )
        if self.e_j < TRANSMON_RATIO_ADVISORY * self.e_c:
            warnings.warn(
                f"e_j/e_c = {self.e_j / self.e_c:.2f} is below "
                f"{TRANSMON_RATIO_ADVISORY}; perturbative spectrum may be "
                "inaccurate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class QutritSpectrum:
    """Transition frequencies of the three lowest levels.

    omega0 is the plasma frequency of the harmonic part of the well. The
    quartic correction lowers level n by e_c*(6n^2+6n+3)/16, so successive
    transitions step down by 0.75*e_c: omega10 > omega21 > omega32 whenever
    e_c > 0. omega32 is exposed only as a validity bound for resonator
    linewidths (nothing here enforces it). omega20 is constructed as
    omega10 + omega21, so level-spacing additivity is exact.
    """

    omega0: float
    omega10: float
    omega21: float
    omega20: float
    omega32: float

    def __post_init__(self) -> None:
        if self.omega20 != self.omega10 + self.omega21:
            raise ValueError("omega20 must equal omega10 + omega21 exactly")
        if not (self.omega10 >= self.omega21 >= self.omega32 >= 0.0):
            raise ValueError("expected omega10 >= omega21 >= omega32 >= 0")

    @property
    def energies(self) -> tuple[float, float, float]:
        """Level energies (E0, E1, E2) with the ground state at zero."""
        return (0.0, self.omega10, self.omega20)


def derive_spectrum(params: CircuitParams) -> QutritSpectrum:
    """Perturbative qutrit spectrum from the circuit parameters.

    Expanding the loop potential around its minimum gives a harmonic well of
    plasma frequency omega0 = sqrt(8 * (3/2) e_j cos(phi/3) * e_c); treating
    the cubic and quartic terms perturbatively shifts level n by
    -e_c*(6n^2+6n+3)/16, hence

        omega10 = omega0 - 0.75 e_c
        omega21 = omega0 - 1.50 e_c
        omega32 = omega0 - 2.25 e_c

    Raises NonPositiveFrequency if anharmonicity pushes a transition to or
    below zero (CircuitParams has already checked the flux domain). The
    degenerate harmonic case e_c = 0 is returned as-is (all transitions
    collapse onto omega0); it is outside the validated parameter regime.
    """
    omega0 = sqrt(12.0 * params.e_j * params.e_c * cos(params.phi / 3.0))
    omega10 = omega0 - 0.75 * params.e_c
    omega21 = omega0 - 1.5 * params.e_c
    omega32 = omega0 - 2.25 * params.e_c
    if params.e_c > 0 and omega32 <= 0.0:
        raise NonPositiveFrequency(
            f"omega32 = {omega32} <= 0 for e_j={params.e_j}, "
            f"e_c={params.e_c}, phi={params.phi}"
        )
    return QutritSpectrum(
        omega0=omega0,
        omega10=omega10,
        omega21=omega21,
        omega20=omega10 + omega21,
        omega32=omega32,
    )


def filter_width_advisories(
    spectrum: QutritSpectrum,
    resonators: dict[str, tuple[float, float]],
) -> list[str]:
    """Advisory check that resonator linewidths respect the level structure.

    resonators maps a channel label to (omega_l, Q_l). A resonator of width
    omega_l/Q_l wider than the omega21 - omega32 gap starts driving the 2<->3
    transition, which the three-level description ignores. Returns warning
    strings; empty list when all widths are safe.
    """
    gap = spectrum.omega21 - spectrum.omega32
    notes = []
    for label, (omega_l, q) in sorted(resonators.items()):
        width = omega_l / q
        if width > gap:
            notes.append(
                f"channel {label}: linewidth omega_l/Q = {width:.4g} exceeds "
                f"the omega21 - omega32 gap {gap:.4g}; levels above the "
                "qutrit would be populated"
            )
    return notes

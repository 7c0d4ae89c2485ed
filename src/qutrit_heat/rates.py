"""Bath-induced transition rates with Lorentzian filtering.

Each bath couples to the qutrit through a resonator of quality factor Q that
acts as a frequency filter. A channel drives all three transitions; the
resonantly assigned one (a: 0<->1, b: 1<->2, c: 0<->2) carries weight
lambda_res, the other two lambda_off, and every rate is suppressed by the
Lorentzian [1 + Q^2 (w/w_l - w_l/w)^2]^-1 evaluated at the transition
frequency. Rate pairs obey local detailed balance at the channel temperature.

The rates are defined once, batched over N scenarios (channel_prefactors,
thermal_rates); assemble_rate_matrix packs one scenario into 3x3 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import QutritSpectrum

CHANNEL_IDS = ("a", "b", "c")

# Upward transitions i -> j (E_j > E_i), in the kernel's (omega10, omega21, omega20) order.
UPWARD_TRANSITIONS = ((0, 1), (1, 2), (0, 2))


def bose_factors(omega, temperature):
    """Elementwise Bose occupation, 0 where T = 0 or omega/T > 700. Every
    occupation comes from this one np.expm1 call, so a scenario's rates are
    bit-identical whatever batch it is solved in."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = omega / temperature
        n = 1.0 / np.expm1(x)
    return np.where((temperature > 0.0) & (x <= 700.0), n, 0.0)


def lorentz_prefactor(omega, omega_l, q, weight):
    """weight (2 omega / Q) / [1 + Q^2 (omega/omega_l - omega_l/omega)^2], elementwise.
    An overflowing detuning gives the exact limit 0; any other overflow gives
    rates that steady.solve_scenarios flags."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = q * (omega / omega_l - omega_l / omega)
        return weight * (2.0 * omega / q) / (1.0 + d * d)


def channel_prefactors(freqs, omega_l, q, lambda_res, lambda_off):
    """Lorentz prefactors (N, channel, transition) from freqs (N, 3), i.e.
    (omega10, omega21, omega20), and per-channel omega_l, q, lambda_res and
    lambda_off broadcasting to (N, 3); lambda_res weighs each channel's
    resonant transition (a: 0<->1, b: 1<->2, c: 0<->2)."""
    weight = np.where(np.eye(3, dtype=bool), np.asarray(lambda_res, dtype=float)[..., None],
                      np.asarray(lambda_off, dtype=float)[..., None])
    return lorentz_prefactor(freqs[..., None, :], np.asarray(omega_l)[..., None],
                             np.asarray(q, dtype=float)[..., None], weight)


def thermal_rates(freqs, prefactors, temperatures):
    """(up, down) rates (N, channel, transition) at (N, 3) channel
    temperatures; down = prefactor (1 + n_B) keeps detailed balance pair by
    pair and spontaneous emission at T = 0."""
    n = bose_factors(freqs[:, None, :], temperatures[:, :, None])
    return prefactors * n, prefactors * (1.0 + n)


@dataclass(frozen=True)
class RateMatrix:
    """Per-channel 3x3 transition rates and their elementwise total.

    Entry [j, i] of a matrix is the rate of the i -> j transition induced by
    that channel; diagonals are zero (the solver builds the generator's
    diagonal itself). Arrays are marked read-only.
    """

    per_channel: dict[str, np.ndarray]
    total: np.ndarray


def assemble_rate_matrix(spectrum: QutritSpectrum, channels) -> RateMatrix:
    """The 3x3 rate matrices of channels (prefactors, temperatures), the
    kernel's N = 1 inputs that SystemConfig.channels gives, against a
    spectrum: thermal_rates packed into [j, i] entries."""
    freqs = np.array([[spectrum.omega10, spectrum.omega21, spectrum.omega20]])
    up, down = thermal_rates(freqs, *channels)
    per: dict[str, np.ndarray] = {}
    for c, cid in enumerate(CHANNEL_IDS):
        g = np.zeros((3, 3))
        for t, (i, j) in enumerate(UPWARD_TRANSITIONS):
            g[j, i], g[i, j] = up[0, c, t], down[0, c, t]
        g.setflags(write=False)
        per[cid] = g
    total = per["a"] + per["b"] + per["c"]
    total.setflags(write=False)
    return RateMatrix(per_channel=per, total=total)

"""Bath-induced transition rates with Lorentzian filtering.

Each bath couples to the qutrit through a resonator of quality factor Q that
acts as a frequency filter. A channel drives all three transitions; the
resonantly assigned one (a: 0<->1, b: 1<->2, c: 0<->2) carries weight
lambda_res, the other two lambda_off, and every rate is suppressed by the
Lorentzian [1 + Q^2 (w/w_l - w_l/w)^2]^-1 evaluated at the transition
frequency. Rate pairs obey local detailed balance at the channel temperature.

The rates are defined once, batched over N scenarios (channel_prefactors,
thermal_rates); one scenario is the case N = 1, as SystemConfig.channels
gives it.
"""

from __future__ import annotations

import numpy as np

CHANNEL_IDS = ("a", "b", "c")


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
    pair and spontaneous emission at T = 0. down takes the Bose buffer."""
    n = bose_factors(freqs[:, None, :], temperatures[:, :, None])
    up = prefactors * n
    n += 1.0
    n *= prefactors
    return up, n


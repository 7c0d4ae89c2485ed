"""Bath-induced transition rates with Lorentzian filtering.

Each bath couples to the qutrit through a resonator of quality factor Q that
acts as a frequency filter. A channel drives all three transitions; the
resonantly assigned one (a: 0<->1, b: 1<->2, c: 0<->2) carries weight
lambda_res, the other two lambda_off, and every rate is suppressed by the
Lorentzian [1 + Q^2 (w/w_l - w_l/w)^2]^-1 evaluated at the transition
frequency. Rate pairs obey local detailed balance at the channel temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import QutritSpectrum
from .errors import ChannelMismatch

CHANNEL_IDS = ("a", "b", "c")

# Resonant level-pair assignment of each channel.
RESONANT_PAIR = {"a": (0, 1), "b": (1, 2), "c": (0, 2)}

# Upward transitions (i -> j with E_j > E_i) and their spectrum attribute.
UPWARD_TRANSITIONS = (
    (0, 1, "omega10"),
    (1, 2, "omega21"),
    (0, 2, "omega20"),
)


def bose_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(omega/T) - 1).

    Exactly 0 at T = 0 (and below occupation 1e-304, where exp would
    overflow). omega must be positive, temperature non-negative.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    return float(bose_factors(np.float64(omega), np.float64(temperature)))


def bose_factors(omega, temperature):
    """Elementwise Bose occupation, 0 where T = 0 or omega/T > 700. Every
    occupation comes from this one np.expm1 call, so a scenario's rates are
    bit-identical whatever batch it is solved in."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = omega / temperature
        n = 1.0 / np.expm1(x)
    return np.where((temperature > 0.0) & (x <= 700.0), n, 0.0)


def lorentz_prefactor(omega, omega_l, q, weight):
    """weight (2 omega / Q) / [1 + Q^2 (omega/omega_l - omega_l/omega)^2], elementwise."""
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


def lorentz_filter(omega: float, omega_l: float, q: float) -> float:
    """Resonator suppression factor in (0, 1].

    Equals 1 iff omega == omega_l and is symmetric under omega <-> omega_l.
    Far off resonance it falls like 1/Q^2 at fixed detuning.
    """
    if not (omega > 0 and omega_l > 0 and q > 0):
        raise ValueError("omega, omega_l and q must all be positive")
    d = q * (omega / omega_l - omega_l / omega)
    return 1.0 / (1.0 + d * d)


@dataclass(frozen=True)
class BathChannel:
    """One resonator-mediated coupling to a thermal reservoir.

    bath identifies the physical reservoir the channel dissipates into;
    distinct channels may share a bath (merged-reservoir configurations), in
    which case they must be given the same temperature. Defaults to the
    channel's own id.
    """

    id: str
    omega: float
    q: float
    lambda_res: float
    lambda_off: float
    temperature: float
    bath: str = ""

    def __post_init__(self) -> None:
        if self.id not in CHANNEL_IDS:
            raise ChannelMismatch(f"channel id must be one of a,b,c: {self.id}")
        if not self.omega > 0:
            raise ValueError(f"channel {self.id}: omega must be positive")
        if not self.q > 0:
            raise ValueError(f"channel {self.id}: q must be positive")
        if self.lambda_res < 0 or self.lambda_off < 0:
            raise ValueError(f"channel {self.id}: coupling weights must be >= 0")
        if self.temperature < 0:
            raise ValueError(f"channel {self.id}: temperature must be >= 0")
        if not self.bath:
            object.__setattr__(self, "bath", self.id)


def _rate_pair(channel: BathChannel, omega_ji: float, weight: float) -> tuple[float, float]:
    """(excitation, relaxation) rates for one transition through one channel."""
    if not omega_ji > 0:
        raise ValueError("omega_ji must be positive (upward transition)")
    pref = lorentz_prefactor(omega_ji, channel.omega, channel.q, weight)
    n = bose_occupation(omega_ji, channel.temperature)
    return pref * n, pref * (1.0 + n)


def excitation_rate(channel: BathChannel, omega_ji: float, weight: float) -> float:
    """Upward rate lambda * (2 w / Q) * filter * n_B(w, T)."""
    return _rate_pair(channel, omega_ji, weight)[0]


def relaxation_rate(channel: BathChannel, omega_ji: float, weight: float) -> float:
    """Downward rate, computed as prefactor * (1 + n_B).

    Algebraically identical to excitation_rate * exp(w/T) (local detailed
    balance) but stays finite at T = 0, where only spontaneous emission
    survives.
    """
    return _rate_pair(channel, omega_ji, weight)[1]


@dataclass(frozen=True)
class BathSet:
    """The three channels, validated as labels {a, b, c}.

    Channels sharing a bath must share a temperature.
    """

    a: BathChannel
    b: BathChannel
    c: BathChannel

    def __post_init__(self) -> None:
        temps: dict[str, float] = {}
        for ch in self:
            if temps.setdefault(ch.bath, ch.temperature) != ch.temperature:
                raise ValueError(
                    f"channels sharing bath {ch.bath!r} have different "
                    "temperatures"
                )

    @classmethod
    def from_channels(cls, channels) -> "BathSet":
        chans = {ch.id: ch for ch in channels}
        if sorted(chans) != list(CHANNEL_IDS) or len(list(channels)) != 3:
            raise ChannelMismatch(
                f"expected exactly channels a, b, c; got {[c.id for c in channels]}"
            )
        return cls(a=chans["a"], b=chans["b"], c=chans["c"])

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def __getitem__(self, cid: str) -> BathChannel:
        try:
            return {"a": self.a, "b": self.b, "c": self.c}[cid]
        except KeyError:
            raise ChannelMismatch(f"no channel {cid!r}") from None


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
    """Build the full rate matrix for three channels against a spectrum.

    channels may be a BathSet or any iterable of three BathChannel with
    labels exactly {a, b, c}. The rates are the kernel's (channel_prefactors,
    thermal_rates) at N = 1.
    """
    if not isinstance(channels, BathSet):
        channels = BathSet.from_channels(tuple(channels))
    freqs = np.array([[spectrum.omega10, spectrum.omega21, spectrum.omega20]])
    col = {f: np.array([[getattr(ch, f) for ch in channels]])
           for f in ("omega", "q", "lambda_res", "lambda_off", "temperature")}
    up, down = thermal_rates(freqs, channel_prefactors(
        freqs, col["omega"], col["q"], col["lambda_res"], col["lambda_off"]), col["temperature"])
    per: dict[str, np.ndarray] = {}
    for c, ch in enumerate(channels):
        g = np.zeros((3, 3))
        for t, (i, j, _) in enumerate(UPWARD_TRANSITIONS):
            g[j, i], g[i, j] = up[0, c, t], down[0, c, t]
        g.setflags(write=False)
        per[ch.id] = g
    total = per["a"] + per["b"] + per["c"]
    total.setflags(write=False)
    return RateMatrix(per_channel=per, total=total)

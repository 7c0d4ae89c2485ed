"""Heat currents and derived transport metrics.

Sign convention used everywhere: a positive current means heat flowing out of
the bath into the system, so at any steady state the three currents sum to
zero. Scenario notation: the current "J_l when m is hot" is the probe bath
l's current with bath m at the hot temperature and every other bath at the
base temperature (unless explicitly overridden).

This module is the one definition of every figure of merit. The scenarios of
the three-terminal rectification R_ll', the two-reservoir rectification R2
and the circulation coefficient C are metric_scenarios, their formulas and
0/0 tests metric_values; rectification_3t, rectification_2t and circulation
evaluate those at one point, and sweep.run_sweep on blocks of grid points.
The regime labels are defined by regimes (classify_regime at one point).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from math import inf
from typing import Mapping

import numpy as np

from .circuit import CircuitParams, QutritSpectrum, derive_spectrum
from .errors import AmbiguousExtremum, UndefinedCoefficient
from .rates import (
    CHANNEL_IDS,
    UPWARD_TRANSITIONS,
    BathChannel,
    BathSet,
    RateMatrix,
    channel_prefactors,
)
from .steady import SteadyState, channel_currents, solve_scenarios, steady_state

#: A coefficient denominator below this fraction of the gross one-way flow is
#: treated as 0/0 (UndefinedCoefficient) rather than as a value.
UNDEFINED_REL_TOL = 1e-12


@dataclass(frozen=True)
class HeatCurrents:
    """Per-channel heat currents, in units lambda*hbar*omega_r**2.

    scale is the largest gross one-way energy flow of any channel (the sum of
    the absolute contributions before cancellation); it is the natural
    yardstick for "this current is numerically zero".
    """

    j_a: float
    j_b: float
    j_c: float
    scale: float

    def by_channel(self) -> dict[str, float]:
        return {"a": self.j_a, "b": self.j_b, "c": self.j_c}

    @property
    def total(self) -> float:
        return self.j_a + self.j_b + self.j_c


def heat_currents(steady: SteadyState, rates: RateMatrix, spectrum: QutritSpectrum) -> HeatCurrents:
    """Per-channel currents J_l = sum_{i<j} w_ji (G_ji p_i - G_ij p_j).

    Each upward transition absorbs the transition energy from the channel's
    bath, each downward one emits it, so the expression is positive when the
    system draws heat from the bath. Because omega20 = omega10 + omega21
    exactly, the three currents sum to zero at any steady state. This is
    steady.channel_currents at N = 1: the net currents are those of the
    stationary state of `rates`; steady.p enters only the gross scale.
    """
    g = rates.per_channel
    up = [[g[c][j, i] for i, j, _ in UPWARD_TRANSITIONS] for c in CHANNEL_IDS]
    down = [[g[c][i, j] for i, j, _ in UPWARD_TRANSITIONS] for c in CHANNEL_IDS]
    freqs = np.array([[spectrum.omega10, spectrum.omega21, spectrum.omega20]])
    j, scale = channel_currents(freqs, np.array([up]), np.array([down]), steady.p[None])
    return HeatCurrents(*j[0].tolist(), scale=float(scale[0]))


@dataclass(frozen=True)
class TemperatureScenario:
    """Temperature assignment for one run.

    Baths listed in hot sit at hot_temperature, the rest at base, except for
    explicit per-bath overrides (stored sorted, so scenarios hash and compare
    by value). All resulting temperatures must be finite and non-negative.
    """

    hot: frozenset[str] = frozenset()
    base: float = 1.0
    hot_temperature: float = 1.0
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hot", frozenset(self.hot))
        object.__setattr__(self, "overrides", tuple(sorted(dict(self.overrides).items())))
        temps = [self.base, self.hot_temperature] + [t for _, t in self.overrides]
        if not all(0 <= t < inf for t in temps):
            raise ValueError(f"scenario temperatures must be finite and >= 0, got {temps}")

    def temperature(self, bath: str) -> float:
        for b, t in self.overrides:
            if b == bath:
                return t
        return self.hot_temperature if bath in self.hot else self.base

    def temperatures(self, baths) -> dict[str, float]:
        return {b: self.temperature(b) for b in baths}


@dataclass(frozen=True)
class SystemConfig:
    """Full system description minus the bath temperatures.

    merged, when set, names the two channels that dissipate into one shared
    reservoir (their bath id is the sorted concatenation, e.g. "bc").
    resonators optionally pins channel frequencies; by default each resonator
    sits exactly on its assigned transition.
    """

    circuit: CircuitParams
    q: float = 100.0
    lambda_res: float = 1.0
    lambda_off: float = 1.0
    merged: tuple[str, str] | None = None
    resonators: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.q < inf:
            raise ValueError(f"q must be finite and positive, got {self.q}")
        if not (0 <= self.lambda_res < inf and 0 <= self.lambda_off < inf):
            raise ValueError("coupling weights must be finite and >= 0")
        if self.merged is not None:
            pair = tuple(sorted(self.merged))
            if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= set(CHANNEL_IDS):
                raise ValueError(f"merged must name two distinct channels, got {self.merged}")
            object.__setattr__(self, "merged", pair)
        object.__setattr__(self, "resonators", tuple(sorted(dict(self.resonators).items())))
        for cid, w in self.resonators:
            if cid not in CHANNEL_IDS:
                raise ValueError(f"unknown resonator channel {cid!r}")
            if not 0 < w < inf:
                raise ValueError(f"resonator {cid}: frequency must be finite and positive")

    @cached_property
    def spectrum(self) -> QutritSpectrum:
        return derive_spectrum(self.circuit)

    def bath_of(self, cid: str) -> str:
        if self.merged and cid in self.merged:
            return "".join(self.merged)
        return cid

    def bath_ids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.bath_of(cid) for cid in CHANNEL_IDS))

    def resonator_frequency(self, cid: str) -> float:
        if cid in dict(self.resonators):
            return dict(self.resonators)[cid]
        spec = self.spectrum
        return {"a": spec.omega10, "b": spec.omega21, "c": spec.omega20}[cid]

    def kernel_frequencies(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Transition (omega10, omega21, omega20) and resonator (a, b, c)
        frequencies for the kernel; ValueError if a transition frequency is
        not positive (e_c = 0, where the plasma frequency vanishes too)."""
        spec = self.spectrum
        freqs = (spec.omega10, spec.omega21, spec.omega20)
        if not min(freqs) > 0.0:
            raise ValueError(f"transition frequencies must be positive, got {freqs}")
        return freqs, tuple(self.resonator_frequency(cid) for cid in CHANNEL_IDS)

    def channels(self, temperatures: Mapping[str, float]) -> BathSet:
        """Instantiate the three channels at given per-bath temperatures."""
        return BathSet.from_channels([
            BathChannel(id=cid, omega=self.resonator_frequency(cid), q=self.q,
                        lambda_res=self.lambda_res, lambda_off=self.lambda_off,
                        temperature=temperatures[self.bath_of(cid)], bath=self.bath_of(cid))
            for cid in CHANNEL_IDS
        ])


@dataclass(frozen=True)
class TransportReport:
    """Everything known about one steady-state point."""

    scenario: TemperatureScenario
    steady: SteadyState
    currents: HeatCurrents
    regime: str


def solve_temperatures(
    config: SystemConfig, temperatures: Mapping[str, float]
) -> tuple[SteadyState, HeatCurrents]:
    """Solve the steady state at explicit per-bath temperatures: the batched
    kernel (steady.solve_scenarios) at N = 1, bit for bit a sweep cell."""
    temps = [temperatures[config.bath_of(cid)] for cid in CHANNEL_IDS]
    if not all(0 <= t < inf for t in temps):
        raise ValueError(f"temperatures must be finite and >= 0, got {temps}")
    freqs, omega_l = config.kernel_frequencies()
    f = np.array([freqs])
    pref = channel_prefactors(f, np.array([omega_l]), config.q, config.lambda_res, config.lambda_off)
    p, residual, connected, j, scale = solve_scenarios(f, pref, np.array([temps], dtype=float))
    steady = steady_state(p[0], residual[0], connected[0])
    return steady, HeatCurrents(*j[0].tolist(), scale=float(scale[0]))


def bath_currents(config: SystemConfig, currents: HeatCurrents) -> dict[str, float]:
    """Aggregate channel currents into per-bath currents (merged baths sum)."""
    out: dict[str, float] = {}
    for cid, j in currents.by_channel().items():
        b = config.bath_of(cid)
        out[b] = out.get(b, 0.0) + j
    return out


def scenario_current(
    config: SystemConfig, scenario: TemperatureScenario, probe: str
) -> float:
    """Heat current of the probe bath under the given scenario."""
    baths = config.bath_ids()
    if probe not in baths:
        raise ValueError(f"probe bath {probe!r} not among {baths}")
    _, currents = solve_temperatures(config, scenario.temperatures(baths))
    return bath_currents(config, currents)[probe]


def transport_report(config: SystemConfig, scenario: TemperatureScenario) -> TransportReport:
    """Solve one scenario and classify its operating regime."""
    temps = scenario.temperatures(config.bath_ids())
    steady, currents = solve_temperatures(config, temps)
    regime = classify_regime(bath_currents(config, currents), temps)
    return TransportReport(scenario=scenario, steady=steady, currents=currents, regime=regime)


def classify_regime(
    currents: Mapping[str, float], temperatures: Mapping[str, float]
) -> str:
    """Label the thermodynamic operation of a steady state (regimes at N = 1).

    "R_l": bath l sits at the minimum temperature and heat is extracted from
    it (J_l > 0). "P_l": bath l sits at the maximum temperature and heat is
    injected into it (J_l < 0). "none" otherwise, including full equilibrium.
    When two baths tie at the relevant extremum and both satisfy the current
    condition, the label is undefined and AmbiguousExtremum is raised (a tied
    bath that is not being cooled/heated does not spoil the other's label).
    If both a refrigerator and a pump label apply at once (impossible without
    a work source) the result is "none" with a warning.
    """
    if set(currents) != set(temperatures):
        raise ValueError("currents and temperatures must cover the same baths")
    names = tuple(temperatures)
    labels, cooled, heated = regimes(names, np.array([[temperatures[b] for b in names]]),
                                     np.array([[currents[b] for b in names]]))
    if labels[0] is None:
        tied = cooled[0] if cooled[0].sum() > 1 else heated[0]
        raise AmbiguousExtremum(f"baths {[b for b, t in zip(names, tied) if t]} tie for a "
                                "temperature extremum and both claim it; label undefined")
    return labels[0]


def regimes(names, temperatures: np.ndarray, currents: np.ndarray):
    """Regime labels of N points whose (N, B) bath temperatures and currents
    list the baths `names`: an object array with None where AmbiguousExtremum
    applies, plus the (N, B) masks of the cooled coldest and heated hottest
    baths. Warns for each point that is both a refrigerator and a pump."""
    tmin = temperatures.min(axis=1, keepdims=True)
    tmax = temperatures.max(axis=1, keepdims=True)
    cooled = (temperatures == tmin) & (currents > 0.0) & (tmax > tmin)
    heated = (temperatures == tmax) & (currents < 0.0) & (tmax > tmin)
    n_cooled, n_heated = cooled.sum(axis=1), heated.sum(axis=1)
    fridge = np.array([f"R_{b}" for b in names], dtype=object)[cooled.argmax(axis=1)]
    pump = np.array([f"P_{b}" for b in names], dtype=object)[heated.argmax(axis=1)]
    labels = np.where(n_heated == 0, np.where(n_cooled == 1, fridge, "none"),
                      np.where((n_heated == 1) & (n_cooled == 0), pump, "none")).astype(object)
    labels[(n_cooled > 1) | (n_heated > 1)] = None
    for k in np.flatnonzero((n_cooled == 1) & (n_heated == 1)):
        warnings.warn(f"simultaneous {fridge[k]} and {pump[k]} without a work source; "
                      "reporting none", stacklevel=2)
    return labels, cooled, heated


# ---------------------------------------------------------------------------
# Rectification and circulation coefficients.
# ---------------------------------------------------------------------------


def metric_scenarios(name: str, passive="base") -> list[tuple]:
    """Scenarios of metric `name` ("R_ll'", "R2_<pair>_<single>" or "C"), in
    the order metric_values takes them. A scenario gives channel a, b and c
    each a temperature source: "base", "hot", or, for the third bath of
    R_ll', `passive` (a fixed temperature, or a source the caller resolves).

    R_ll': l' hot, then l hot. R2: the single bath hot, then the merged pair
    hot. C: a, b and c hot in turn.
    """
    if name == "C":
        hot, third = CHANNEL_IDS, ""
    elif name.startswith("R2_"):
        hot, third = (name[6], name[3:5]), ""
    else:
        hot, third = (name[3], name[2]), "".join(set(CHANNEL_IDS) - set(name[2:4]))
    return [tuple("hot" if c in h else passive if c in third else "base" for c in CHANNEL_IDS)
            for h in hot]


def bath_current(j: np.ndarray, channels) -> np.ndarray:
    """(N,) current of the bath made of `channels` from (N, channel) j."""
    return j[:, [CHANNEL_IDS.index(c) for c in channels]].sum(axis=1)


def metric_values(name: str, parts) -> tuple[np.ndarray, np.ndarray]:
    """Values of metric `name` and the mask where it is 0/0 (a denominator at
    most UNDEFINED_REL_TOL times the scale), from the (j, scale) of its
    metric_scenarios: (N, channel) currents and (N,) gross scales.

    R_ll' and R2 are -(J_fwd - J_bwd) / (|J_fwd| + |J_bwd|), J_fwd the
    current of bath l (of the merged pair) in the first scenario and J_bwd
    that of l' (of the single bath) in the second; +1 and -1 are perfect
    diodes. C is (|J_cw| - |J_ccw|) / |J_cw + J_ccw| with J_cw = J_ab J_bc
    J_ca and J_ccw = J_ac J_cb J_ba, J_lm bath l's current with m hot, and
    its scale is the product of the three scales.
    """
    if name == "C":
        (ja, sa), (jb, sb), (jc, sc) = parts
        j_cw, j_ccw = jb[:, 0] * jc[:, 1] * ja[:, 2], jc[:, 0] * jb[:, 2] * ja[:, 1]
        num, denom, scale = abs(j_cw) - abs(j_ccw), abs(j_cw + j_ccw), sa * sb * sc
    else:
        (jf, sf), (jb, sb) = parts
        fwd, bwd = (name[3:5], name[6]) if name.startswith("R2_") else (name[2], name[3])
        j_fwd, j_bwd = bath_current(jf, fwd), bath_current(jb, bwd)
        num, denom, scale = -(j_fwd - j_bwd), abs(j_fwd) + abs(j_bwd), np.maximum(sf, sb)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / denom, denom <= UNDEFINED_REL_TOL * scale


def _coefficient(config: SystemConfig, name: str, base: float, hot: float,
                 passive: float | None = None) -> float:
    """Metric `name` at one point: its scenarios solved by solve_temperatures
    with "base" at base, "hot" at hot and the passive bath at passive."""
    source = {"base": base, "hot": hot}
    parts = []
    for scenario in metric_scenarios(name, "base" if passive is None else passive):
        temps = {config.bath_of(c): source.get(s, s) for c, s in zip(CHANNEL_IDS, scenario)}
        _, cur = solve_temperatures(config, temps)
        parts.append((np.array([[cur.j_a, cur.j_b, cur.j_c]]), np.array([cur.scale])))
    value, undefined = metric_values(name, parts)
    if undefined[0]:
        raise UndefinedCoefficient(f"{name} is 0/0 at base {base}, hot {hot}")
    return float(value[0])


def rectification_3t(
    config: SystemConfig,
    l: str,
    l_prime: str,
    base: float,
    hot: float,
    passive_temperature: float | None = None,
) -> float:
    """Three-terminal rectification R_ll' between baths l and l'.

    Forward: l' hot, l (and the passive bath) at base; backward: roles
    swapped. The passive bath stays at base unless passive_temperature is
    given. +1 and -1 are perfect diodes (heat flows the same way between l
    and l' in both scenarios).
    """
    if config.merged is not None:
        raise ValueError("three-terminal rectification needs three distinct baths")
    if l == l_prime or not {l, l_prime} <= set(CHANNEL_IDS):
        raise ValueError(f"need two distinct channels among a,b,c, got {l!r},{l_prime!r}")
    return _coefficient(config, f"R_{l}{l_prime}", base, hot, passive_temperature)


def rectification_2t(
    config: SystemConfig,
    merged: tuple[str, str],
    single: str,
    base: float,
    hot: float,
) -> float:
    """Two-reservoir rectification with channels `merged` sharing one bath.

    Forward: the single-channel bath is hot and the merged bath at base;
    backward: the merged bath is hot. The merged bath's current is the sum
    over its two channels.
    """
    pair = tuple(sorted(merged))
    if single in pair or not set(pair) <= set(CHANNEL_IDS) or len(set(pair)) != 2:
        raise ValueError(f"invalid merge {merged!r} against single {single!r}")
    return _coefficient(replace(config, merged=pair), f"R2_{pair[0]}{pair[1]}_{single}", base, hot)


def circulation(config: SystemConfig, base: float, hot: float) -> float:
    """Circulation coefficient C from the three single-hot scenarios.

    Perfectly filtered couplings give zero circulation; |C| = 1 means the
    heat always circulates the same way around the triangle.
    """
    if config.merged is not None:
        raise ValueError("circulation needs three distinct baths")
    return _coefficient(config, "C", base, hot)

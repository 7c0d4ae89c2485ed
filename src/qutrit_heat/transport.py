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
from functools import cached_property, reduce
from math import inf
from typing import Mapping

import numpy as np

from .circuit import TRANSMON_RATIO_ADVISORY, CircuitParams, QutritSpectrum, derive_spectrum
from .errors import AmbiguousExtremum, QutritHeatError, ReducibleChain, UndefinedCoefficient
from .rates import CHANNEL_IDS, channel_prefactors
from .steady import SteadyState, failure_codes, solve_scenarios

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


@dataclass(frozen=True)
class TemperatureScenario:
    """Temperature assignment for one run.

    Baths listed in hot (a string is one bath id) sit at hot_temperature,
    the rest at base, except for explicit per-bath overrides (stored sorted,
    so scenarios hash and compare by value). All resulting temperatures must
    be finite and non-negative.
    """

    hot: frozenset[str] = frozenset()
    base: float = 1.0
    hot_temperature: float = 1.0
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hot", frozenset({self.hot} if isinstance(self.hot, str) else self.hot))
        object.__setattr__(self, "overrides", tuple(sorted(dict(self.overrides).items())))
        temps = [self.base, self.hot_temperature] + [t for _, t in self.overrides]
        if not all(0 <= t < inf for t in temps):
            raise ValueError(f"scenario temperatures must be finite and >= 0, got {temps}")

    def source(self, bath: str) -> str | float:
        """Where bath's temperature comes from: its override, else "hot" or "base"."""
        return dict(self.overrides).get(bath, "hot" if bath in self.hot else "base")

    def temperature(self, bath: str) -> float:
        source = self.source(bath)
        return {"hot": self.hot_temperature, "base": self.base}.get(source, source)

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

    def advisories(self, q: float | None = None) -> list[str]:
        """Every advisory: the e_j/e_c ratio below TRANSMON_RATIO_ADVISORY,
        then each channel whose linewidth omega_l/Q at quality factor q (by
        default the config's) exceeds the omega21 - omega32 gap above the
        qutrit; the e_j/e_c note alone where the spectrum does not derive."""
        e_j, e_c = self.circuit.e_j, self.circuit.e_c
        notes = [f"e_j/e_c = {e_j / e_c:.2f} is below {TRANSMON_RATIO_ADVISORY}; perturbative "
                 "spectrum may be inaccurate"] if e_j < TRANSMON_RATIO_ADVISORY * e_c else []
        try:
            gap = self.spectrum.omega21 - self.spectrum.omega32
        except QutritHeatError:
            return notes
        for cid in CHANNEL_IDS:
            width = self.resonator_frequency(cid) / (self.q if q is None else q)
            if width > gap:
                notes.append(f"channel {cid}: linewidth omega_l/Q = {width:.4g} exceeds the "
                             f"omega21 - omega32 gap {gap:.4g}; levels above the qutrit would "
                             "be populated")
        return notes

    def kernel_frequencies(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Transition (omega10, omega21, omega20) and resonator (a, b, c)
        frequencies for the kernel; ValueError if a transition frequency is
        not positive (e_c = 0, where the plasma frequency vanishes too)."""
        spec = self.spectrum
        freqs = (spec.omega10, spec.omega21, spec.omega20)
        if not min(freqs) > 0.0:
            raise ValueError(f"transition frequencies must be positive, got {freqs}")
        return freqs, tuple(self.resonator_frequency(cid) for cid in CHANNEL_IDS)

    def channels(self, temperatures: Mapping[str, float]) -> tuple[np.ndarray, ...]:
        """The kernel's N = 1 inputs at per-bath temperatures: transition
        frequencies (1, 3), rates.channel_prefactors (1, 3, 3) and channel
        temperatures (1, 3). The channels of a merged bath take its one
        temperature. The scalar API checks those temperatures (finite, >= 0)
        here only."""
        temps = [temperatures[self.bath_of(cid)] for cid in CHANNEL_IDS]
        if not all(0 <= t < inf for t in temps):
            raise ValueError(f"temperatures must be finite and >= 0, got {temps}")
        freqs, omega_l = self.kernel_frequencies()
        freqs = np.array([freqs])
        pref = channel_prefactors(freqs, np.array([omega_l]), self.q,
                                  self.lambda_res, self.lambda_off)
        return freqs, pref, np.array([temps], dtype=float)


def solve_temperatures(
    config: SystemConfig, temperatures: Mapping[str, float]
) -> tuple[SteadyState, HeatCurrents]:
    """Solve the steady state at explicit per-bath temperatures: the batched
    kernel (steady.solve_scenarios) at N = 1, bit for bit a sweep cell; it
    raises where the sweep flags the cell (steady.failure_codes)."""
    p, residual, connected, j, scale = solve_scenarios(*config.channels(temperatures))
    if not connected[0]:
        raise ReducibleChain("rate digraph is not strongly connected")
    p = p[0]
    p.setflags(write=False)
    steady = SteadyState(p=p, residual=float(residual[0]))
    if failure_codes(residual, connected, j, scale)[0]:  # the populations passed
        raise ValueError(f"heat currents {j[0].tolist()} with scale {scale[0]} are not finite")
    return steady, HeatCurrents(*j[0].tolist(), scale=float(scale[0]))


def bath_currents(config: SystemConfig, currents: HeatCurrents) -> dict[str, float]:
    """Aggregate channel currents into per-bath currents (merged baths sum)."""
    out: dict[str, float] = {}
    for cid, j in currents.by_channel().items():
        b = config.bath_of(cid)
        out[b] = out.get(b, 0.0) + j
    return out


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
    list the baths `names`: a list with None where AmbiguousExtremum applies,
    plus the (N, B) masks of the cooled coldest and heated hottest baths, from
    integer codes (0 none, 1 + b R_b, 1 + B + b P_b, -1 None) mapped to the
    labels. Warns for each point that is both a refrigerator and a pump.
    The extremes are taken bath by bath: a min over a short axis of many
    points costs about 20 times as much."""
    tmin = reduce(np.minimum, temperatures.T)[:, None]
    tmax = reduce(np.maximum, temperatures.T)[:, None]
    spread = tmax > tmin
    cooled = (temperatures == tmin) & (currents > 0.0) & spread
    heated = (temperatures == tmax) & (currents < 0.0) & spread
    n_cooled, n_heated = cooled.sum(axis=1), heated.sum(axis=1)
    fridge, pump = 1 + cooled.argmax(axis=1), 1 + len(names) + heated.argmax(axis=1)
    code = np.where(n_heated == 0, np.where(n_cooled == 1, fridge, 0),
                    np.where((n_heated == 1) & (n_cooled == 0), pump, 0))
    code[(n_cooled > 1) | (n_heated > 1)] = -1
    labels = ["none", *(f"R_{b}" for b in names), *(f"P_{b}" for b in names), None]
    for k in np.flatnonzero((n_cooled == 1) & (n_heated == 1)):
        warnings.warn(f"simultaneous {labels[fridge[k]]} and {labels[pump[k]]} without a work "
                      "source; reporting none", stacklevel=2)
    return list(map(labels.__getitem__, code.tolist())), cooled, heated


# ---------------------------------------------------------------------------
# Rectification and circulation coefficients.
# ---------------------------------------------------------------------------


def metric_scenarios(name: str, passive="base", merged=None) -> list[tuple]:
    """Scenarios of metric `name` ("R_ll'", "R2_<pair>_<single>" or "C"), in
    the order metric_values takes them. A scenario gives channel a, b and c
    each a temperature source: "base", "hot", or, for the third bath of
    R_ll', `passive` (a fixed temperature, or a source the caller resolves).

    R_ll': l' hot, then l hot. R2: the single bath hot, then the merged pair
    hot. C: a, b and c hot in turn. R_ll' and C need three distinct baths:
    with a `merged` channel pair (SystemConfig.merged) they raise ValueError.
    """
    if merged is not None and not name.startswith("R2_"):
        raise ValueError(f"{name} needs three distinct baths, got channels {merged} merged")
    if name == "C":
        hot, third = CHANNEL_IDS, ""
    elif name.startswith("R2_"):
        hot, third = (name[6], name[3:5]), ""
    else:
        hot, third = (name[3], name[2]), "".join(set(CHANNEL_IDS) - set(name[2:4]))
    return [tuple("hot" if c in h else passive if c in third else "base" for c in CHANNEL_IDS)
            for h in hot]


def bath_current(j: np.ndarray, channels) -> np.ndarray:
    """(N,) current of the bath made of `channels` from (N, channel) j,
    added channel by channel."""
    return reduce(np.add, (j[:, CHANNEL_IDS.index(c)] for c in channels))


def metric_values(name: str, parts) -> tuple[np.ndarray, np.ndarray]:
    """Values of metric `name` and the mask where it is 0/0 (a denominator at
    most UNDEFINED_REL_TOL times the scale), from the (j, scale) of its
    metric_scenarios: (N, channel) currents and (N,) gross scales.

    R_ll' and R2 are -(J_fwd - J_bwd) / (|J_fwd| + |J_bwd|), J_fwd the
    current of bath l (of the merged pair) in the first scenario and J_bwd
    that of l' (of the single bath) in the second; +1 and -1 are perfect
    diodes. C is (|J_cw| - |J_ccw|) / |J_cw + J_ccw| with J_cw = J_ab J_bc
    J_ca and J_ccw = J_ac J_cb J_ba, J_lm bath l's current with m hot, and
    its scale is the product of the three scales. Where that product is
    outside the normal float range (it overflows, or underflows below about
    1e-308) and every scale is positive, each scenario's currents are taken
    over its own scale and the scale is 1: the same ratio, as each product
    holds one current of each scenario. A scale of exactly 0 keeps the
    product 0, so C stays flagged 0/0.
    """
    if name == "C":
        (ja, sa), (jb, sb), (jc, sc) = parts
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scale = sa * sb * sc
            normal = (scale >= np.finfo(float).tiny) & (scale <= np.finfo(float).max)
            rescale = ~normal & (sa > 0) & (sb > 0) & (sc > 0)
            if rescale.any():
                ja, jb, jc = (np.where(rescale[:, None], j / s[:, None], j)
                              for j, s in ((ja, sa), (jb, sb), (jc, sc)))
                scale = np.where(rescale, 1.0, scale)
            j_cw, j_ccw = jb[:, 0] * jc[:, 1] * ja[:, 2], jc[:, 0] * jb[:, 2] * ja[:, 1]
            num, denom = abs(j_cw) - abs(j_ccw), abs(j_cw + j_ccw)
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
    for scenario in metric_scenarios(name, "base" if passive is None else passive, config.merged):
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
    and l' in both scenarios). ValueError for a config with merged baths.
    """
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
    if sorted((*merged, single)) != sorted(CHANNEL_IDS):
        raise ValueError(f"invalid merge {merged!r} against single {single!r}")
    pair = tuple(sorted(merged))
    return _coefficient(replace(config, merged=pair), f"R2_{pair[0]}{pair[1]}_{single}", base, hot)


def circulation(config: SystemConfig, base: float, hot: float) -> float:
    """Circulation coefficient C from the three single-hot scenarios.

    Perfectly filtered couplings give zero circulation; |C| = 1 means the
    heat always circulates the same way around the triangle. ValueError for
    a config with merged baths.
    """
    return _coefficient(config, "C", base, hot)

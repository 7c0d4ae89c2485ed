"""Grid sweeps of transport metrics and CSV emission.

A sweep evaluates one or two linear-spaced axes over an otherwise fixed
system configuration. Every grid point is independent; per-point failures
(invalid flux, undefined coefficients, degenerate classifications) are
recorded in the row's flags column and never abort the run. Row order is the
row-major order of the grid regardless of how many workers evaluate it.

No metric is defined here: the scenarios and formulas of R_ll', R2 and C
are transport.metric_scenarios and transport.metric_values, and the regime
labels transport.regimes. This module builds the scenario table of a block
of grid points, solves it in one kernel call and assembles the rows.
"""

from __future__ import annotations

import csv
import io
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from math import inf, log10, pi
from pathlib import Path

import numpy as np

from .circuit import CircuitParams, filter_width_advisories
from .errors import QutritHeatError
from .rates import CHANNEL_IDS, channel_prefactors
from .steady import FAILURE_KINDS, failure_codes, solve_scenarios
from .transport import (
    SystemConfig,
    TemperatureScenario,
    bath_current,
    metric_scenarios,
    metric_values,
    regimes,
)

AXIS_NAMES = (
    "base_temperature",
    "hot_temperature",
    "flux",
    "quality_factor",
    "log10_quality_factor",
    "lambda_off",
)

#: Metric columns the engine can compute. "currents" and "regime" are
#: accepted for explicitness but add no columns; populations, currents and
#: the regime label are always emitted.
METRIC_COLUMNS = ("R_ab", "R_ac", "R_bc", "R2_ab_c", "R2_ac_b", "R2_bc_a", "C")
_NOOP_METRICS = ("currents", "regime")


@dataclass(frozen=True)
class SweepAxis:
    """One linear-spaced sweep axis."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}")
        if self.count < 2:
            raise ValueError(f"axis {self.name}: point count must be >= 2")
        if not -inf < self.start < self.stop < inf:
            raise ValueError(f"axis {self.name}: start must be < stop, both finite")
        if self.name in ("base_temperature", "hot_temperature") and self.start < 0:
            raise ValueError(f"axis {self.name}: temperatures must be >= 0")
        if self.name == "lambda_off" and self.start < 0:
            raise ValueError("axis lambda_off: weights must be >= 0")
        if self.name == "quality_factor" and self.start <= 0:
            raise ValueError("axis quality_factor: Q must be positive")
        if self.name == "log10_quality_factor" and not -300.0 <= self.start < self.stop <= 300.0:
            raise ValueError("axis log10_quality_factor: exponents must lie in [-300, 300]")

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.count)]


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: axes, fixed configuration, scenario template, metrics.

    The template scenario supplies the temperatures; base_temperature and
    hot_temperature axes override its base/hot values per grid point. passive
    controls the third bath in three-terminal rectification metrics: "base"
    (stays at the base temperature), "mean" ((base + hot)/2), or an explicit
    number. A flux axis re-derives the spectrum per point and, unless
    repin_resonators is false, re-pins each resonator to its transition.
    """

    config: SystemConfig
    scenario: TemperatureScenario
    axes: tuple[SweepAxis, ...]
    metrics: tuple[str, ...] = ()
    passive: str | float = "base"
    repin_resonators: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep takes one or two axes")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axes must be distinct")
        for m in self.metrics:
            if m not in METRIC_COLUMNS + _NOOP_METRICS:
                raise ValueError(f"unknown metric {m!r}")
        if isinstance(self.passive, str):
            if self.passive not in ("base", "mean"):
                raise ValueError('passive must be "base", "mean", or a temperature')
        elif not 0 <= float(self.passive) < inf:
            raise ValueError(f"passive temperature must be finite and >= 0, got {self.passive}")

    @property
    def metric_columns(self) -> tuple[str, ...]:
        return tuple(m for m in self.metrics if m in METRIC_COLUMNS)

    @property
    def columns(self) -> tuple[str, ...]:
        return (
            tuple(ax.name for ax in self.axes)
            + ("p0", "p1", "p2", "j_a", "j_b", "j_c")
            + self.metric_columns
            + ("regime", "residual", "flags")
        )

    def grid(self) -> list[tuple[float, ...]]:
        """Axis value tuples in row-major order (first axis outermost)."""
        if len(self.axes) == 1:
            return [(v,) for v in self.axes[0].values()]
        outer, inner = self.axes[0].values(), self.axes[1].values()
        return [(u, v) for u in outer for v in inner]


@dataclass(frozen=True)
class SweepResult:
    """Rows of a finished sweep, in deterministic grid order."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def undefined_count(self) -> int:
        flag_idx = self.columns.index("flags")
        return sum(1 for r in self.rows if "undefined" in (r[flag_idx] or ""))

    def error_count(self) -> int:
        flag_idx = self.columns.index("flags")
        return sum(1 for r in self.rows if "error:" in (r[flag_idx] or ""))


#: Grid points per kernel call. It bounds the scenario table's memory; no
#: result depends on it.
BLOCK_POINTS = 256


def _templates(spec: SweepSpec):
    """Distinct channel-temperature templates of the scenarios a grid point
    needs, the base scenario's index, and per metric the indices of its
    transport.metric_scenarios. A template gives channel a, b and c each
    "base", "hot", "mean" or a fixed temperature."""
    cfg, scen = spec.config, spec.scenario
    passive = spec.passive if isinstance(spec.passive, str) else float(spec.passive)
    templates: list[tuple] = []

    def index(t: tuple) -> int:
        if t not in templates:
            templates.append(t)
        return templates.index(t)

    def source(bath: str):
        return dict(scen.overrides).get(bath, "hot" if bath in scen.hot else "base")

    base = index(tuple(source(cfg.bath_of(c)) for c in CHANNEL_IDS))
    metrics = {name: [index(t) for t in metric_scenarios(name, passive)]
               for name in spec.metric_columns}
    return templates, base, metrics


def _evaluate_block(spec: SweepSpec, points: list[tuple[float, ...]], spectra: dict) -> list[tuple]:
    """Rows of a block of grid points from one kernel call on a table of
    each point's distinct channel-temperature triples (exact repeats within
    a point are solved once). spectra caches the kernel frequencies (or the
    error name) per flux value across the blocks of a chunk."""
    n, cfg, scen = len(points), spec.config, spec.scenario
    axis = {ax.name: [p[i] for p in points] for i, ax in enumerate(spec.axes)}
    if "log10_quality_factor" in axis:
        axis["quality_factor"] = [10.0 ** v for v in axis["log10_quality_factor"]]
    base, hot, q, lambda_off = (
        np.array(axis.get(key, [default] * n), dtype=float)
        for key, default in (("base_temperature", scen.base), ("hot_temperature", scen.hot_temperature),
                             ("quality_factor", cfg.q), ("lambda_off", cfg.lambda_off)))
    freqs, omega_l, error = np.ones((n, 3)), np.ones((n, 3)), [""] * n
    for k, phi in enumerate(axis.get("flux", [None] * n)):
        if phi not in spectra:
            try:
                point_cfg = cfg if phi is None else replace(
                    cfg, circuit=CircuitParams(e_j=cfg.circuit.e_j, e_c=cfg.circuit.e_c, phi=phi),
                    resonators=() if spec.repin_resonators else cfg.resonators)
                spectra[phi] = point_cfg.kernel_frequencies()
            except (QutritHeatError, ValueError, ArithmeticError) as exc:
                spectra[phi] = type(exc).__name__
        if isinstance(spectra[phi], str):
            error[k] = spectra[phi]
        else:
            freqs[k], omega_l[k] = spectra[phi]

    templates, base_slot, metric_slots = _templates(spec)
    sources = {"base": base, "hot": hot, "mean": 0.5 * (base + hot)}
    temps = np.stack([np.stack([sources[s] if isinstance(s, str) else np.full(n, s) for s in t],
                               axis=1) for t in templates], axis=1)  # (point, slot, channel)
    first = (temps[:, :, None, :] == temps[:, None, :, :]).all(axis=3).argmax(axis=2)
    keep = (first == np.arange(len(templates))) & np.array([not e for e in error])[:, None]
    blank = (None,) * (6 + len(spec.metric_columns))
    if not keep.any():
        return [values + blank + (None, None, f"error:{e}") for values, e in zip(points, error)]
    table = np.zeros(keep.shape, dtype=int)
    table[keep] = np.arange(int(keep.sum()))
    table = np.take_along_axis(table, first, axis=1)  # (point, slot) -> scenario
    point, slot = np.nonzero(keep)
    pref = channel_prefactors(freqs, omega_l, q[:, None], cfg.lambda_res, lambda_off[:, None])
    p, residual, connected, j, scale = solve_scenarios(freqs[point], pref[point], temps[point, slot])
    failure = failure_codes(residual, connected)

    rows = table[:, base_slot]
    error = [e or FAILURE_KINDS[f] for e, f in zip(error, failure[rows].tolist())]
    ok = np.array([not e for e in error])
    flags: list[list[str]] = [[] for _ in range(n)]
    regime = np.full(n, None, dtype=object)
    if ok.any():
        baths = cfg.bath_ids()
        members = [[c for c in CHANNEL_IDS if cfg.bath_of(c) == b] for b in baths]
        bath_t = temps[:, base_slot, [CHANNEL_IDS.index(m[0]) for m in members]]
        bath_j = np.stack([bath_current(j[rows], m) for m in members], axis=1)
        regime[ok] = regimes(baths, bath_t[ok], bath_j[ok])[0]
    cells = []
    for name in spec.metric_columns:
        slots = metric_slots[name]
        value, undefined = metric_values(name, [(j[table[:, s]], scale[table[:, s]]) for s in slots])
        kind = failure[table[:, slots[0]]]
        for s in slots[1:]:
            kind = np.where(kind != 0, kind, failure[table[:, s]])
        if cfg.merged and not name.startswith("R2_"):
            kind = np.full(n, 2)  # ValueError, as the scalar API raises for two baths
        column = value.tolist()
        for k in np.flatnonzero(ok & ((kind != 0) | undefined)):
            flags[k].append(f"error:{FAILURE_KINDS[kind[k]]}:{name}" if kind[k] else f"undefined:{name}")
            column[k] = None
        cells.append(column)

    out = []
    for k, (values, pk, jk, res) in enumerate(
            zip(points, p[rows].tolist(), j[rows].tolist(), residual[rows].tolist())):
        if not ok[k]:
            out.append(values + blank + (None, None, f"error:{error[k]}"))
            continue
        if regime[k] is None:
            flags[k].insert(0, "error:AmbiguousExtremum")
        out.append(values + tuple(pk) + tuple(jk) + tuple(c[k] for c in cells)
                   + (regime[k], res, ";".join(flags[k])))
    return out


def _evaluate_chunk(spec: SweepSpec, start: int, stop: int) -> list[tuple]:
    grid, spectra = spec.grid(), {}
    return [row for b in range(start, stop, BLOCK_POINTS)
            for row in _evaluate_block(spec, grid[b:min(b + BLOCK_POINTS, stop)], spectra)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the grid; output order is independent of worker count. Each
    worker evaluates one contiguous range of rows in blocks of BLOCK_POINTS.

    With a quality_factor or log10_quality_factor axis, the resonator
    linewidths at its lowest Q are checked against the level structure
    (circuit.filter_width_advisories) and each advisory is a UserWarning.
    """
    q_axes = [ax for ax in spec.axes if ax.name in ("quality_factor", "log10_quality_factor")]
    if q_axes:
        ax = q_axes[0]
        q_min = ax.start if ax.name == "quality_factor" else 10.0 ** ax.start
        # A fixed configuration without a valid spectrum flags every row instead.
        with suppress(QutritHeatError):
            resonators = {cid: (spec.config.resonator_frequency(cid), q_min) for cid in CHANNEL_IDS}
            for note in filter_width_advisories(spec.config.spectrum, resonators):
                warnings.warn(note, stacklevel=2)
    n = len(spec.grid())
    if workers <= 1:
        rows = _evaluate_chunk(spec, 0, n)
    else:
        bounds = [round(k * n / workers) for k in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_evaluate_chunk, [spec] * workers, bounds[:-1], bounds[1:])
            rows = [row for chunk in chunks for row in chunk]
    return SweepResult(columns=spec.columns, rows=tuple(rows))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(result: SweepResult, destination) -> None:
    """Write header plus rows; floats carry 17 significant digits.

    Undefined or errored cells are empty fields. Rewriting the same result
    produces a byte-identical file.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as fh:
            _write_csv_stream(result, fh)
    else:
        _write_csv_stream(result, destination)


def _write_csv_stream(result: SweepResult, stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_format_cell(c) for c in row])


# ---------------------------------------------------------------------------
# Named presets reproducing the bundled parameter maps.
# ---------------------------------------------------------------------------

_MAP_CIRCUIT = CircuitParams(e_j=5.0, e_c=0.5, phi=pi / 2)


def _map_config(q: float = 100.0, lambda_off: float = 1.0) -> SystemConfig:
    return SystemConfig(circuit=_MAP_CIRCUIT, q=q, lambda_res=1.0, lambda_off=lambda_off)


def _preset_fig2() -> SweepSpec:
    # Operation-regime map over (T_b, T_a) with bath c fixed at 2.
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(
            hot=frozenset({"a"}), base=1.0, hot_temperature=1.0,
            overrides=(("c", 2.0),),
        ),
        axes=(
            SweepAxis("base_temperature", 0.2, 4.0, 201),
            SweepAxis("hot_temperature", 0.2, 4.0, 201),
        ),
    )


def _preset_fig3() -> SweepSpec:
    # Currents versus T_a with T_b = 1.5 and T_c = 2 held fixed.
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(
            hot=frozenset({"a"}), base=1.5, hot_temperature=2.0,
            overrides=(("b", 1.5), ("c", 2.0)),
        ),
        axes=(SweepAxis("hot_temperature", 2.0, 4.0, 501),),
    )


def _rect_axes() -> tuple[SweepAxis, SweepAxis]:
    return (
        SweepAxis("base_temperature", 0.1, 4.0, 201),
        SweepAxis("hot_temperature", 0.1, 4.0, 201),
    )


def _preset_fig4() -> SweepSpec:
    # Three-terminal rectification maps in the perfectly filtered limit.
    return SweepSpec(
        config=_map_config(lambda_off=0.0),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=1.0, hot_temperature=1.0),
        axes=_rect_axes(),
        metrics=("R_ab", "R_ac", "R_bc"),
    )


def _preset_fig5() -> SweepSpec:
    # Same maps with leaky couplings at Q = 100.
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=1.0, hot_temperature=1.0),
        axes=_rect_axes(),
        metrics=("R_ab", "R_ac", "R_bc"),
    )


def _preset_fig6() -> SweepSpec:
    # R_ab with the passive bath at the mean of the other two temperatures.
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=1.0, hot_temperature=1.0),
        axes=_rect_axes(),
        metrics=("R_ab",),
        passive="mean",
    )


def _preset_fig7() -> SweepSpec:
    # Circulation coefficient map at Q = 100, phi = pi/2.
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=1.0, hot_temperature=1.0),
        axes=(
            SweepAxis("base_temperature", 0.05, 2.0, 201),
            SweepAxis("hot_temperature", 0.05, 4.0, 201),
        ),
        metrics=("C",),
    )


def _preset_fig7c() -> SweepSpec:
    # Flux dependence of the circulation at base 0.9, hot temperature inside
    # the perfect-circulation window of the phi = pi/2 map. The flux range
    # stays inside the region where the fourth level clears the qutrit
    # (omega32 > 0 for these circuit parameters).
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9, hot_temperature=3.86),
        axes=(SweepAxis("flux", -4.5, 4.5, 501),),
        metrics=("C",),
    )


def _preset_fig8() -> SweepSpec:
    # Circulation versus base temperature and quality factor at hot T = 2.
    return SweepSpec(
        config=_map_config(),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=1.0, hot_temperature=2.0),
        axes=(
            SweepAxis("base_temperature", 0.05, 2.0, 201),
            SweepAxis("log10_quality_factor", log10(50.0), 3.0, 201),
        ),
        metrics=("C",),
    )


PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig7c": _preset_fig7c,
    "fig8": _preset_fig8,
}


def preset(name: str) -> SweepSpec:
    """Named sweep spec; raises KeyError listing valid names when unknown."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; valid presets: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()

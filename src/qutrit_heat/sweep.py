"""Grid sweeps of transport metrics and CSV emission.

A sweep evaluates one or two linear-spaced axes over an otherwise fixed
system configuration. Every grid point is independent; per-point failures
(invalid flux, undefined coefficients, degenerate classifications) are
recorded in the row's flags column and never abort the run. Row order is the
row-major order of the grid regardless of how many workers evaluate it.

No metric is defined here: the scenarios and formulas of R_ll', R2 and C
are transport.metric_scenarios and transport.metric_values, and the regime
labels transport.regimes. Each block of grid points is one kernel call on
every valid point (one whose spectrum derives) at each distinct scenario
template: valid points x templates scenarios.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext, suppress
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from math import ceil, inf, log10, pi
from pathlib import Path
from types import NoneType

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
    Every hot or overridden bath of the scenario must be one of config's
    baths, and at most one axis may set Q.
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
        if {"quality_factor", "log10_quality_factor"} <= set(names):
            raise ValueError("quality_factor and log10_quality_factor axes both set Q; use one")
        baths = self.config.bath_ids()
        for bath in (*self.scenario.hot, *dict(self.scenario.overrides)):
            if bath not in baths:
                raise ValueError(f"scenario bath {bath!r} is not one of the baths {baths}")
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
        return list(chain.from_iterable(_blocks(self)))


@dataclass(frozen=True)
class SweepResult:
    """Rows of a finished sweep, in deterministic grid order."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def undefined_count(self) -> int:
        return _flag_counts(self.columns, self.rows)[0]

    def error_count(self) -> int:
        return _flag_counts(self.columns, self.rows)[1]


def _flag_counts(columns: tuple[str, ...], rows) -> tuple[int, int]:
    """Of rows with these columns, those flagged undefined and those flagged
    error."""
    k = columns.index("flags")
    flags = [r[k] for r in rows if r[k]]
    return sum("undefined" in f for f in flags), sum("error:" in f for f in flags)


#: Grid points per kernel call and per streamed write. It bounds the scenario
#: table's memory and write_sweep's; no result depends on it.
BLOCK_POINTS = 256


def _blocks(spec: SweepSpec):
    """The grid points in row-major order (first axis outermost), as lists
    of at most BLOCK_POINTS points built one at a time: point k of two axes
    is (outer[k // n_inner], inner[k % n_inner])."""
    *outer, inner = (ax.values() for ax in spec.axes)
    n_inner = len(inner)
    total = n_inner * len(outer[0]) if outer else n_inner
    for start in range(0, total, BLOCK_POINTS):
        stop = min(start + BLOCK_POINTS, total)
        if outer:
            yield [(outer[0][k // n_inner], inner[k % n_inner]) for k in range(start, stop)]
        else:
            yield [(v,) for v in inner[start:stop]]


def _warn_q_advisories(spec: SweepSpec) -> None:
    """With a quality_factor or log10_quality_factor axis, check the
    resonator linewidths at its lowest Q against the level structure
    (circuit.filter_width_advisories); each advisory is a UserWarning at the
    sweep's caller."""
    for ax in [ax for ax in spec.axes if ax.name in ("quality_factor", "log10_quality_factor")]:
        q_min = ax.start if ax.name == "quality_factor" else 10.0 ** ax.start
        # A fixed configuration without a valid spectrum flags every row instead.
        with suppress(QutritHeatError):
            resonators = {cid: (spec.config.resonator_frequency(cid), q_min) for cid in CHANNEL_IDS}
            for note in filter_width_advisories(spec.config.spectrum, resonators):
                warnings.warn(note, stacklevel=3)


def _templates(spec: SweepSpec):
    """Distinct channel-temperature templates of a grid point's scenarios,
    the base scenario first (the sweep's one repeat rule), and per metric
    defined on the config the indices of its transport.metric_scenarios. A
    template gives channel a, b and c "base", "hot", "mean" or a number."""
    cfg, scen = spec.config, spec.scenario
    passive = spec.passive if isinstance(spec.passive, str) else float(spec.passive)
    templates = [tuple(scen.source(cfg.bath_of(c)) for c in CHANNEL_IDS)]
    metrics = {}
    for name in spec.metric_columns:
        with suppress(ValueError):  # not defined on cfg: every row is flagged
            scenarios = metric_scenarios(name, passive, cfg.merged)
            templates += [t for t in scenarios if t not in templates]
            metrics[name] = [templates.index(t) for t in scenarios]
    return templates, metrics


def _evaluate_block(spec: SweepSpec, points: list[tuple[float, ...]]) -> list[tuple]:
    """Rows of a block of grid points, from one kernel call on the table of
    (valid point, template) scenarios; each flux value's spectrum once."""
    n, cfg, scen = len(points), spec.config, spec.scenario
    values = [[p[i] for p in points] for i in range(len(spec.axes))]
    axis = {ax.name: v for ax, v in zip(spec.axes, values)}
    if "log10_quality_factor" in axis:
        axis["quality_factor"] = [10.0 ** v for v in axis["log10_quality_factor"]]
    base, hot, q, lambda_off = (
        np.array(axis.get(key, [default] * n), dtype=float)
        for key, default in (("base_temperature", scen.base), ("hot_temperature", scen.hot_temperature),
                             ("quality_factor", cfg.q), ("lambda_off", cfg.lambda_off)))
    distinct = {}  # flux value -> its position, then its (frequencies, error name)
    index = [distinct.setdefault(phi, len(distinct)) for phi in axis.get("flux", [None] * n)]
    for phi in distinct:
        try:
            point_cfg = cfg if phi is None else replace(
                cfg, circuit=CircuitParams(e_j=cfg.circuit.e_j, e_c=cfg.circuit.e_c, phi=phi),
                resonators=() if spec.repin_resonators else cfg.resonators)
            distinct[phi] = point_cfg.kernel_frequencies(), ""
        except (QutritHeatError, ValueError, ArithmeticError) as exc:
            distinct[phi] = np.ones((2, 3)), type(exc).__name__
    frequencies, error = zip(*distinct.values())
    freqs, omega_l = np.array(frequencies)[index].transpose(1, 0, 2)
    error = np.array(error, dtype=object)[index]

    templates, metric_slots = _templates(spec)
    sources = {"base": base, "hot": hot, "mean": 0.5 * (base + hot)}
    temps = np.stack([np.stack([sources[s] if isinstance(s, str) else np.full(n, s) for s in t],
                               axis=1) for t in templates], axis=1)  # (point, slot, channel)
    valid = np.flatnonzero(error == "")
    blank = (None,) * (6 + len(spec.metric_columns))
    if not valid.size:
        return [point + blank + (None, None, f"error:{e}") for point, e in zip(points, error)]
    point = np.repeat(valid, len(templates))
    table = np.zeros((n, len(templates)), dtype=int)  # (point, slot) -> scenario
    table[valid] = np.arange(point.size).reshape(valid.size, -1)
    pref = channel_prefactors(freqs, omega_l, q[:, None], cfg.lambda_res, lambda_off[:, None])
    p, residual, connected, j, scale = solve_scenarios(freqs[point], pref[point],
                                                       temps[valid].reshape(-1, 3))
    failure = failure_codes(residual, connected, j, scale)

    rows = table[:, 0]
    error = np.where(error == "", np.array(FAILURE_KINDS, dtype=object)[failure[rows]], error)
    ok = error == ""
    baths = cfg.bath_ids()
    members = [[c for c in CHANNEL_IDS if cfg.bath_of(c) == b] for b in baths]
    bath_t = temps[:, 0, [CHANNEL_IDS.index(m[0]) for m in members]]
    bath_j = np.stack([bath_current(j[rows], m) for m in members], axis=1)
    regime = np.full(n, None, dtype=object)
    regime[ok] = regimes(baths, bath_t[ok], bath_j[ok])[0]
    ambiguous = np.flatnonzero(ok & np.equal(regime, None)).tolist()
    flags = {k: ["error:AmbiguousExtremum"] for k in ambiguous}
    cells = []
    for name in spec.metric_columns:
        if name not in metric_slots:  # ValueError, as the scalar API raises
            value, undefined, kind = np.zeros(n), False, np.full(n, FAILURE_KINDS.index("ValueError"))
        else:
            slots = metric_slots[name]
            value, undefined = metric_values(name, [(j[table[:, s]], scale[table[:, s]]) for s in slots])
            codes = failure[table[:, slots]]  # the first failing scenario names the kind
            kind = codes[np.arange(n), (codes != 0).argmax(axis=1)]
        column = value.tolist()
        for k in np.flatnonzero(ok & ((kind != 0) | undefined)).tolist():
            flags.setdefault(k, []).append(
                f"error:{FAILURE_KINDS[kind[k]]}:{name}" if kind[k] else f"undefined:{name}")
            column[k] = None
        cells.append(column)

    out = list(zip(*values, *p[rows].T.tolist(), *j[rows].T.tolist(), *cells, regime.tolist(),
                   residual[rows].tolist(), [";".join(flags.get(k, ())) for k in range(n)]))
    for k in np.flatnonzero(~ok).tolist():
        out[k] = points[k] + blank + (None, None, f"error:{error[k]}")
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the grid in blocks of BLOCK_POINTS points, in this process
    or on a pool of `workers` processes that takes them as at most `workers`
    runs of contiguous blocks; output order is independent of both.

    With a quality_factor or log10_quality_factor axis, the resonator
    linewidths at its lowest Q are checked against the level structure
    (circuit.filter_width_advisories) and each advisory is a UserWarning.
    """
    _warn_q_advisories(spec)
    evaluate = partial(_evaluate_block, spec)
    if workers <= 1:
        evaluated = map(evaluate, _blocks(spec))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        blocks = list(_blocks(spec))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            evaluated = list(pool.map(evaluate, blocks, chunksize=ceil(len(blocks) / workers)))
    return SweepResult(columns=spec.columns, rows=tuple(chain.from_iterable(evaluated)))


def _line_formatter():
    """The CSV line of a row: a float cell as %.17g, any other cell as str()
    and None as an empty field, joined by commas and ended by a line feed.
    Each line is one %-format of a template cached per row of cell types."""
    templates: dict[tuple[type, ...], tuple[str, bool]] = {}

    def line(row: tuple) -> str:
        types = tuple(map(type, row))
        if types not in templates:
            cells = ("" if t is NoneType else "%.17g" if issubclass(t, float) else "%s"
                     for t in types)
            templates[types] = ",".join(cells) + "\n", NoneType in types
        template, sparse = templates[types]
        return template % (tuple(c for c in row if c is not None) if sparse else row)

    return line


def _opened(destination):
    """A path opened for writing, or a text stream as it is."""
    if isinstance(destination, (str, Path)):
        return open(destination, "w", newline="")
    return nullcontext(destination)


def write_csv(result: SweepResult, destination) -> None:
    """Write the header and one line per row to a path or a text stream.

    No field is quoted: column names, regime labels and flags hold no comma,
    quote or line break. The bytes depend on the rows only, not on the worker
    count or BLOCK_POINTS; _line_formatter gives each line.
    """
    with _opened(destination) as stream:
        stream.write(",".join(result.columns) + "\n")
        stream.writelines(map(_line_formatter(), result.rows))


def write_sweep(spec: SweepSpec, destination) -> tuple[int, int, int]:
    """Evaluate the grid and write its CSV to a path or a text stream, block
    by block: only one block of BLOCK_POINTS points and their rows is held
    at a time. The bytes equal write_csv(run_sweep(spec), destination)'s,
    and so do the advisories. Writing starts with the first block, so a run
    that fails can leave a partial file. Returns the rows, the rows flagged
    undefined and the rows flagged error.
    """
    _warn_q_advisories(spec)
    line = _line_formatter()
    rows = undefined = errors = 0
    with _opened(destination) as stream:
        stream.write(",".join(spec.columns) + "\n")
        for block in _blocks(spec):
            block_rows = _evaluate_block(spec, block)
            stream.writelines(map(line, block_rows))
            block_undefined, block_errors = _flag_counts(spec.columns, block_rows)
            rows += len(block_rows)
            undefined += block_undefined
            errors += block_errors
    return rows, undefined, errors


# ---------------------------------------------------------------------------
# Named presets reproducing the bundled parameter maps.
# ---------------------------------------------------------------------------


def _map_preset(*axes: SweepAxis, base: float = 1.0, hot_temperature: float = 1.0,
                overrides=(), lambda_off: float = 1.0, **spec) -> SweepSpec:
    """A preset: a sweep of the map circuit (E_J = 5, E_C = 0.5, phi = pi/2)
    at Q = 100 and lambda_res = 1 with bath a hot; spec may set metrics and
    passive."""
    return SweepSpec(
        config=SystemConfig(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=pi / 2), q=100.0,
                            lambda_res=1.0, lambda_off=lambda_off),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=base,
                                     hot_temperature=hot_temperature, overrides=overrides),
        axes=axes, **spec,
    )


PRESETS = {
    # Operation-regime map over (T_b, T_a) with bath c fixed at 2.
    "fig2": partial(_map_preset, SweepAxis("base_temperature", 0.2, 4.0, 201),
                    SweepAxis("hot_temperature", 0.2, 4.0, 201), overrides=(("c", 2.0),)),
    # Currents versus T_a with T_b = 1.5 and T_c = 2 held fixed.
    "fig3": partial(_map_preset, SweepAxis("hot_temperature", 2.0, 4.0, 501), base=1.5,
                    hot_temperature=2.0, overrides=(("b", 1.5), ("c", 2.0))),
    # Three-terminal rectification maps in the perfectly filtered limit.
    "fig4": partial(_map_preset, SweepAxis("base_temperature", 0.1, 4.0, 201),
                    SweepAxis("hot_temperature", 0.1, 4.0, 201), lambda_off=0.0,
                    metrics=("R_ab", "R_ac", "R_bc")),
    # Same maps with leaky couplings at Q = 100.
    "fig5": partial(_map_preset, SweepAxis("base_temperature", 0.1, 4.0, 201),
                    SweepAxis("hot_temperature", 0.1, 4.0, 201), metrics=("R_ab", "R_ac", "R_bc")),
    # R_ab with the passive bath at the mean of the other two temperatures.
    "fig6": partial(_map_preset, SweepAxis("base_temperature", 0.1, 4.0, 201),
                    SweepAxis("hot_temperature", 0.1, 4.0, 201), metrics=("R_ab",), passive="mean"),
    # Circulation coefficient map at Q = 100, phi = pi/2.
    "fig7": partial(_map_preset, SweepAxis("base_temperature", 0.05, 2.0, 201),
                    SweepAxis("hot_temperature", 0.05, 4.0, 201), metrics=("C",)),
    # Flux dependence of the circulation at base 0.9, hot temperature inside
    # the perfect-circulation window of the phi = pi/2 map. The flux range
    # stays inside the region where the fourth level clears the qutrit
    # (omega32 > 0 for these circuit parameters).
    "fig7c": partial(_map_preset, SweepAxis("flux", -4.5, 4.5, 501), base=0.9,
                     hot_temperature=3.86, metrics=("C",)),
    # Circulation versus base temperature and quality factor at hot T = 2.
    "fig8": partial(_map_preset, SweepAxis("base_temperature", 0.05, 2.0, 201),
                    SweepAxis("log10_quality_factor", log10(50.0), 3.0, 201),
                    hot_temperature=2.0, metrics=("C",)),
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

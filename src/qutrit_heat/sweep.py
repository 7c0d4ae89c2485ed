"""Grid sweeps of transport metrics and CSV emission.

A sweep evaluates one or two linear-spaced axes over an otherwise fixed
system configuration. Every grid point is independent; per-point failures
(invalid flux, undefined coefficients, degenerate classifications) are
recorded in the row's flags column and never abort the run. Row order is the
row-major order of the grid regardless of how many workers evaluate it.
Each advisory (SystemConfig.advisories) warns once per sweep, in the calling process.
A spec is built directly or parsed from a sweep section (_parse_section),
a config file's or a preset's (PRESETS): the two are the same data.

No metric is defined here: the scenarios and formulas of R_ll', R2 and C
are transport.metric_scenarios and transport.metric_values, and the regime
labels transport.regimes. Each block of grid points is one kernel call on
every valid point (one whose spectrum derives) at each distinct scenario
template: valid points x templates scenarios, at most BLOCK_SCENARIOS
unless one point has more templates. What every block shares is
planned once per sweep (_plan), and both CSV writers format every 32 rows
with one %-format (_block_text).
"""

from __future__ import annotations

import sys
import warnings
from contextlib import nullcontext, suppress
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain, product
from math import ceil, inf, log10, pi
from pathlib import Path

import numpy as np

from .circuit import CircuitParams
from .errors import ConfigError, InvalidFlux, QutritHeatError
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
        if isinstance(self.count, bool) or not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"axis {self.name}: point count must be an integer, got {self.count!r}")
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
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError("metrics must be distinct")
        if isinstance(self.passive, (str, bool)):
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
        return list(product(*(ax.values() for ax in self.axes)))


@dataclass(frozen=True)
class SweepResult:
    """Rows of a finished sweep, in deterministic grid order."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def undefined_count(self) -> int:
        return _flag_counts(r[-1] for r in self.rows)[0]

    def error_count(self) -> int:
        return _flag_counts(r[-1] for r in self.rows)[1]


def _flag_counts(flags) -> tuple[int, int]:
    """Of rows with these flags cells, those flagged undefined and those
    flagged error."""
    flags = [f for f in flags if f]
    return sum("undefined" in f for f in flags), sum("error:" in f for f in flags)


#: Kernel scenarios per block, the unit of each kernel call and streamed
#: write: a block holds max(1, BLOCK_SCENARIOS // templates) grid points, each
#: solved at every template (_plan). solve_scenarios peaks under 600 B per
#: scenario, so it bounds a call's memory (under 0.5 MB) and write_sweep's;
#: no result depends on it.
BLOCK_SCENARIOS = 768


def _blocks(spec: SweepSpec, points: int):
    """The grid points in row-major order (first axis outermost), in blocks
    of at most `points` points built one at a time, each one list per axis:
    point k of two axes is (outer[k // n_inner], inner[k % n_inner])."""
    *outer, inner = (ax.values() for ax in spec.axes)
    n_inner = len(inner)
    total = n_inner * len(outer[0]) if outer else n_inner
    for start in range(0, total, points):
        stop = min(start + points, total)
        if outer:
            yield ([outer[0][k // n_inner] for k in range(start, stop)],
                   [inner[k % n_inner] for k in range(start, stop)])
        else:
            yield (inner[start:stop],)


def _at_flux(spec: SweepSpec, phi: float) -> SystemConfig:
    """The configuration at flux phi, re-pinned unless spec.repin_resonators is false."""
    return replace(spec.config, circuit=replace(spec.config.circuit, phi=phi),
                   resonators=() if spec.repin_resonators else spec.config.resonators)


def _plan(spec: SweepSpec):
    """What every block shares: the distinct channel-temperature templates of
    a grid point's scenarios, each channel a, b and c "base", "hot", "mean"
    or a number, the base scenario first (the sweep's one repeat rule); per
    metric defined on the config the template indices of its
    transport.metric_scenarios; each bath's channels; and, if only
    temperature axes vary and the spectrum derives, the kernel's (1, 3)
    frequencies and (1, 3, 3) channel_prefactors, else None."""
    cfg, scen, system = spec.config, spec.scenario, None
    passive = spec.passive if isinstance(spec.passive, str) else float(spec.passive)
    templates = [tuple(scen.source(cfg.bath_of(c)) for c in CHANNEL_IDS)]
    metrics = {}
    for name in spec.metric_columns:
        with suppress(ValueError):  # not defined on cfg: every row is flagged
            scenarios = metric_scenarios(name, passive, cfg.merged)
            templates += [t for t in scenarios if t not in templates]
            metrics[name] = [templates.index(t) for t in scenarios]
    if {ax.name for ax in spec.axes} <= {"base_temperature", "hot_temperature"}:
        with suppress(QutritHeatError, ValueError, ArithmeticError):  # each block flags it
            freqs, omega_l = (np.array([f]) for f in cfg.kernel_frequencies())
            system = freqs, channel_prefactors(freqs, omega_l, cfg.q, cfg.lambda_res, cfg.lambda_off)
    members = [[c for c in CHANNEL_IDS if cfg.bath_of(c) == b] for b in cfg.bath_ids()]
    return templates, metrics, members, system


def _evaluate_block(spec: SweepSpec, plan, values: tuple[list[float], ...]) -> list[list]:
    """Columns of a block (_blocks), one list per entry of spec.columns, from
    one kernel call on the table of (valid point, template) scenarios, with
    the planned system's inputs (_plan) broadcast, else each flux value's
    spectrum once. A row's error stays an index into `kinds` (FAILURE_KINDS,
    then the spectrum errors) until it is written."""
    templates, metric_slots, members, system = plan
    n, cfg, scen = len(values[0]), spec.config, spec.scenario
    axis = {ax.name: v for ax, v in zip(spec.axes, values)}
    if "log10_quality_factor" in axis:
        axis["quality_factor"] = [10.0 ** v for v in axis["log10_quality_factor"]]
    base, hot, q, lambda_off = (
        np.array(axis[key], dtype=float) if key in axis else np.full(n, default, dtype=float)
        for key, default in (("base_temperature", scen.base), ("hot_temperature", scen.hot_temperature),
                             ("quality_factor", cfg.q), ("lambda_off", cfg.lambda_off)))
    kinds, error = list(FAILURE_KINDS), np.zeros(n, dtype=int)
    if system is None:
        distinct = {}  # flux (None: the configuration's) -> its position, then (frequencies, error)
        index = [distinct.setdefault(phi, len(distinct)) for phi in axis.get("flux", [None] * n)]
        for phi in distinct:
            try:
                distinct[phi] = (cfg if phi is None else _at_flux(spec, phi)).kernel_frequencies(), 0
            except (QutritHeatError, ValueError, ArithmeticError) as exc:
                kinds.append(type(exc).__name__)
                distinct[phi] = np.ones((2, 3)), len(kinds) - 1
        frequencies, error = zip(*distinct.values())
        freqs, omega_l = np.array(frequencies)[index].transpose(1, 0, 2)
        error = np.array(error)[index]
        pref = channel_prefactors(freqs, omega_l, q[:, None], cfg.lambda_res, lambda_off[:, None])

    sources = {"base": base, "hot": hot, "mean": 0.5 * (base + hot)}
    temps = np.empty((n, len(templates), 3))  # (point, slot, channel); np.stack costs more
    for slot, template in enumerate(templates):
        for c, source in enumerate(template):
            temps[:, slot, c] = sources.get(source, source)
    valid = np.flatnonzero(error == 0)
    width = len(spec.columns) - len(values) - 1  # cells between the axes and the flags
    if not valid.size:
        return [*values, *([None] * n for _ in range(width)), [f"error:{kinds[e]}" for e in error]]
    point = np.repeat(valid, len(templates))
    table = np.zeros((n, len(templates)), dtype=int)  # (point, slot) -> scenario
    table[valid] = np.arange(point.size).reshape(valid.size, -1)
    inputs = (freqs[point], pref[point]) if system is None else (
        np.broadcast_to(a, (point.size, *a.shape[1:])) for a in system)
    p, residual, connected, j, scale = solve_scenarios(*inputs, temps[valid].reshape(-1, 3))
    failure = failure_codes(residual, connected, j, scale)

    rows = table[:, 0]
    error = np.where(error == 0, failure[rows], error)
    ok = error == 0
    j_rows = j[rows]
    bath_t = temps[:, 0, [CHANNEL_IDS.index(m[0]) for m in members]]
    bath_j = np.empty((n, len(members)))
    for b, channels in enumerate(members):
        bath_j[:, b] = bath_current(j_rows, channels)
    bath_j[~ok] = 0.0  # an error row: none
    regime = regimes(cfg.bath_ids(), bath_t, bath_j)[0]
    flags = {k: ["error:AmbiguousExtremum"] for k, label in enumerate(regime) if label is None}
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

    flag = [""] * n
    for k, notes in flags.items():
        flag[k] = ";".join(notes)
    columns = [*values, *p[rows].T.tolist(), *j_rows.T.tolist(), *cells, regime,
               residual[rows].tolist(), flag]
    for k in np.flatnonzero(~ok).tolist():
        for column in columns[len(values):-1]:
            column[k] = None
        flag[k] = f"error:{kinds[error[k]]}"
    return columns


def _evaluated(spec: SweepSpec, workers: int = 1):
    """Every sweep's one evaluation path. It warns each advisory
    (SystemConfig.advisories) once, in this process, at the sweep's caller:
    at the lowest Q it uses and at its flux value of smallest |phi|, where
    every re-pinned resonator is highest (the gap, 0.75 e_c, does not depend
    on flux). It then plans the sweep (_plan) and returns the blocks' columns
    (_evaluate_block) in grid order: a lazy map in this process, or the list
    from a pool of `workers` processes, in at most `workers` contiguous runs."""
    cfg, q_min = spec.config, None  # the configuration's flux and Q
    for ax in spec.axes:
        if ax.name in ("quality_factor", "log10_quality_factor"):
            q_min = ax.start if ax.name == "quality_factor" else 10.0 ** ax.start
        elif ax.name == "flux":
            try:
                cfg = _at_flux(spec, min(ax.values(), key=abs))
            except QutritHeatError:  # no axis value has a circuit: the e_j/e_c note alone
                cfg = None
    for note in spec.config.advisories(inf) if cfg is None else cfg.advisories(q_min):
        warnings.warn(note, stacklevel=3)
    plan = _plan(spec)
    evaluate = partial(_evaluate_block, spec, plan)
    blocks = _blocks(spec, max(1, BLOCK_SCENARIOS // len(plan[0])))
    if workers <= 1:
        return map(evaluate, blocks)
    from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

    blocks = list(blocks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate, blocks, chunksize=ceil(len(blocks) / workers)))


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the grid in blocks of max(1, BLOCK_SCENARIOS // templates)
    points, in this process or on a pool of `workers` processes; output
    order is independent of both. Each advisory of the configuration
    (SystemConfig.advisories: the e_j/e_c note, then the resonator
    linewidths at the lowest Q and |phi| the sweep uses) is one
    UserWarning, the same at every worker count.
    """
    return SweepResult(columns=spec.columns, rows=tuple(
        chain.from_iterable(zip(*block) for block in _evaluated(spec, workers))))


def _template(row) -> str:
    """A row's CSV line template: a float cell as %.17g, None as an empty
    field, any other cell as %s, comma-joined and ended by a line feed."""
    return ",".join("" if c is None else "%.17g" if isinstance(c, float) else "%s"
                    for c in row) + "\n"


def _block_text(columns, full: str, own: list[int]) -> list[str]:
    """The CSV lines of a block of rows, given as one sequence per column,
    as one string per 32 rows: each row's _template, where full is that of
    every row not in `own` (none holds a None cell), and the rows at the
    indices `own` take the _template of their cells with "" for None, built
    once per tuple of cell types, of which it is a function. The cells are
    interleaved into one flat list by slice assignment, and each 32 rows are
    one %-format: formatting a whole block at once grows its text by
    reallocation, which raised peak RSS by 0.3 MB."""
    width, n = len(columns), len(columns[0])
    cells = [None] * (width * n)
    for i, column in enumerate(columns):
        cells[i::width] = column
    templates, by_types = [full] * n, {}
    for k in own:
        row = ["" if c is None else c for c in cells[k * width:(k + 1) * width]]
        cells[k * width:(k + 1) * width] = row
        types = tuple(map(type, row))
        if types not in by_types:
            by_types[types] = _template(row)
        templates[k] = by_types[types]
    return ["".join(templates[k:k + 32]) % tuple(cells[k * width:(k + 32) * width])
            for k in range(0, n, 32)]


def _opened(destination):
    """A path opened for writing, or a text stream as it is."""
    if isinstance(destination, (str, Path)):
        return open(destination, "w", newline="")
    return nullcontext(destination)


def write_csv(result: SweepResult, destination) -> None:
    """Write the header and one line per row to a path or a text stream,
    BLOCK_SCENARIOS rows at a time through _block_text: a row of an engine
    row's cell types (regime and flags text, every other cell a float)
    takes the shared template, any other row its own. A row whose length is
    not the header's raises ValueError, once the blocks before it are
    written. No field is quoted: column names, regime labels and flags hold
    no comma, quote or line break. The bytes depend on the rows only.
    """
    types = tuple(str if name in ("regime", "flags") else float for name in result.columns)
    full = _template([0.0 if t is float else "" for t in types])
    with _opened(destination) as stream:
        stream.write(",".join(result.columns) + "\n")
        for start in range(0, len(result.rows), BLOCK_SCENARIOS):
            rows = result.rows[start:start + BLOCK_SCENARIOS]
            own = [k for k, row in enumerate(rows) if tuple(map(type, row)) != types]
            for k in own:
                if len(rows[k]) != len(types):
                    raise ValueError(f"row {start + k} has {len(rows[k])} cells, the header {len(types)}")
            stream.writelines(_block_text(list(zip(*rows)), full, own))


def write_sweep(spec: SweepSpec, destination) -> tuple[int, int, int]:
    """Evaluate the grid and write its CSV to a path or a text stream, block
    by block, holding one block (the points of at most BLOCK_SCENARIOS
    kernel scenarios, as run_sweep sizes it) and its rows at a time. The
    bytes and the advisories equal write_csv(run_sweep(spec), destination)'s;
    both format through _block_text, and here a flagged row (each row with
    a None cell) takes its own template. Only this writer caches cells: each
    axis value once per sweep and each distinct residual, never -0.0, once
    per block. Writing starts with the first block, so a failed run can
    leave a partial file. Returns the rows and those flagged undefined and error.
    """
    evaluated = _evaluated(spec)  # the advisories come before the destination opens
    axis_cells = [{v: "%.17g" % v for v in ax.values()} for ax in spec.axes]
    # a row without a None cell: text axis, regime, residual and flags cells
    full = _template([""] * len(spec.axes) + [0.0] * (len(spec.columns) - len(spec.axes) - 3) + [""] * 3)
    counts = (0, 0, 0)  # rows, undefined, errors
    with _opened(destination) as stream:
        stream.write(",".join(spec.columns) + "\n")
        for columns in evaluated:
            residual = {r: None if r is None else "%.17g" % r for r in set(columns[-2])}
            for i, cells in (*enumerate(axis_cells), (-2, residual)):
                columns[i] = list(map(cells.__getitem__, columns[i]))
            stream.writelines(_block_text(columns, full, [k for k, flags in enumerate(columns[-1]) if flags]))
            counts = tuple(map(sum, zip(counts, (len(columns[-1]), *_flag_counts(columns[-1])))))
    return counts


# ---------------------------------------------------------------------------
# Sweep sections: the one parser of a spec, for config files and presets.
# ---------------------------------------------------------------------------

#: The system keys of a configuration, at the top level of a config file or
#: in a sweep section's config: each key's kind (see _checked), its default
#: and its --help text, then the metavar where argparse's own would mislead.
#: A key whose default is None may also be null.
_SYSTEM_KEYS = {
    "ej": (float, 5.0, "Josephson energy (hbar*omega_r)"),
    "ec": (float, 0.5, "charging energy (hbar*omega_r)"),
    "flux": (float, pi / 2, "reduced flux phase (rad)"),
    "q": (float, 100.0, "resonator quality factor"),
    "lambda_res": (float, 1.0, "resonant coupling weight"),
    "lambda_off": (float, 1.0, "off-resonant coupling weight"),
    "merge": (str, None, "two channels sharing one reservoir, e.g. b,c", "L,L'"),
    "omega_a": (float, None, "pin resonator a frequency (default: its transition)"),
    "omega_b": (float, None, "pin resonator b frequency"),
    "omega_c": (float, None, "pin resonator c frequency"),
}

_EXPECTED = {int: "a non-negative integer", str: "a string", bool: "true or false",
             list: "a list", dict: "a JSON object"}


def _checked(where: str, value, kind: type):
    """value if it is of kind, else a ConfigError that names `where`. Kind
    str, bool, list or dict takes a value of that type, float any finite
    number but true and false (returned as a float), and int a whole number
    >= 0 within the float range."""
    if kind in (float, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond any float
            raise ConfigError(f"{where}: must be finite, got {value}")
        if kind is float:
            return float(value)
    if not isinstance(value, kind) or (kind is int and value < 0):
        raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    return value


def _known(data, where: str, allowed) -> dict:
    """The JSON object `data`, all of whose keys are `allowed`."""
    for key in _checked(where, data, dict):
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return data


def _system_config(values: dict) -> SystemConfig:
    """The SystemConfig of the _SYSTEM_KEYS of values, each _checked; the
    values stay as given. A range error of CircuitParams or SystemConfig is
    a ConfigError."""
    for key, (kind, default, *_) in _SYSTEM_KEYS.items():
        if values[key] is not None or default is not None:
            _checked(key, values[key], kind)
    merge = values["merge"]
    merged = None if merge is None else tuple(p.strip() for p in merge.split(","))
    if merged is not None and (len(merged) != 2 or merged[0] == merged[1]
                               or not set(merged) <= set(CHANNEL_IDS)):
        raise ConfigError(f"merge: expected two distinct channels of a,b,c, got {merge!r}")
    try:
        return SystemConfig(
            circuit=CircuitParams(e_j=values["ej"], e_c=values["ec"], phi=values["flux"]),
            q=values["q"], lambda_res=values["lambda_res"], lambda_off=values["lambda_off"],
            merged=merged, resonators=tuple((c, values[f"omega_{c}"]) for c in CHANNEL_IDS
                                            if values[f"omega_{c}"] is not None),
        )
    except (InvalidFlux, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_section(data: dict) -> SweepSpec:
    """The spec of a sweep section (a PRESETS value or a config file's
    `sweep`), whose values pass _checked and whose keys _known. The keys of
    the section, its scenario and each axis are the fields of SweepSpec,
    TemperatureScenario and SweepAxis; those of its config are _SYSTEM_KEYS,
    each at its default when absent."""

    def field(where: str, section: dict, kind: type, default=None):
        return _checked(where, section.get(where.rpartition(".")[2], default), kind)

    def names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    data = _known(data, "sweep", names(SweepSpec))
    scen = _known(data.get("scenario", {}), "sweep.scenario", names(TemperatureScenario))
    fixed = {key: default for key, (_, default, *_) in _SYSTEM_KEYS.items()}
    fixed.update(_known(data.get("config", {}), "sweep.config", _SYSTEM_KEYS))
    passive = data.get("passive", "base")
    try:
        axes = []
        for i, ax in enumerate(field("sweep.axes", data, list)):
            where = f"sweep.axes[{i}]"
            ax = _known(ax, where, names(SweepAxis))
            axes.append(SweepAxis(ax.get("name"), field(f"{where}.start", ax, float),
                                  field(f"{where}.stop", ax, float), field(f"{where}.count", ax, int)))
        return SweepSpec(
            config=_system_config(fixed),
            scenario=TemperatureScenario(
                hot=field("sweep.scenario.hot", scen, list, []),
                base=field("sweep.scenario.base", scen, float, 1.0),
                hot_temperature=field("sweep.scenario.hot_temperature", scen, float, 1.0),
                overrides={bath: _checked(f"sweep.scenario.overrides.{bath}", t, float)
                           for bath, t in field("sweep.scenario.overrides", scen, dict, {}).items()},
            ),
            axes=axes,
            metrics=field("sweep.metrics", data, list, []),
            passive=passive if isinstance(passive, str) else _checked("sweep.passive", passive, float),
            repin_resonators=field("sweep.repin_resonators", data, bool, True),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def _axis(name: str, start: float, stop: float, count: int) -> dict:
    return {"name": name, "start": start, "stop": stop, "count": count}


#: Named sweep sections reproducing the bundled parameter maps, each a config
#: file's `sweep` section as it could be copied there. Every one sweeps the
#: map circuit (E_J = 5, E_C = 0.5, phi = pi/2) at Q = 100 and lambda_res = 1,
#: the defaults of _SYSTEM_KEYS, with bath a hot; its config lists only the
#: keys that differ.
PRESETS = {
    # Operation-regime map over (T_b, T_a) with bath c fixed at 2.
    "fig2": {"axes": [_axis("base_temperature", 0.2, 4.0, 201), _axis("hot_temperature", 0.2, 4.0, 201)],
             "scenario": {"hot": ["a"], "overrides": {"c": 2.0}}},
    # Currents versus T_a with T_b = 1.5 and T_c = 2 held fixed.
    "fig3": {"axes": [_axis("hot_temperature", 2.0, 4.0, 501)],
             "scenario": {"hot": ["a"], "base": 1.5, "hot_temperature": 2.0,
                          "overrides": {"b": 1.5, "c": 2.0}}},
    # Three-terminal rectification maps in the perfectly filtered limit.
    "fig4": {"axes": [_axis("base_temperature", 0.1, 4.0, 201), _axis("hot_temperature", 0.1, 4.0, 201)],
             "scenario": {"hot": ["a"]}, "metrics": ["R_ab", "R_ac", "R_bc"],
             "config": {"lambda_off": 0.0}},
    # Same maps with leaky couplings at Q = 100.
    "fig5": {"axes": [_axis("base_temperature", 0.1, 4.0, 201), _axis("hot_temperature", 0.1, 4.0, 201)],
             "scenario": {"hot": ["a"]}, "metrics": ["R_ab", "R_ac", "R_bc"]},
    # R_ab with the passive bath at the mean of the other two temperatures.
    "fig6": {"axes": [_axis("base_temperature", 0.1, 4.0, 201), _axis("hot_temperature", 0.1, 4.0, 201)],
             "scenario": {"hot": ["a"]}, "metrics": ["R_ab"], "passive": "mean"},
    # Circulation coefficient map at Q = 100, phi = pi/2.
    "fig7": {"axes": [_axis("base_temperature", 0.05, 2.0, 201),
                      _axis("hot_temperature", 0.05, 4.0, 201)],
             "scenario": {"hot": ["a"]}, "metrics": ["C"]},
    # Flux dependence of the circulation at base 0.9, hot temperature inside
    # the perfect-circulation window of the phi = pi/2 map. The flux range
    # stays inside the region where the fourth level clears the qutrit
    # (omega32 > 0 for these circuit parameters).
    "fig7c": {"axes": [_axis("flux", -4.5, 4.5, 501)],
              "scenario": {"hot": ["a"], "base": 0.9, "hot_temperature": 3.86}, "metrics": ["C"]},
    # Circulation versus base temperature and quality factor at hot T = 2.
    "fig8": {"axes": [_axis("base_temperature", 0.05, 2.0, 201),
                      _axis("log10_quality_factor", log10(50.0), 3.0, 201)],
             "scenario": {"hot": ["a"], "hot_temperature": 2.0}, "metrics": ["C"]},
}


def _preset_section(name: str) -> dict:
    """PRESETS[name]; raises KeyError listing valid names when unknown."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; valid presets: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


def preset(name: str) -> SweepSpec:
    """The spec of PRESETS[name]; raises KeyError listing valid names when unknown."""
    return _parse_section(_preset_section(name))

"""Output checks of the benchmark workloads.

A sweep operation is one CSV row. Every row is checked for its place in the
grid, the population and residual invariants, the coefficient ranges and its
regime label. Every flagged row, plus a seeded sample of the others, is then
recomputed through the scalar API (``solve_temperatures``,
``rectification_3t``, ``rectification_2t``, ``circulation``,
``classify_regime``), which shares no code with the sweep's per-point solver
cache. A verify operation is one ``verify`` run, checked against the exact
solve and the 5 sigma band.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

from qutrit_heat import (
    QutritHeatError,
    SystemConfig,
    TemperatureScenario,
    UndefinedCoefficient,
    circulation,
    classify_regime,
    rectification_2t,
    rectification_3t,
    solve_temperatures,
)
from qutrit_heat.steady import RESIDUAL_TOL
from qutrit_heat.transport import bath_currents

from workloads import Workload, grid, system_config

#: Relative agreement required between a CSV cell and its scalar recompute.
REL_TOL = 1e-9
#: Tolerance of sum(p) = 1, and of sum(j) = 0 relative to HeatCurrents.scale.
SUM_TOL = 1e-12
#: Recomputed unflagged rows per CSV.
SAMPLE_ROWS = 48
#: A verify run fails above this |z|; the CLI's own 3 sigma exit code 4 is
#: counted, not failed (a correct estimator trips it on ~1.6 % of seeds).
MAX_Z = 5.0

REGIMES = {"none"} | {f"{k}_{c}" for k in "RP" for c in "abc"}
STATE_COLUMNS = ("p0", "p1", "p2", "j_a", "j_b", "j_c")


@dataclass
class Report:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def merge(self, other: "Report") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: 5 - len(self.reasons)])


def _close(a: float, b: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + floor


def _point(sweep: dict, values: tuple[float, ...]):
    """Config, temperatures, base and hot temperature of one grid point."""
    fixed = sweep["config"]
    scen = sweep["scenario"]
    flux, q = fixed["flux"], fixed["q"]
    base, hot = scen["base"], scen["hot_temperature"]
    for ax, v in zip(sweep["axes"], values):
        name = ax["name"]
        if name == "base_temperature":
            base = v
        elif name == "hot_temperature":
            hot = v
        elif name == "flux":
            flux = v
        elif name == "log10_quality_factor":
            q = 10.0 ** v
        else:
            raise ValueError(f"checker does not know axis {name!r}")
    config = system_config(fixed, flux=flux, q=q)
    scenario = TemperatureScenario(
        hot=frozenset(scen["hot"]), base=base, hot_temperature=hot,
        overrides=tuple(scen.get("overrides", {}).items()),
    )
    return config, scenario.temperatures(config.bath_ids()), base, hot


def _metric(config: SystemConfig, name: str, base: float, hot: float) -> float:
    if name == "C":
        return circulation(config, base, hot)
    if name.startswith("R2_"):
        _, pair, single = name.split("_")
        return rectification_2t(config, (pair[0], pair[1]), single, base, hot)
    _, pair = name.split("_")
    return rectification_3t(config, pair[0], pair[1], base, hot)


def expected_row(sweep: dict, values: tuple[float, ...]) -> dict:
    """Cells and flags of one row, recomputed through the scalar API.

    Returns a mapping of column name to float, str or None (empty cell), with
    "flags" holding the flag string the sweep must emit.
    """
    metrics = sweep["metrics"]
    try:
        config, temps, base, hot = _point(sweep, values)
        steady, cur = solve_temperatures(config, temps)
    except (QutritHeatError, ValueError, ArithmeticError) as exc:
        row = dict.fromkeys(STATE_COLUMNS + tuple(metrics) + ("regime", "residual"))
        row["flags"] = f"error:{type(exc).__name__}"
        return row
    flags = []
    row = dict(zip(STATE_COLUMNS, (*map(float, steady.p), cur.j_a, cur.j_b, cur.j_c)))
    row["scale"] = cur.scale
    row["residual"] = steady.residual
    try:
        row["regime"] = classify_regime(bath_currents(config, cur), temps)
    except QutritHeatError as exc:
        row["regime"] = None
        flags.append(f"error:{type(exc).__name__}")
    for name in metrics:
        try:
            row[name] = _metric(config, name, base, hot)
        except UndefinedCoefficient:
            row[name] = None
            flags.append(f"undefined:{name}")
        except QutritHeatError as exc:
            row[name] = None
            flags.append(f"error:{type(exc).__name__}:{name}")
    row["flags"] = ";".join(flags)
    return row


def _cell(text: str):
    return None if text == "" else float(text)


def _row_invariants(cells: dict, metrics: list[str]) -> str:
    """Reason the row breaks an invariant, or "" when it holds them all."""
    if cells["flags"].startswith("error:") and cells["p0"] == "":
        blank = STATE_COLUMNS + tuple(metrics) + ("regime", "residual")
        return "" if all(cells[c] == "" for c in blank) else "error row with values"
    p = [float(cells[c]) for c in ("p0", "p1", "p2")]
    if not all(0.0 <= x <= 1.0 for x in p) or abs(sum(p) - 1.0) > SUM_TOL:
        return f"populations {p}"
    if not float(cells["residual"]) <= RESIDUAL_TOL:
        return f"residual {cells['residual']}"
    for name in metrics:
        value = _cell(cells[name])
        if value is not None and not abs(value) <= 1.0:
            return f"{name} = {value}"
    if cells["regime"] not in REGIMES and not (
        cells["regime"] == "" and "error:AmbiguousExtremum" in cells["flags"]
    ):
        return f"regime {cells['regime']!r}"
    return ""


def _matches(cells: dict, want: dict, metrics: list[str]) -> str:
    """Reason the row differs from its recompute, or "" when it agrees."""
    if cells["flags"] != want["flags"]:
        return f"flags {cells['flags']!r} != {want['flags']!r}"
    if want["p0"] is None:
        return ""
    for c in ("p0", "p1", "p2"):
        if not _close(float(cells[c]), want[c]):
            return f"{c} {cells[c]} != {want[c]!r}"
    floor = SUM_TOL * want["scale"]
    for c in ("j_a", "j_b", "j_c"):
        if not _close(float(cells[c]), want[c], floor):
            return f"{c} {cells[c]} != {want[c]!r}"
    total = sum(float(cells[c]) for c in ("j_a", "j_b", "j_c"))
    if abs(total) > floor:
        return f"currents sum to {total} against scale {want['scale']}"
    for name in metrics:
        got = _cell(cells[name])
        if (got is None) != (want[name] is None) or (
            got is not None and not _close(got, want[name])
        ):
            return f"{name} {cells[name]!r} != {want[name]!r}"
    if (cells["regime"] or None) != want["regime"]:
        return f"regime {cells['regime']!r} != {want['regime']!r}"
    return ""


def _columns(sweep: dict) -> list[str]:
    return ([ax["name"] for ax in sweep["axes"]] + list(STATE_COLUMNS)
            + list(sweep["metrics"]) + ["regime", "residual", "flags"])


def check_sweep_csv(workload: Workload, text: str) -> Report:
    """Check every row of one sweep CSV; a missing or garbled file fails all."""
    sweep = workload.sweep
    points = grid(sweep)
    report = Report()
    header = _columns(sweep)
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != header:
        for _ in points:
            report.add(False, "missing or wrong header")
        return report
    rows = lines[1:]
    sample = set(random.Random(f"check/{workload.seed}").sample(
        range(len(points)), min(SAMPLE_ROWS, len(points))))
    n_axes = len(sweep["axes"])
    for k, values in enumerate(points):
        if k >= len(rows) or len(rows[k]) != len(header):
            report.add(False, f"row {k} missing or short")
            continue
        cells = dict(zip(header, rows[k]))
        try:
            if tuple(float(x) for x in rows[k][:n_axes]) != values:
                report.add(False, f"row {k} out of grid order")
                continue
            reason = _row_invariants(cells, sweep["metrics"])
            if not reason and (cells["flags"] or k in sample):
                reason = _matches(cells, expected_row(sweep, values), sweep["metrics"])
        except ValueError as exc:
            reason = f"unparsable cell: {exc}"
        report.add(not reason, f"row {k}: {reason}")
    for k in range(len(points), len(rows)):
        report.add(False, f"extra row {k}")
    return report


def parse_verify(text: str) -> dict[str, tuple[float, float, float]]:
    """(exact, estimate, sigma) per quantity of a verify printout."""
    out = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 5:
            out[parts[0]] = tuple(float(x) for x in parts[1:4])
    return out


def check_verify(workload: Workload, text: str, exit_code: int) -> tuple[bool, str]:
    """One verify run: exit 0 or 4, exact column right, every |z| <= MAX_Z."""
    if exit_code not in (0, 4):
        return False, f"exit code {exit_code}"
    try:
        got = parse_verify(text)
    except ValueError as exc:
        return False, f"unparsable output: {exc}"
    cfg = workload.config
    steady, cur = solve_temperatures(
        system_config(cfg), {"a": cfg["ta"], "b": cfg["tb"], "c": cfg["tc"]})
    exact = dict(zip(STATE_COLUMNS, (*map(float, steady.p), cur.j_a, cur.j_b, cur.j_c)))
    if set(got) != set(exact):
        return False, f"quantities {sorted(got)}"
    worst = 0.0
    for name, want in exact.items():
        x, m, s = got[name]
        if not _close(x, want, SUM_TOL * cur.scale if name.startswith("j_") else 0.0):
            return False, f"exact {name} {x!r} != {want!r}"
        if not s > 0.0:
            return False, f"sigma {name} = {s}"
        worst = max(worst, abs(m - x) / s)
    p_hat = [got[c][1] for c in ("p0", "p1", "p2")]
    if not all(0.0 <= x <= 1.0 for x in p_hat) or abs(sum(p_hat) - 1.0) > 1e-9:
        return False, f"estimated populations {p_hat}"
    if worst > MAX_Z:
        return False, f"max |z| = {worst:.2f}"
    if (exit_code == 4) != (worst > 3.0):
        return False, f"exit code {exit_code} with max |z| = {worst:.2f}"
    return True, ""

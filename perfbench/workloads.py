"""Seeded inputs of the benchmark workloads.

Each workload is one CLI invocation: a sweep driven by a generated
``--config`` file, or ``verify`` at a generated temperature point. The seed
only moves the inputs: it shifts a sweep window (by up to 0.1 in temperature
or 0.06 in flux), keeping point counts and the ``base == hot`` diagonal, or
picks the oracle's temperature point and RNG seed. Every seed therefore does
the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("rect_map", "circ_flux_q", "regime_map", "oracle")

#: Grid points per axis, sized so one invocation takes about 1 s on a 2-vCPU
#: x86-64 VM (about 400, 550 and 110 us per point), so a run makes 10-20 of
#: them. A ~90x faster solve path needs larger grids (see README.md).
DEFAULT_COUNTS = {"rect_map": 50, "circ_flux_q": 42, "regime_map": 95}

#: Jump count of the oracle workload, burn-in excluded.
ORACLE_JUMPS = 400_000

#: Circuit of every workload: the paper's map circuit at phi = pi/2.
CIRCUIT = {"ej": 5.0, "ec": 0.5, "flux": math.pi / 2}


@dataclass(frozen=True)
class Workload:
    """One generated CLI invocation."""

    name: str
    seed: int
    config: dict

    @property
    def command(self) -> str:
        return "verify" if self.name == "oracle" else "sweep"

    @property
    def sweep(self) -> dict | None:
        return self.config.get("sweep")

    def rows(self) -> int:
        """Rows the sweep emits (0 for the oracle)."""
        if self.sweep is None:
            return 0
        n = 1
        for ax in self.sweep["axes"]:
            n *= ax["count"]
        return n

    def jumps_simulated(self) -> int:
        """Jumps one verify run simulates, burn-in included."""
        jumps = self.config["jumps"]
        return jumps + jumps // 100

    def argv(self, config_path: str, csv_path: str) -> list[str]:
        """CLI arguments (after the program name) of one invocation."""
        if self.command == "sweep":
            return ["sweep", "--config", config_path, "--out", csv_path]
        return ["verify", "--config", config_path]


def _axis(name: str, start: float, stop: float, count: int) -> dict:
    return {"name": name, "start": start, "stop": stop, "count": count}


def make(name: str, seed: int, count: int | None = None) -> Workload:
    """Inputs of workload `name` for `seed`.

    `count` overrides the points per sweep axis, or the oracle's jump count.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}/{seed}")
    n = count if count is not None else DEFAULT_COUNTS.get(name)
    fixed = dict(CIRCUIT, q=100.0, lambda_res=1.0, lambda_off=1.0)
    if name == "rect_map":
        # fig5-shaped: both temperature axes share one window, so base == hot
        # on the diagonal, where every R_ll' is 0/0.
        s = rng.uniform(0.0, 0.1)
        window = (0.1 + s, 4.0 + s)
        sweep = {
            "axes": [_axis("base_temperature", *window, n),
                     _axis("hot_temperature", *window, n)],
            "scenario": {"hot": ["a"], "base": 1.0, "hot_temperature": 1.0},
            "metrics": ["R_ab", "R_ac", "R_bc"],
        }
    elif name == "circ_flux_q":
        # fig7c's point over flux and Q. The symmetric window reaches past
        # omega32 = 0 (|phi| > 4.586) and cos(phi/3) = 0 (|phi| > 3 pi/2) on
        # both sides, so the flagged share stays ~4.5 % whatever the shift.
        s = rng.uniform(0.0, 0.06)
        sweep = {
            "axes": [_axis("flux", -4.8 + s, 4.8 + s, n),
                     _axis("log10_quality_factor", 1.7, 3.0, n)],
            "scenario": {"hot": ["a"], "base": 0.9, "hot_temperature": 3.86},
            "metrics": ["C", "R2_bc_a"],
        }
    elif name == "regime_map":
        # fig2-shaped: regime labels only, with bath c held at 2.
        s = rng.uniform(0.0, 0.1)
        window = (0.2 + s, 4.0 + s)
        sweep = {
            "axes": [_axis("base_temperature", *window, n),
                     _axis("hot_temperature", *window, n)],
            "scenario": {"hot": ["a"], "base": 1.0, "hot_temperature": 1.0,
                         "overrides": {"c": 2.0}},
            "metrics": [],
        }
    else:
        # Three distinct temperatures in a narrow band, so the jump mix (and
        # the cost per jump) barely moves with the seed.
        ta, tb, tc = (round(rng.uniform(1.0, 1.8), 6) for _ in range(3))
        return Workload(name, seed, dict(
            fixed, ta=ta, tb=tb, tc=tc,
            seed=rng.randrange(2**31), jumps=count or ORACLE_JUMPS,
        ))
    sweep["config"] = fixed
    return Workload(name, seed, {"sweep": sweep})


def grid(sweep: dict) -> list[tuple[float, ...]]:
    """Axis values of every row, in the row-major order the CSV must follow."""
    import numpy as np

    axes = [np.linspace(ax["start"], ax["stop"], ax["count"]) for ax in sweep["axes"]]
    if len(axes) == 1:
        return [(float(v),) for v in axes[0]]
    return [(float(u), float(v)) for u in axes[0] for v in axes[1]]


def system_config(fixed: dict, **changes):
    """The SystemConfig of a workload's fixed keys, with `changes` applied."""
    from qutrit_heat import CircuitParams, SystemConfig

    cfg = dict(fixed, **changes)
    return SystemConfig(
        circuit=CircuitParams(e_j=cfg["ej"], e_c=cfg["ec"], phi=cfg["flux"]),
        q=cfg["q"], lambda_res=cfg["lambda_res"], lambda_off=cfg["lambda_off"],
    )


def sweep_spec(sweep: dict):
    """The library SweepSpec equal to what the CLI builds from `sweep`."""
    from qutrit_heat import SweepAxis, SweepSpec, TemperatureScenario

    scen = sweep["scenario"]
    return SweepSpec(
        config=system_config(sweep["config"]),
        scenario=TemperatureScenario(
            hot=frozenset(scen["hot"]), base=scen["base"],
            hot_temperature=scen["hot_temperature"],
            overrides=tuple(scen.get("overrides", {}).items()),
        ),
        axes=tuple(SweepAxis(ax["name"], ax["start"], ax["stop"], ax["count"])
                   for ax in sweep["axes"]),
        metrics=tuple(sweep["metrics"]),
    )

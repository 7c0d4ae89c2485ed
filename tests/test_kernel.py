"""Contract of the batched solve kernel: sweep cells equal the scalar API.

The sweep evaluates blocks of grid points through one scenario table; the
scalar API (solve_temperatures, rectification_3t, rectification_2t,
circulation, classify_regime) calls the same kernel one scenario at a time.
Every cell must agree bit for bit, every failure must become the same flag,
and the CSV bytes must not depend on the block size or the worker count.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qutrit_heat import (
    CircuitParams,
    QutritHeatError,
    SweepAxis,
    SweepSpec,
    SystemConfig,
    TemperatureScenario,
    UndefinedCoefficient,
    circulation,
    classify_regime,
    rectification_2t,
    rectification_3t,
    run_sweep,
    solve_temperatures,
    write_csv,
)
from qutrit_heat import sweep as sweep_module
from qutrit_heat.steady import RESIDUAL_TOL
from qutrit_heat.sweep import METRIC_COLUMNS
from qutrit_heat.transport import bath_currents

STATE = ("p0", "p1", "p2", "j_a", "j_b", "j_c")


def scalar_metric(cfg: SystemConfig, name: str, base: float, hot: float) -> float:
    if name == "C":
        return circulation(cfg, base, hot)
    if name.startswith("R2_"):
        _, pair, single = name.split("_")
        return rectification_2t(cfg, (pair[0], pair[1]), single, base, hot)
    return rectification_3t(cfg, name[2], name[3], base, hot)


def scalar_row(spec: SweepSpec, phi: float) -> dict:
    """One flux-axis row recomputed through the scalar API."""
    metrics = spec.metric_columns
    scen = spec.scenario
    try:
        cfg = replace(
            spec.config,
            circuit=CircuitParams(e_j=spec.config.circuit.e_j, e_c=spec.config.circuit.e_c, phi=phi),
            resonators=() if spec.repin_resonators else spec.config.resonators,
        )
        temps = scen.temperatures(cfg.bath_ids())
        steady, cur = solve_temperatures(cfg, temps)
    except (QutritHeatError, ValueError, ArithmeticError) as exc:
        row = dict.fromkeys(STATE + metrics + ("regime", "residual"))
        row["flags"] = f"error:{type(exc).__name__}"
        return row
    row = dict(zip(STATE, (*steady.p.tolist(), cur.j_a, cur.j_b, cur.j_c)))
    row["residual"] = steady.residual
    flags = []
    try:
        row["regime"] = classify_regime(bath_currents(cfg, cur), temps)
    except QutritHeatError as exc:
        row["regime"] = None
        flags.append(f"error:{type(exc).__name__}")
    for name in metrics:
        try:
            row[name] = scalar_metric(cfg, name, scen.base, scen.hot_temperature)
        except UndefinedCoefficient:
            row[name] = None
            flags.append(f"undefined:{name}")
        except (QutritHeatError, ValueError) as exc:
            row[name] = None
            flags.append(f"error:{type(exc).__name__}:{name}")
    row["flags"] = ";".join(flags)
    row["_scale"] = cur.scale
    row["_temps"] = temps
    row["_cfg"] = cfg
    return row


# Flux near cos(phi/3) = 0 (|phi| = 3 pi / 2) and near omega32 = 0, which
# for e_j = 10 e_c sits where 12 e_j e_c cos(phi/3) = (2.25 e_c)^2.
EDGE_32 = 3.0 * math.acos(2.25**2 / 120.0)
fluxes = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(1.5 * math.pi - 1e-3, 1.5 * math.pi + 1e-3),
    st.floats(EDGE_32 - 1e-3, EDGE_32 + 1e-3),
)
temperatures = st.one_of(
    st.floats(0.2, 4.0),
    st.just(0.0),
    st.floats(1e-3, 4e-3),  # omega / T > 700
)


@st.composite
def specs(draw):
    e_c = draw(st.floats(0.2, 0.8))
    merged = draw(st.sampled_from([None, ("a", "b"), ("a", "c"), ("b", "c")]))
    circuit = CircuitParams(e_j=10.0 * e_c, e_c=e_c, phi=0.0)
    spectrum = SystemConfig(circuit=circuit).spectrum
    resonators = ()
    if draw(st.booleans()):
        resonators = tuple(
            (cid, w * draw(st.floats(0.95, 1.05)))
            for cid, w in zip("abc", (spectrum.omega10, spectrum.omega21, spectrum.omega20))
        )
    config = SystemConfig(
        circuit=circuit,
        q=draw(st.floats(10.0, 1e4)),
        lambda_res=draw(st.floats(0.2, 2.0)),
        lambda_off=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        merged=merged,
        resonators=resonators,
    )
    base = draw(temperatures)
    scenario = TemperatureScenario(
        hot=frozenset({draw(st.sampled_from(["a", "b", "c"]))}),
        base=base,
        hot_temperature=draw(st.one_of(st.just(base), temperatures)),
        overrides=draw(st.one_of(st.just(()), st.tuples(st.tuples(st.just("c"), temperatures)))),
    )
    phi = draw(fluxes)
    return SweepSpec(
        config=config,
        scenario=scenario,
        axes=(SweepAxis("flux", phi, phi + draw(st.floats(1e-4, 0.5)), 2),),
        metrics=METRIC_COLUMNS,
        repin_resonators=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
def test_sweep_cells_equal_the_scalar_api(spec):
    # Hybrid-regime warnings are expected output here, not failures.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_sweep(spec)  # a bad point is a flagged row, never an exception
        wanted = [scalar_row(spec, phi) for (phi,) in spec.grid()]
    for row, want in zip(result.rows, wanted):
        got = dict(zip(result.columns, row))
        assert got["flags"] == want["flags"]
        for name in STATE + spec.metric_columns + ("regime", "residual"):
            assert got[name] == want[name], name
        if got["p0"] is None:
            continue
        # north-star invariants of every emitted row
        p = [got[c] for c in ("p0", "p1", "p2")]
        assert all(0.0 <= x <= 1.0 for x in p) and abs(sum(p) - 1.0) <= 1e-12
        assert got["residual"] <= RESIDUAL_TOL
        assert abs(got["j_a"] + got["j_b"] + got["j_c"]) <= 1e-12 * want["_scale"]
        for name in spec.metric_columns:
            assert got[name] is None or abs(got[name]) <= 1.0
        temps = set(want["_temps"].values())
        if len(temps) == 1 and (t := temps.pop()) > 0.0:
            w = np.exp(-np.array(want["_cfg"].spectrum.energies) / t)
            assert np.abs(np.array(p) - w / w.sum()).max() <= 1e-10
            for c in ("j_a", "j_b", "j_c"):
                assert abs(got[c]) <= 1e-12 * want["_scale"]


def csv_bytes(result) -> bytes:
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue().encode()


def test_csv_bytes_independent_of_block_size_and_workers(monkeypatch):
    spec = SweepSpec(
        config=SystemConfig(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=1.0, hot_temperature=1.0,
                                     overrides=(("c", 1.3),)),
        axes=(SweepAxis("base_temperature", 0.3, 2.0, 6),
              SweepAxis("hot_temperature", 0.3, 3.0, 7)),
        metrics=("R_ab", "R_bc", "R2_bc_a", "C"),
        passive="mean",
    )
    reference = csv_bytes(run_sweep(spec))
    assert csv_bytes(run_sweep(spec, workers=3)) == reference
    for block in (1, 5, 7):
        monkeypatch.setattr(sweep_module, "BLOCK_POINTS", block)
        assert csv_bytes(run_sweep(spec)) == reference


def test_all_zero_temperature_point_is_a_reducible_chain_row():
    spec = SweepSpec(
        config=SystemConfig(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.0, hot_temperature=0.0),
        axes=(SweepAxis("hot_temperature", 0.0, 1.0, 2),),
        metrics=("R_ab", "C"),
    )
    result = run_sweep(spec)
    zero = dict(zip(result.columns, result.rows[0]))
    assert zero["flags"] == "error:ReducibleChain"
    assert all(zero[c] is None for c in STATE + ("R_ab", "C", "regime", "residual"))
    warm = dict(zip(result.columns, result.rows[1]))
    assert warm["p0"] is not None


def test_passive_bath_cells_equal_the_scalar_api():
    cfg = SystemConfig(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2))
    for passive in ("mean", 1.7):
        spec = SweepSpec(
            config=cfg,
            scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.8, hot_temperature=1.0),
            axes=(SweepAxis("hot_temperature", 1.5, 3.0, 4),),
            metrics=("R_ab", "R_bc"),
            passive=passive,
        )
        result = run_sweep(spec)
        for (hot,), row in zip(spec.grid(), result.rows):
            t = 0.5 * (0.8 + hot) if passive == "mean" else passive
            got = dict(zip(result.columns, row))
            assert got["R_ab"] == rectification_3t(cfg, "a", "b", 0.8, hot, passive_temperature=t)
            assert got["R_bc"] == rectification_3t(cfg, "b", "c", 0.8, hot, passive_temperature=t)

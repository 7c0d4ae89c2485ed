"""Contract of the batched solve kernel: sweep cells equal the scalar API.

The sweep evaluates blocks of grid points through one scenario table; the
scalar API (solve_temperatures, rectification_3t, rectification_2t,
circulation, classify_regime) calls the same kernel one scenario at a time.
Every cell must agree bit for bit, every failure must become the same flag,
and the CSV bytes must not depend on the block size or the worker count.
"""

from __future__ import annotations

import hashlib
import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
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
from qutrit_heat.rates import channel_prefactors
from qutrit_heat.steady import RESIDUAL_TOL, solve_scenarios
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


def scalar_row(spec: SweepSpec, value: float) -> dict:
    """One row of a one-axis sweep (flux, base_temperature or
    hot_temperature) recomputed through the scalar API."""
    metrics = spec.metric_columns
    scen, cfg, (axis,) = spec.scenario, spec.config, spec.axes
    try:
        if axis.name == "flux":
            cfg = replace(
                cfg,
                circuit=CircuitParams(e_j=cfg.circuit.e_j, e_c=cfg.circuit.e_c, phi=value),
                resonators=() if spec.repin_resonators else cfg.resonators,
            )
        else:  # a fixed system: the axis sets the scenario's base or hot temperature
            scen = replace(scen, **{"base" if axis.name == "base_temperature" else
                                    "hot_temperature": value})
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
    # a flux axis re-derives the system per point; a temperature axis keeps the
    # configuration's, whose flux may leave no spectrum (omega32 <= 0)
    axis = draw(st.sampled_from(["flux", "base_temperature", "hot_temperature"]))
    if axis != "flux":
        circuit = replace(circuit, phi=draw(st.one_of(st.floats(-4.0, 4.0),
                                                      st.floats(EDGE_32 - 1e-3, EDGE_32 + 1e-3))))
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
    base, baths = draw(temperatures), st.sampled_from(config.bath_ids())
    scenario = TemperatureScenario(
        hot=frozenset({draw(baths)}),
        base=base,
        hot_temperature=draw(st.one_of(st.just(base), temperatures)),
        overrides=draw(st.one_of(st.just(()), st.tuples(st.tuples(baths, temperatures)))),
    )
    start = draw(fluxes if axis == "flux" else temperatures)
    return SweepSpec(
        config=config,
        scenario=scenario,
        axes=(SweepAxis(axis, start, start + draw(st.floats(1e-4, 0.5)), 2),),
        metrics=METRIC_COLUMNS,
        repin_resonators=draw(st.booleans()),
    )


#: The currents' absolute floor, 256 subnormal steps (1.3e-321). With
#: lambda_off near or below the float minimum and only the off-resonant
#: couplings carrying current, every current is subnormal: each rounding
#: then errs by up to half a step, not by a share of the value, and the
#: frequencies weigh it, so one step (4.9e-324) can exceed 1e-12 of the
#: scale. In 81,000 random scalar solves of such systems the sum of the
#: currents exceeded that relative bound by at most 61 steps.
SUBNORMAL_FLOOR = 256 * 2.0**-1074


def subnormal_example(circuit, q, lambda_res, lambda_off, cold, hot):
    """A merged a,c system with every current subnormal: baths ac at cold
    and b at hot in the first row."""
    return SweepSpec(
        config=SystemConfig(circuit=circuit, q=q, lambda_res=lambda_res, lambda_off=lambda_off,
                            merged=("a", "c")),
        scenario=TemperatureScenario(hot=frozenset({"b"}), base=cold, hot_temperature=hot),
        axes=(SweepAxis("hot_temperature", hot, hot + 0.1, 2),),
        metrics=METRIC_COLUMNS,
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
# currents summing to -4.9e-324 at a scale of 2.8e-312
@example(spec=subnormal_example(CircuitParams(e_j=5.0, e_c=0.5, phi=0.0), 10.0, 2.0, 4.79e-308,
                                0.0, 0.5))
# currents summing to -1.4e-322, 29 steps, at a scale of 1.0e-312
@example(spec=subnormal_example(
    CircuitParams(e_j=6.9105553699227045, e_c=0.6910555369922704, phi=1.3758881232242457),
    12.573586737483025, 1.8134447996152334, 6.347863850533e-312, 0.0, 2.813314146419029))
def test_sweep_cells_equal_the_scalar_api(spec):
    # Hybrid-regime warnings are expected output here, not failures.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_sweep(spec)  # a bad point is a flagged row, never an exception
        wanted = [scalar_row(spec, value) for (value,) in spec.grid()]
    for row, want in zip(result.rows, wanted):
        got = dict(zip(result.columns, row))
        assert got["flags"] == want["flags"]
        assert (None in row) == bool(got["flags"])  # the rows sweep._block_text templates
        for name in STATE + spec.metric_columns + ("regime", "residual"):
            assert got[name] == want[name], name
        if got["p0"] is None:
            continue
        # north-star invariants of every emitted row
        p = [got[c] for c in ("p0", "p1", "p2")]
        assert all(0.0 <= x <= 1.0 for x in p) and abs(sum(p) - 1.0) <= 1e-12
        assert got["residual"] <= RESIDUAL_TOL
        assert abs(got["j_a"] + got["j_b"] + got["j_c"]) <= 1e-12 * want["_scale"] + SUBNORMAL_FLOOR
        for name in spec.metric_columns:
            assert got[name] is None or abs(got[name]) <= 1.0
        temps = set(want["_temps"].values())
        if len(temps) == 1 and (t := temps.pop()) > 0.0:
            w = np.exp(-np.array(want["_cfg"].spectrum.energies) / t)
            assert np.abs(np.array(p) - w / w.sum()).max() <= 1e-10
            for c in ("j_a", "j_b", "j_c"):
                assert abs(got[c]) <= 1e-12 * want["_scale"] + SUBNORMAL_FLOOR


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
def test_rows_obey_the_second_law(spec):
    # Entropy production sigma = -sum_l J_l / T_l >= 0 under local detailed
    # balance (Spohn, J. Math. Phys. 19, 1227, 1978), J_l the heat out of
    # channel l's bath. At equal temperatures sigma is rounding noise of the
    # currents, so each row may fall short by 4 epsilon scale / T_min, the
    # scale being the scalar API's.
    spec = replace(spec, metrics=())  # a metric's 0/0 would flag the row
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_sweep(spec)
        wanted = [scalar_row(spec, value) for (value,) in spec.grid()]
    for row, want in zip(result.rows, wanted):
        got = dict(zip(result.columns, row))
        if got["flags"] or min((temps := want["_temps"]).values()) <= 0.0:
            continue
        t = [temps[want["_cfg"].bath_of(c)] for c in "abc"]
        sigma = -(got["j_a"] / t[0] + got["j_b"] / t[1] + got["j_c"] / t[2])
        assert sigma >= -4.0 * np.finfo(float).eps * want["_scale"] / min(t), (sigma, t)


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
        monkeypatch.setattr(sweep_module, "BLOCK_SCENARIOS", block)
        assert csv_bytes(run_sweep(spec)) == reference
        assert csv_bytes(run_sweep(spec, workers=3)) == reference


def test_all_zero_temperature_point_is_a_reducible_chain_row(monkeypatch):
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
    # a block whose every point fails in the kernel gives the same rows
    monkeypatch.setattr(sweep_module, "BLOCK_SCENARIOS", 1)
    assert run_sweep(spec) == result


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


def edge_batch(n: int = 2000):
    """A seeded batch of solve_scenarios inputs (freqs, prefactors,
    temperatures) at the kernel's edges: channel temperatures of 0 (all three
    in a few rows) and with omega/T > 700, lambda_off of 0, log-uniform from
    1 down to 1e-300, and up to 2, Q log-uniform from 1 to 1e4, and
    resonators detuned by up to 5 %."""
    u = np.random.default_rng(2021).random((n, 16))
    omega10 = 0.5 + 4.5 * u[:, 0]
    omega21 = omega10 * (0.6 + 0.35 * u[:, 1])
    freqs = np.stack([omega10, omega21, omega10 + omega21], axis=1)
    lambda_off = np.where(u[:, 7] < 0.2, 0.0,
                          np.where(u[:, 7] < 0.6, 10.0 ** (-300.0 * u[:, 8]), 2.0 * u[:, 8]))
    prefactors = channel_prefactors(freqs, freqs * (0.95 + 0.1 * u[:, 2:5]), 10.0 ** (4.0 * u[:, 5:6]),
                                    0.2 + 1.8 * u[:, 6:7], lambda_off[:, None])
    kind = u[:, 9:12]
    temperatures = np.where(kind < 0.15, 0.0,
                            np.where(kind < 0.3, 1e-4 * (1.0 + u[:, 12:15]), 0.05 + 5.0 * u[:, 12:15]))
    return freqs, prefactors, temperatures


def test_kernel_bits_are_pinned():
    # The sha256 of the five arrays solve_scenarios returns for edge_batch,
    # taken with numpy 2.4 on x86-64 Linux. A change to the kernel that moves
    # any bit of any scenario changes it; a new platform or numpy may too.
    digest = hashlib.sha256()
    for array in solve_scenarios(*edge_batch()):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == "14b3ad219e0ebaf18ed5f71633a4d4958e0d0b2e1a047401295aac60028d09ba"


def test_kernel_peak_memory_per_scenario():
    freqs, prefactors, temperatures = (a[:1024] for a in edge_batch())
    solve_scenarios(freqs, prefactors, temperatures)  # first-call caches
    tracemalloc.start()
    try:
        solve_scenarios(freqs, prefactors, temperatures)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600 * 1024, peak / 1024

"""Sweep-engine tests: grids, determinism, error rows, CSV format, presets."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_heat import (
    CircuitParams,
    PRESETS,
    QutritHeatError,
    SweepAxis,
    SweepSpec,
    SweepResult,
    SystemConfig,
    TemperatureScenario,
    UndefinedCoefficient,
    circulation,
    preset,
    rectification_2t,
    run_sweep,
    solve_temperatures,
    write_csv,
    write_sweep,
)
from qutrit_heat import sweep
from qutrit_heat.steady import FAILURE_KINDS, solve_scenarios
from qutrit_heat.sweep import AXIS_NAMES, METRIC_COLUMNS

QUARTER_FLUX = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)


def config(**kw) -> SystemConfig:
    base = dict(circuit=QUARTER_FLUX, q=100.0)
    base.update(kw)
    return SystemConfig(**base)


def spec(axes, metrics=(), cfg=None, scenario=None, **kw) -> SweepSpec:
    return SweepSpec(
        config=cfg or config(),
        scenario=scenario
        or TemperatureScenario(hot=frozenset({"a"}), base=0.9, hot_temperature=2.0),
        axes=axes,
        metrics=metrics,
        **kw,
    )


class TestSpecValidation:
    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError, match="count"):
            SweepAxis("base_temperature", 1.0, 2.0, 1)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValueError, match="point count must be an integer"):
            SweepAxis("hot_temperature", 2.0, 4.0, count)

    def test_numpy_integer_count_accepted(self):
        ax = SweepAxis("hot_temperature", 2.0, 4.0, np.int64(3))
        assert run_sweep(spec((ax,))).rows[-1][0] == 4.0

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="start"):
            SweepAxis("base_temperature", 2.0, 1.0, 10)

    def test_negative_temperature_range_rejected(self):
        with pytest.raises(ValueError):
            SweepAxis("hot_temperature", -0.5, 1.0, 10)

    @pytest.mark.parametrize("name, start, stop, message", [
        ("lambda_off", -0.5, 1.0, "weights must be >= 0"),
        ("quality_factor", 0.0, 100.0, "Q must be positive"),
        ("log10_quality_factor", -301.0, 2.0, "exponents must lie in"),
        ("log10_quality_factor", 1.0, 301.0, "exponents must lie in"),
    ])
    def test_axis_range_rejected(self, name, start, stop, message):
        with pytest.raises(ValueError, match=message):
            SweepAxis(name, start, stop, 3)

    def test_unknown_passive_rejected(self):
        with pytest.raises(ValueError, match="passive must be"):
            spec((SweepAxis("hot_temperature", 1.0, 2.0, 2),), metrics=("R_ab",), passive="hot")

    def test_unknown_axis_and_metric(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SweepAxis("voltage", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="unknown metric"):
            spec((SweepAxis("base_temperature", 0.5, 1.0, 3),), metrics=("Z",))

    def test_axis_count_limits(self):
        ax = SweepAxis("base_temperature", 0.5, 1.0, 3)
        with pytest.raises(ValueError):
            spec(())
        with pytest.raises(ValueError):
            spec((ax, ax))  # duplicate axis names
        with pytest.raises(ValueError):
            spec((ax, SweepAxis("hot_temperature", 1.0, 2.0, 3),
                  SweepAxis("flux", 0.0, 1.0, 3)))


    def test_both_quality_axes_rejected(self):
        # both would set Q, and the log10 axis would silently win
        with pytest.raises(ValueError, match="quality_factor"):
            spec((SweepAxis("log10_quality_factor", 1.0, 3.0, 3),
                  SweepAxis("quality_factor", 10.0, 100.0, 2)))

    def test_scenario_baths_must_be_config_baths(self):
        ax = (SweepAxis("hot_temperature", 1.0, 2.0, 2),)
        for scen in (TemperatureScenario(hot=frozenset({"x"})),
                     TemperatureScenario(overrides=(("d", 2.0),)),
                     TemperatureScenario(hot=frozenset({"b"}))):
            with pytest.raises(ValueError, match="not one of the baths"):
                spec(ax, cfg=config(merged=("b", "c")), scenario=scen)
        spec(ax, cfg=config(merged=("b", "c")),
             scenario=TemperatureScenario(hot=frozenset({"bc"}), overrides=(("a", 2.0),)))

    def test_a_string_hot_is_one_bath(self):
        ax = (SweepAxis("hot_temperature", 1.0, 2.0, 3),)
        merged = config(merged=("b", "c"))
        as_string = run_sweep(spec(ax, cfg=merged, scenario=TemperatureScenario(hot="bc")))
        as_set = run_sweep(spec(ax, cfg=merged, scenario=TemperatureScenario(hot=frozenset({"bc"}))))
        assert TemperatureScenario(hot="bc").hot == frozenset({"bc"})
        assert as_string == as_set and all(not row[-1] for row in as_set.rows)
        assert TemperatureScenario(hot="a") == TemperatureScenario(hot=frozenset({"a"}))
        with pytest.raises(ValueError, match="not one of the baths"):
            spec(ax, scenario=TemperatureScenario(hot="ab"))  # not two baths

    def test_metrics_must_be_distinct(self):
        ax = (SweepAxis("hot_temperature", 1.0, 2.0, 2),)
        for metrics in (("C", "C"), ("R_ab", "C", "R_ab"), ("regime", "regime")):
            with pytest.raises(ValueError, match="metrics must be distinct"):
                spec(ax, metrics=metrics)
        assert spec(ax, metrics=("R_ab", "C")).metric_columns == ("R_ab", "C")

    @pytest.mark.parametrize("passive", [True, False])
    def test_boolean_passive_rejected(self, passive):
        # as SweepAxis rejects a boolean count: True is not the temperature 1.0
        with pytest.raises(ValueError, match="passive must be"):
            spec((SweepAxis("hot_temperature", 1.0, 2.0, 2),), metrics=("R_ab",), passive=passive)


class TestGrid:
    def test_row_major_order(self):
        s = spec(
            (SweepAxis("base_temperature", 1.0, 2.0, 2),
             SweepAxis("hot_temperature", 3.0, 4.0, 3)),
        )
        grid = s.grid()
        assert grid == [
            (1.0, 3.0), (1.0, 3.5), (1.0, 4.0),
            (2.0, 3.0), (2.0, 3.5), (2.0, 4.0),
        ]

    def test_columns(self):
        s = spec((SweepAxis("hot_temperature", 1.0, 2.0, 3),), metrics=("C", "R_ab"))
        assert s.columns == (
            "hot_temperature", "p0", "p1", "p2", "j_a", "j_b", "j_c",
            "C", "R_ab", "regime", "residual", "flags",
        )
        # currents/regime are accepted metric names but add no columns
        s2 = spec((SweepAxis("hot_temperature", 1.0, 2.0, 3),),
                  metrics=("currents", "regime"))
        assert s2.metric_columns == ()


class TestRunSweep:
    def test_rows_complete_and_ordered(self):
        s = spec(
            (SweepAxis("base_temperature", 0.6, 1.2, 3),
             SweepAxis("hot_temperature", 1.5, 2.5, 4)),
            metrics=("R_ab", "C"),
        )
        res = run_sweep(s)
        assert res.columns == s.columns
        assert len(res.rows) == 12
        for row, point in zip(res.rows, s.grid()):
            assert row[: len(point)] == point
            assert len(row) == len(res.columns)

    def test_equilibrium_point_flags_undefined(self):
        # base == hot at one grid point: coefficients are 0/0 there
        s = spec(
            (SweepAxis("hot_temperature", 0.9, 1.5, 3),),
            metrics=("R_ab",),
            scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9,
                                         hot_temperature=2.0),
        )
        res = run_sweep(s)
        first = res.rows[0]
        cols = res.columns
        assert first[cols.index("R_ab")] is None
        assert "undefined:R_ab" in first[cols.index("flags")]
        assert res.undefined_count() == 1
        # the equilibrium row still carries populations and currents
        assert first[cols.index("p0")] is not None

    def test_non_finite_currents_are_error_rows(self):
        # rates near the float range: the populations pass, the heat currents are NaN
        cfg = config(circuit=CircuitParams(e_j=1e300, e_c=1e-300, phi=math.pi / 2), q=1e300,
                     lambda_res=0.0, lambda_off=1e300)
        with pytest.warns(UserWarning, match="linewidth"):  # e_c = 1e-300 closes the gap
            res = run_sweep(spec((SweepAxis("hot_temperature", 1e299, 1e300, 2),), ("R_ab",),
                                 cfg=cfg, scenario=TemperatureScenario(hot=frozenset({"a"}))))
        assert [row[1:] for row in res.rows] == [(None,) * 9 + ("error:ValueError",)] * 2
        with pytest.raises(ValueError, match="not finite"):
            solve_temperatures(cfg, {"a": 1e300, "b": 1.0, "c": 1.0})

    def test_serial_parallel_identical(self):
        s = spec(
            (SweepAxis("base_temperature", 0.5, 1.0, 4),
             SweepAxis("hot_temperature", 1.2, 3.0, 5)),
            metrics=("R_ab", "R_bc", "C"),
        )
        serial = run_sweep(s, workers=1)
        parallel = run_sweep(s, workers=3)
        assert serial == parallel

    def test_deterministic_rerun(self):
        s = spec((SweepAxis("hot_temperature", 1.0, 3.0, 7),), metrics=("C",))
        assert run_sweep(s) == run_sweep(s)

    def test_merged_config_flags_three_bath_metrics(self):
        s = spec((SweepAxis("hot_temperature", 1.5, 3.0, 3),),
                 metrics=("R_ab", "R2_bc_a", "C"), cfg=config(merged=("b", "c")))
        res = run_sweep(s)
        for (hot,), row in zip(s.grid(), res.rows):
            got = dict(zip(res.columns, row))
            assert got["flags"] == "error:ValueError:R_ab;error:ValueError:C"
            assert got["R_ab"] is None and got["C"] is None
            assert got["R2_bc_a"] == rectification_2t(config(), ("b", "c"), "a", 0.9, hot)


@pytest.fixture
def solved(monkeypatch):
    """Scenario rows of each solve_scenarios call the sweep makes."""
    calls = []

    def counting(freqs, *args):
        calls.append(len(freqs))
        return solve_scenarios(freqs, *args)

    monkeypatch.setattr(sweep, "solve_scenarios", counting)
    return calls


class TestSolveCount:
    def test_every_point_solves_each_distinct_template(self, solved):
        # R_ab, R_ac and R_bc need the three single-hot templates, also on the
        # base == hot diagonal, where they are equal as numbers
        axes = (SweepAxis("base_temperature", 0.5, 2.0, 4),
                SweepAxis("hot_temperature", 0.5, 2.0, 4))
        run_sweep(spec(axes, metrics=("R_ab", "R_ac", "R_bc")))
        assert sum(solved) == 16 * 3

    @pytest.mark.parametrize("block_scenarios", [2, 256])
    def test_invalid_flux_points_are_never_solved(self, solved, monkeypatch, block_scenarios):
        monkeypatch.setattr(sweep, "BLOCK_SCENARIOS", block_scenarios)
        s = spec((SweepAxis("flux", 4.0, 5.0, 5),), metrics=("C",))  # edge at 3*pi/2
        res = run_sweep(s)
        invalid = sum(r[-1] == "error:InvalidFlux" for r in res.rows)
        assert 0 < invalid < 5
        assert sum(solved) == (5 - invalid) * 3

    def test_a_fixed_system_is_planned_once(self, monkeypatch):
        calls = {"channel_prefactors": 0, "kernel_frequencies": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(sweep, "channel_prefactors",
                            counted("channel_prefactors", sweep.channel_prefactors))
        monkeypatch.setattr(SystemConfig, "kernel_frequencies",
                            counted("kernel_frequencies", SystemConfig.kernel_frequencies))
        monkeypatch.setattr(sweep, "BLOCK_SCENARIOS", 1)
        axes = (SweepAxis("base_temperature", 0.5, 2.0, 4), SweepAxis("hot_temperature", 0.5, 2.0, 4))
        write_sweep(spec(axes, metrics=("R_ab", "C")), io.StringIO())
        assert calls == {"channel_prefactors": 1, "kernel_frequencies": 1}
        # a flux axis derives each distinct flux of a block once: blocks of 4
        # one-template points over 3 fluxes x 2 temperatures hold 2 and 1 fluxes
        calls.update(dict.fromkeys(calls, 0))
        monkeypatch.setattr(sweep, "BLOCK_SCENARIOS", 4)
        run_sweep(spec((SweepAxis("flux", 0.5, 1.5, 3), SweepAxis("hot_temperature", 1.0, 2.0, 2))))
        assert calls == {"channel_prefactors": 2, "kernel_frequencies": 3}


class TestFluxSweep:
    def test_invalid_flux_rows_flagged(self):
        s = spec(
            (SweepAxis("flux", 4.0, 5.0, 5),),  # domain edge at 3*pi/2 ~ 4.712
            metrics=("C",),
            scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9,
                                         hot_temperature=3.0),
        )
        res = run_sweep(s)
        flags = [r[res.columns.index("flags")] for r in res.rows]
        assert any("error:InvalidFlux" in f for f in flags)
        assert any(f == "" for f in flags)
        bad = [r for r, f in zip(res.rows, flags) if "InvalidFlux" in f]
        assert all(r[res.columns.index("p0")] is None for r in bad)

    def test_single_point_matches_direct_evaluation(self):
        s = spec(
            (SweepAxis("flux", math.pi / 2, math.pi, 2),),
            metrics=("C",),
            scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9,
                                         hot_temperature=3.0),
        )
        res = run_sweep(s)
        row = res.rows[0]
        c_direct = circulation(config(), 0.9, 3.0)
        assert row[res.columns.index("C")] == c_direct

    def test_resonators_repinned_to_flux_spectrum(self):
        # with repinning, the flux=pi row equals a direct solve of the
        # pi-flux configuration with resonators on its own transitions
        s = spec(
            (SweepAxis("flux", math.pi / 2, math.pi, 2),),
            metrics=("C",),
            scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9,
                                         hot_temperature=3.0),
        )
        res = run_sweep(s)
        row = res.rows[1]
        cfg_pi = config(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi))
        assert row[res.columns.index("C")] == circulation(cfg_pi, 0.9, 3.0)


class TestQSweep:
    def test_low_q_advisory_warns(self):
        s = spec((SweepAxis("quality_factor", 8.0, 100.0, 3),), metrics=("C",))
        with pytest.warns(UserWarning, match="linewidth"):
            run_sweep(s)
        # without a Q axis, the Q fixed in the configuration is checked
        with pytest.warns(UserWarning, match="linewidth"):
            run_sweep(spec((SweepAxis("hot_temperature", 1.0, 2.0, 2),), cfg=config(q=8.0)))

    def test_advisory_skips_a_config_without_spectrum(self):
        deep = config(circuit=CircuitParams(e_j=0.3, e_c=1.0, phi=0.0))
        # the e_j/e_c note alone: no linewidth is checked against a missing spectrum
        res, notes = recorded(lambda: run_sweep(spec((SweepAxis("quality_factor", 8.0, 100.0, 2),),
                                                     cfg=deep)))
        assert [message for message, _ in notes] == deep.advisories() == [
            "e_j/e_c = 0.30 is below 5.0; perturbative spectrum may be inaccurate"]
        flags = [r[res.columns.index("flags")] for r in res.rows]
        assert flags == ["error:NonPositiveFrequency"] * 2

    def test_flux_axis_without_a_circuit_gives_the_ratio_note_alone(self):
        # no axis value has cos(phi/3) > 0, so no linewidth is checked, not even
        # at the configuration's own flux, where Q = 1 would flag every channel
        low = config(circuit=CircuitParams(e_j=3.0, e_c=1.0), q=1.0)
        res, notes = recorded(lambda: run_sweep(spec((SweepAxis("flux", 5.0, 6.0, 2),), cfg=low)))
        assert len(low.advisories()) == 4
        assert [message for message, _ in notes] == low.advisories()[:1]
        assert [r[-1] for r in res.rows] == ["error:InvalidFlux"] * 2

    def test_log_axis_sets_quality_factor(self):
        s = spec(
            (SweepAxis("log10_quality_factor", 2.0, 3.0, 2),),
            metrics=("C",),
            scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9,
                                         hot_temperature=3.0),
        )
        res = run_sweep(s)
        c_q100 = circulation(config(q=100.0), 0.9, 3.0)
        c_q1000 = circulation(config(q=1000.0), 0.9, 3.0)
        assert res.rows[0][res.columns.index("C")] == c_q100
        assert res.rows[1][res.columns.index("C")] == c_q1000

    @pytest.mark.parametrize("name, key, values", [
        ("quality_factor", "q", (50.0, 1000.0)), ("log10_quality_factor", "q", (100.0, 1000.0)),
        ("lambda_off", "lambda_off", (0.0, 0.5))])
    def test_a_system_axis_sets_each_row(self, name, key, values):
        # Q and lambda_off axes change the system per point, so no block may
        # take the configuration's own kernel inputs
        start, stop = (math.log10(v) for v in values) if name.startswith("log10") else values
        res = run_sweep(spec((SweepAxis(name, start, stop, 2),), metrics=("C",)))
        assert [r[res.columns.index("C")] for r in res.rows] == [
            circulation(config(**{key: v}), 0.9, 2.0) for v in values]

    def test_huge_q_recovers_ideal_limit(self):
        assert abs(circulation(config(q=1e6), 0.9, 2.5)) <= 1e-6

    def test_perfect_circulation_moves_to_lower_t_with_q(self):
        def largest_base_with_perfect_c(q):
            cfg = config(q=q)
            best = 0.0
            for b in np.linspace(0.1, 1.6, 120):
                try:
                    if abs(circulation(cfg, float(b), 2.0)) >= 0.999:
                        best = float(b)
                except UndefinedCoefficient:
                    pass
            return best

        t50 = largest_base_with_perfect_c(50.0)
        t1000 = largest_base_with_perfect_c(1000.0)
        assert t50 > t1000 > 0.0


def reference_csv(result: SweepResult) -> str:
    """The csv.writer serialisation that write_csv must reproduce byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow(["" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()


def written(result: SweepResult) -> str:
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue()


STATE_COLUMNS = ("p0", "p1", "p2", "j_a", "j_b", "j_c")
BATHS = sorted({b for merged in (None, ("a", "b"), ("a", "c"), ("b", "c"))
                for b in config(merged=merged).bath_ids()})
REGIMES = ["none"] + [f"{kind}_{b}" for kind in "RP" for b in BATHS]
# every exception class whose name the engine can write into a flag
ERRORS = sorted({*FAILURE_KINDS[1:]} | {
    c.__name__ for root in (QutritHeatError, ValueError, ArithmeticError)
    for c in (root, *root.__subclasses__())})
FLAG_ITEMS = ([f"error:{e}" for e in ERRORS] + [f"undefined:{m}" for m in METRIC_COLUMNS]
              + [f"error:{e}:{m}" for e in ERRORS for m in METRIC_COLUMNS])
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]))
FLAGS = st.lists(st.sampled_from(FLAG_ITEMS), max_size=3).map(";".join)
TEXT = st.one_of(st.sampled_from(REGIMES), FLAGS,
                 st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8))


@st.composite
def sweep_results(draw) -> SweepResult:
    axes = tuple(draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=2, unique=True)))
    metrics = tuple(draw(st.lists(st.sampled_from(METRIC_COLUMNS), max_size=4, unique=True)))
    columns = axes + STATE_COLUMNS + metrics + ("regime", "residual", "flags")
    values = st.tuples(*[FLOATS] * len(axes))
    error_row = st.builds(lambda v, e: v + (None,) * (8 + len(metrics)) + (f"error:{e}",),
                          values, st.sampled_from(ERRORS))
    engine_row = st.builds(
        lambda v, state, cells, *tail: v + state + cells + tail,
        values, st.tuples(*[FLOATS] * 6), st.tuples(*[st.none() | FLOATS] * len(metrics)),
        st.none() | st.sampled_from(REGIMES), FLOATS,
        FLAGS | FLAGS.map(lambda f: "error:AmbiguousExtremum" + (f and ";" + f)))
    any_row = st.tuples(*[st.one_of(st.none(), FLOATS, TEXT)] * len(columns))
    rows = draw(st.lists(st.one_of(error_row, engine_row, any_row), max_size=12))
    return SweepResult(columns=columns, rows=tuple(rows))


class TestCsv:
    def test_format_and_determinism(self, tmp_path):
        s = spec(
            (SweepAxis("hot_temperature", 0.9, 2.0, 4),),
            metrics=("R_ab",),
        )
        res = run_sweep(s)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(res, f1)
        write_csv(res, f2)
        b1 = f1.read_bytes()
        assert b1 == f2.read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == ",".join(s.columns)
        assert len(lines) == 1 + len(res.rows)
        # 17 significant digits on float cells
        cell = lines[1].split(",")[1]
        assert len(cell.replace("-", "").replace(".", "").replace("e", "")
                   .lstrip("0")) >= 16
        # undefined coefficient serialized as an empty field
        first_data = lines[1].split(",")
        assert first_data[s.columns.index("R_ab")] == ""

    def test_empty_metric_list_columns(self, tmp_path):
        s = spec((SweepAxis("hot_temperature", 1.0, 2.0, 2),))
        res = run_sweep(s)
        out = tmp_path / "bare.csv"
        write_csv(res, out)
        header = out.read_text().splitlines()[0]
        assert header == ("hot_temperature,p0,p1,p2,j_a,j_b,j_c,"
                          "regime,residual,flags")

    @settings(max_examples=300, deadline=None)
    @given(result=sweep_results())
    # 0.0 and -0.0 in the same state and residual columns: equal as keys,
    # unequal as text, so a cache keyed by float value fails here at once
    @example(result=SweepResult(
        columns=("flux", *STATE_COLUMNS, "regime", "residual", "flags"),
        rows=((0.0, 0.0, 1.0, 0.0, 0.0, -0.0, 0.0, "none", 0.0, ""),
              (0.0, -0.0, 1.0, -0.0, -0.0, 0.0, 0.0, "none", -0.0, ""))))
    def test_bytes_equal_the_csv_module(self, result):
        assert written(result) == reference_csv(result)

    def test_sweep_bytes_equal_the_csv_module(self):
        s = spec((SweepAxis("base_temperature", 0.0, 1.5, 4),
                  SweepAxis("hot_temperature", 0.0, 2.0, 5)), metrics=("R_ab", "R_bc", "C"))
        res = run_sweep(s)
        assert any(None in row for row in res.rows) and written(res) == reference_csv(res)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), types=st.lists(st.sampled_from([float, str]), min_size=1, max_size=14),
           n=st.integers(1, 12), repeats=st.integers(1, 6))
    def test_block_text_equals_the_line_formatter(self, data, types, n, repeats):
        # write_sweep's rule against the csv module's lines: columns of one
        # cell type each, with None in any cell, then a flags column that, as
        # in the engine's rows, is non-empty in every row holding a None, and
        # only the flagged rows take their own template; repeated to blocks
        # of up to 72 rows, so that some span several 32-row formats
        draw = {float: FLOATS, str: TEXT}
        columns = [data.draw(st.lists(st.none() | draw[t], min_size=n, max_size=n)) for t in types]
        flags = [data.draw(FLAGS.filter(bool) if None in row else FLAGS) for row in zip(*columns)]
        columns = [column * repeats for column in (*columns, flags)]
        full = sweep._template([0.0 if t is float else "" for t in types] + [""])
        text = sweep._block_text(columns, full, [k for k, f in enumerate(columns[-1]) if f])
        result = SweepResult(columns=tuple(f"c{i}" for i in range(len(columns))),
                             rows=tuple(zip(*columns)))
        assert "".join(text) == reference_csv(result).partition("\n")[2]
        assert len(text) == (n * repeats + 31) // 32

    def test_rows_across_row_blocks_equal_the_csv_module(self):
        # write_csv converts BLOCK_SCENARIOS rows at a time; every row differs
        # in its first cell, and engine rows (the shared template), error rows
        # and rows of other cell types (their own) alternate across each boundary
        columns = ("flux", *STATE_COLUMNS, "C", "regime", "residual", "flags")

        def row(k: int) -> tuple:
            return [(float(k), 0.25, 0.5, 0.25, 1e-3 * k, -1e-3 * k, -0.0, -1.0, "R_a", 1e-17, ""),
                    (float(k), *[None] * 9, "error:InvalidFlux"),
                    (k, "x", None, 0.5, -0.0, True, float(k), None, "none", 2.0, "undefined:C")][k % 3]

        result = SweepResult(columns, tuple(map(row, range(2 * sweep.BLOCK_SCENARIOS + 5))))
        assert sweep.BLOCK_SCENARIOS % 3 == 0  # an own-template row ends each block
        assert written(result) == reference_csv(result)

    @pytest.mark.parametrize("cells", [9, 11])
    def test_ragged_row_raises(self, cells):
        # zip would cut a long row to the header's width, or a short one the
        # whole block; write_csv names the row instead
        columns = ("flux", *STATE_COLUMNS, "regime", "residual", "flags")
        row = (1.0, 0.25, 0.5, 0.25, 0.0, 0.0, 0.0, "none", 0.0, "")
        rows = (row,) * (sweep.BLOCK_SCENARIOS + 3) + ((row + ("",))[:cells],) + (row,)
        with pytest.raises(ValueError, match=f"row {sweep.BLOCK_SCENARIOS + 3} has {cells} cells, "
                                             "the header 10"):
            write_csv(SweepResult(columns, rows), io.StringIO())

    def test_engine_strings_need_no_quoting(self):
        # the writer has no quoting path, so no string the engine emits may need one
        columns = AXIS_NAMES + STATE_COLUMNS + METRIC_COLUMNS + ("regime", "residual", "flags")
        for text in (*columns, *REGIMES, *FLAG_ITEMS, "error:AmbiguousExtremum"):
            assert not set(text) & set(',"\r\n'), text


#: A map with undefined cells on its base == hot diagonal, a flux x Q sweep
#: with InvalidFlux rows and linewidth advisories, a merged-bath sweep whose
#: three-bath metrics are error cells, a fixed low Q, a flux sweep at
#: e_j/e_c = 3, with the e_j/e_c advisory and NonPositiveFrequency rows, a flux
#: sweep at Q = 25 whose linewidth advisory holds at phi = -1 only, not at the
#: configuration's own pi/2, and a 49-point map whose undefined diagonal cells
#: fall on both sides of write_sweep's 32-row formats.
STREAMED_SPECS = {
    "diagonal": spec((SweepAxis("base_temperature", 0.5, 2.0, 4),
                      SweepAxis("hot_temperature", 0.5, 2.0, 4)), metrics=("R_ab", "R_bc", "C")),
    "flux": spec((SweepAxis("flux", 4.0, 5.0, 5), SweepAxis("quality_factor", 8.0, 100.0, 3)),
                 metrics=("C",)),
    "merged": spec((SweepAxis("hot_temperature", 0.5, 2.0, 6),), cfg=config(merged=("b", "c")),
                   metrics=("R_ab", "R2_bc_a", "C")),
    "fixed_low_q": spec((SweepAxis("base_temperature", 0.5, 2.0, 4),
                         SweepAxis("hot_temperature", 0.5, 2.0, 4)), metrics=("R_ab", "C"),
                        cfg=config(q=4.0)),
    "low_ratio": spec((SweepAxis("flux", 0.0, 4.5, 10),), metrics=("C",),
                      cfg=config(circuit=CircuitParams(e_j=3.0, e_c=1.0))),
    "low_q_flux": spec((SweepAxis("flux", -1.0, 5.0, 4),), metrics=("C",), cfg=config(q=25.0)),
    "wide": spec((SweepAxis("base_temperature", 0.5, 2.0, 7),
                  SweepAxis("hot_temperature", 0.5, 2.0, 7)), metrics=("R_ab", "C")),
}


def recorded(call):
    """call()'s result and the (message, filename) of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(str(w.message), w.filename) for w in caught]


class TestStream:
    @pytest.mark.parametrize("name", STREAMED_SPECS)
    def test_bytes_counts_and_advisories_equal_the_batch_path(self, monkeypatch, name):
        s = STREAMED_SPECS[name]
        result, advisories = recorded(lambda: run_sweep(s))
        reference = written(result)
        assert result.undefined_count() + result.error_count() > 0
        # 16 scenarios are blocks of 5 points at 3 templates, 8 at 2
        for block_scenarios in (1, 5, 7, 16, 768):
            monkeypatch.setattr(sweep, "BLOCK_SCENARIOS", block_scenarios)
            buf = io.StringIO()
            counts, streamed_advisories = recorded(lambda: write_sweep(s, buf))
            assert buf.getvalue() == reference, block_scenarios
            assert counts == (len(result.rows), result.undefined_count(), result.error_count())
            assert streamed_advisories == advisories
            pooled, pooled_advisories = recorded(lambda: run_sweep(s, workers=2))
            assert pooled == result and pooled_advisories == advisories, block_scenarios
        assert bool(advisories) == (name in ("flux", "fixed_low_q", "low_ratio", "low_q_flux"))
        if name == "low_ratio":  # once per sweep, not once per flux value
            assert [message for message, _ in advisories] == [
                "e_j/e_c = 3.00 is below 5.0; perturbative spectrum may be inaccurate"]
        if name == "low_q_flux":  # at the axis value of smallest |phi|, re-pinned
            assert [message for message, _ in advisories] == config(
                circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=-1.0), q=25.0).advisories() == [
                "channel c: linewidth omega_l/Q = 0.3809 exceeds the omega21 - omega32 gap 0.375; "
                "levels above the qutrit would be populated"]

    def test_a_path_gets_the_same_bytes(self, tmp_path):
        s = STREAMED_SPECS["diagonal"]
        write_sweep(s, tmp_path / "streamed.csv")
        assert (tmp_path / "streamed.csv").read_text() == written(run_sweep(s))

    def test_grid_is_the_blocks_in_row_major_order(self, solved, monkeypatch):
        s = STREAMED_SPECS["flux"]
        outer, inner = (ax.values() for ax in s.axes)
        assert s.grid() == [(u, v) for u in outer for v in inner]
        blocks = list(sweep._blocks(s, 4))
        assert [len(b[0]) for b in blocks] == [4, 4, 4, 3]
        assert [point for b in blocks for point in zip(*b)] == s.grid()
        # a block holds max(1, BLOCK_SCENARIOS // templates) points, each
        # solved at its 3 templates here, at 1 with no metric
        wide = STREAMED_SPECS["wide"]
        for block_scenarios, metrics, sizes in ((16, wide.metrics, [15] * 9 + [12]),
                                                (2, wide.metrics, [3] * 49),
                                                (16, (), [16, 16, 16, 1])):
            monkeypatch.setattr(sweep, "BLOCK_SCENARIOS", block_scenarios)
            solved.clear()
            run_sweep(replace(wide, metrics=metrics))
            assert solved == sizes, block_scenarios

    def test_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "BLOCK_SCENARIOS", 16)

        def peak(count: int) -> int:
            s = spec((SweepAxis("base_temperature", 0.5, 2.0, count),
                      SweepAxis("hot_temperature", 0.6, 2.1, count)), metrics=("R_ab", "C"))
            write_sweep(s, tmp_path / "warm.csv")  # first-call caches and imports
            # CPython keeps up to 2000 freed tuples of each size below 20 for
            # reuse; a few tuples per block that are built at one size and
            # freed at another would fill those lists during the measurement
            # and read as growth. Filled first, they hold still.
            primed = [tuple([None] * size) for size in range(1, 20) for _ in range(2000)]
            del primed
            tracemalloc.start()
            try:
                write_sweep(s, tmp_path / "x.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(8), peak(32)
        assert large <= 1.3 * small, (small, large)


class TestPresets:
    def test_all_presets_construct(self):
        for name in PRESETS:
            s = preset(name)
            assert isinstance(s, SweepSpec)
            assert 201 <= len(s.grid()) <= 201 * 201

    @pytest.mark.parametrize("name, digest", [
        ("fig2", "08be79a3a10c4ef4a1a29798531a93eb87f1e75286953f1bb127e97f61630aa4"),
        ("fig3", "74b3a080bc5e6f1a8ed6a4d44ecd7c606f3da6a86fa5c438882f1f1958ee2bd7"),
        ("fig4", "01b156695a402cc90030d76cf4e8b220dbb877d1f3ccb7883c833faa99886567"),
        ("fig5", "c084757add88f9ae214ca84459eb318a165d7feac5691038d2a40d3a064b9511"),
        ("fig6", "8ef15ec74388111deb656bb2423cd6308d452a097b24cb2548d4905081c7255c"),
        ("fig7", "4295daf8c2b9c2c760ec0a91dc0f4d3e077452c3ccca79f36e1e64a5f99cf2a2"),
        ("fig7c", "a04e40ce3b02fabea61cf76273682b06e3c75dd8d5cd51f5d7043d8522def890"),
        ("fig8", "c31701d73bf4f0068acbae2566a8b8d1bc49fdaabc81139287ef74c653a79324"),
    ])
    def test_spec_is_pinned(self, name, digest):
        # the sha256 of repr(spec): every field of every preset, without running it
        assert hashlib.sha256(repr(preset(name)).encode()).hexdigest() == digest

    def test_unknown_preset_lists_names(self):
        with pytest.raises(KeyError, match="fig2"):
            preset("fig99")

    def test_expected_names(self):
        assert set(PRESETS) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig7c", "fig8",
        }

    def test_presets_are_json_sweep_sections(self):
        # each value is data that a config file's sweep section can hold
        assert json.loads(json.dumps(PRESETS)) == PRESETS

    def test_fig3_shape(self):
        s = preset("fig3")
        assert len(s.axes) == 1 and s.axes[0].count == 501
        assert s.axes[0].name == "hot_temperature"

    def test_fig6_uses_mean_passive(self):
        assert preset("fig6").passive == "mean"
        assert preset("fig6").metrics == ("R_ab",)

    def test_fig7c_shows_circulation_reversal(self):
        res = run_sweep(preset("fig7c"))
        c_idx = res.columns.index("C")
        flags_idx = res.columns.index("flags")
        assert all(r[flags_idx] == "" for r in res.rows)
        values = [r[c_idx] for r in res.rows]
        assert any(c > 0.5 for c in values) and any(c < -0.5 for c in values)

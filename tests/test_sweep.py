"""Sweep-engine tests: grids, determinism, error rows, CSV format, presets."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="start"):
            SweepAxis("base_temperature", 2.0, 1.0, 10)

    def test_negative_temperature_range_rejected(self):
        with pytest.raises(ValueError):
            SweepAxis("hot_temperature", -0.5, 1.0, 10)

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

    @pytest.mark.parametrize("block_points", [2, 256])
    def test_invalid_flux_points_are_never_solved(self, solved, monkeypatch, block_points):
        monkeypatch.setattr(sweep, "BLOCK_POINTS", block_points)
        s = spec((SweepAxis("flux", 4.0, 5.0, 5),), metrics=("C",))  # edge at 3*pi/2
        res = run_sweep(s)
        invalid = sum(r[-1] == "error:InvalidFlux" for r in res.rows)
        assert 0 < invalid < 5
        assert sum(solved) == (5 - invalid) * 3


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
        # only a Q axis is checked, not a low Q fixed in the configuration
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*linewidth")
            run_sweep(spec((SweepAxis("hot_temperature", 1.0, 2.0, 2),), cfg=config(q=8.0)))

    def test_advisory_skips_a_config_without_spectrum(self):
        with pytest.warns(UserWarning, match="e_j/e_c"):
            deep = config(circuit=CircuitParams(e_j=0.3, e_c=1.0, phi=0.0))
        res = run_sweep(spec((SweepAxis("quality_factor", 8.0, 100.0, 2),), cfg=deep))
        flags = [r[res.columns.index("flags")] for r in res.rows]
        assert flags == ["error:NonPositiveFrequency"] * 2

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
    def test_bytes_equal_the_csv_module(self, result):
        assert written(result) == reference_csv(result)

    def test_sweep_bytes_equal_the_csv_module(self):
        s = spec((SweepAxis("base_temperature", 0.0, 1.5, 4),
                  SweepAxis("hot_temperature", 0.0, 2.0, 5)), metrics=("R_ab", "R_bc", "C"))
        res = run_sweep(s)
        assert any(None in row for row in res.rows) and written(res) == reference_csv(res)

    def test_engine_strings_need_no_quoting(self):
        # the writer has no quoting path, so no string the engine emits may need one
        columns = AXIS_NAMES + STATE_COLUMNS + METRIC_COLUMNS + ("regime", "residual", "flags")
        for text in (*columns, *REGIMES, *FLAG_ITEMS, "error:AmbiguousExtremum"):
            assert not set(text) & set(',"\r\n'), text


#: A map with undefined cells on its base == hot diagonal, a flux x Q sweep
#: with InvalidFlux rows and linewidth advisories, and a merged-bath sweep
#: whose three-bath metrics are error cells.
STREAMED_SPECS = {
    "diagonal": spec((SweepAxis("base_temperature", 0.5, 2.0, 4),
                      SweepAxis("hot_temperature", 0.5, 2.0, 4)), metrics=("R_ab", "R_bc", "C")),
    "flux": spec((SweepAxis("flux", 4.0, 5.0, 5), SweepAxis("quality_factor", 8.0, 100.0, 3)),
                 metrics=("C",)),
    "merged": spec((SweepAxis("hot_temperature", 0.5, 2.0, 6),), cfg=config(merged=("b", "c")),
                   metrics=("R_ab", "R2_bc_a", "C")),
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
        for block_points in (1, 5, 7, 256):
            monkeypatch.setattr(sweep, "BLOCK_POINTS", block_points)
            buf = io.StringIO()
            counts, streamed_advisories = recorded(lambda: write_sweep(s, buf))
            assert buf.getvalue() == reference, block_points
            assert counts == (len(result.rows), result.undefined_count(), result.error_count())
            assert streamed_advisories == advisories
        assert bool(advisories) == (name == "flux")

    def test_a_path_gets_the_same_bytes(self, tmp_path):
        s = STREAMED_SPECS["diagonal"]
        write_sweep(s, tmp_path / "streamed.csv")
        assert (tmp_path / "streamed.csv").read_text() == written(run_sweep(s))

    def test_grid_is_the_blocks_in_row_major_order(self, monkeypatch):
        s = STREAMED_SPECS["flux"]
        outer, inner = (ax.values() for ax in s.axes)
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 4)
        assert [len(b) for b in sweep._blocks(s)] == [4, 4, 4, 3]
        assert s.grid() == [(u, v) for u in outer for v in inner]

    def test_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 16)

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

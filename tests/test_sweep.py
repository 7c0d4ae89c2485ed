"""Sweep-engine tests: grids, determinism, error rows, CSV format, presets."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qutrit_heat import (
    CircuitParams,
    PRESETS,
    SweepAxis,
    SweepSpec,
    SystemConfig,
    TemperatureScenario,
    UndefinedCoefficient,
    circulation,
    preset,
    run_sweep,
    write_csv,
)

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


class TestPresets:
    def test_all_presets_construct(self):
        for name in PRESETS:
            s = preset(name)
            assert isinstance(s, SweepSpec)
            assert 201 <= len(s.grid()) <= 201 * 201

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

"""CLI tests: exit codes, output contracts, config round-trips."""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qutrit_heat import (
    CircuitParams,
    SweepAxis,
    SweepSpec,
    SystemConfig,
    TemperatureScenario,
    run_sweep,
)
from qutrit_heat.cli import DEFAULTS, _load_config, _parser, _sweep_config, _validate, main
from qutrit_heat.sweep import AXIS_NAMES, METRIC_COLUMNS, PRESETS, preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_keyvals(out: str) -> dict:
    vals = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        vals[key] = value
    return vals


class TestSteady:
    def test_equilibrium_point(self, capsys):
        code, out, err = run_cli(
            capsys, "steady", "--ta", "1.5", "--tb", "1.5", "--tc", "1.5"
        )
        assert code == 0
        vals = parse_keyvals(out)
        assert vals["regime"] == "none"
        assert abs(float(vals["j_a"])) < 1e-12
        assert abs(float(vals["p0"]) + float(vals["p1"]) + float(vals["p2"]) - 1.0) < 1e-12

    def test_refrigeration_point(self, capsys):
        code, out, err = run_cli(
            capsys, "steady", "--ta", "3.5", "--tb", "1.5", "--tc", "2.0"
        )
        assert code == 0
        assert parse_keyvals(out)["regime"] == "R_b"

    def test_negative_temperature_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--tb", "-1.0")
        assert code == 2
        assert "tb" in err

    @pytest.mark.parametrize("flag, value", [
        ("--ta", "nan"), ("--ta", "inf"), ("--ec", "nan"), ("--flux", "nan"),
        ("--lambda-off", "nan"), ("--q", "inf"), ("--ej", "inf"),
    ])
    def test_non_finite_number_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "steady", flag, value)
        assert code == 2 and out == ""
        assert flag[2:].replace("-", "_") in err

    def test_invalid_flux_exits_2_also_when_dumping(self, capsys):
        for extra in ((), ("--dump-config",)):
            code, out, err = run_cli(capsys, "steady", "--flux", "5", *extra)
            assert code == 2 and out == "" and "cos(phi/3)" in err

    def test_zero_temperature_solver_error_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "steady", "--ta", "0", "--tb", "0", "--tc", "0"
        )
        assert code == 3
        assert "strongly connected" in err

    def test_full_precision_output(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--ta", "2.0", "--tb", "1.5",
                               "--tc", "2.0")
        p0 = parse_keyvals(out)["p0"]
        assert len(p0.split(".")[1]) >= 15

    def test_human_output_rounds(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--ta", "2.0", "--tb", "1.5",
                               "--tc", "2.0", "--human")
        p0 = parse_keyvals(out)["p0"]
        assert len(p0) <= 9

    def test_merge_requires_equal_temperatures(self, capsys):
        code, _, err = run_cli(
            capsys, "steady", "--merge", "b,c", "--tb", "1.0", "--tc", "2.0"
        )
        assert code == 2 and "merge" in err

    @pytest.mark.parametrize("merge", ["a,a", "a,x"])
    def test_merge_requires_two_distinct_channels(self, capsys, merge):
        code, out, err = run_cli(capsys, "steady", "--merge", merge)
        assert (code, out) == (2, "") and err.startswith("error: merge: ")

    def test_merged_point_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "steady", "--merge", "b,c", "--ta", "2.0",
            "--tb", "1.0", "--tc", "1.0"
        )
        assert code == 0

    def test_low_q_advisory_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "steady", "--q", "8", "--ta", "2.0", "--tb", "1.5",
            "--tc", "1.0"
        )
        assert code == 0
        assert "advisory" in err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"eJ": 5.0}))
        code, _, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert code == 2 and "unknown key" in err

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ta": 1.0, "tb": 1.0, "tc": 1.0}))
        code, out, _ = run_cli(
            capsys, "steady", "--config", str(cfg), "--ta", "3.5",
            "--tb", "1.5", "--tc", "2.0"
        )
        assert code == 0
        assert parse_keyvals(out)["regime"] == "R_b"

    def test_dump_config_round_trips(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "steady", "--ta", "2.5", "--q", "250", "--dump-config"
        )
        assert code == 0
        dumped = tmp_path / "dumped.json"
        dumped.write_text(out)
        code, out2, _ = run_cli(
            capsys, "steady", "--config", str(dumped), "--dump-config"
        )
        assert code == 0
        assert json.loads(out) == json.loads(out2)

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--config", "/nonexistent.json")
        assert code == 2

    def test_config_file_that_is_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{\"ta\": 1.0,")
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert (code, out) == (2, "") and err.startswith("error: config: invalid JSON")


@pytest.mark.parametrize("flag, value", [
    ("--ej", "0"), ("--ej", "-1"), ("--ec", "-0.5"), ("--q", "0"), ("--q", "-1"),
    ("--lambda-res", "-1"), ("--lambda-off", "-1"), ("--omega-a", "0"), ("--omega-c", "-2"),
])
def test_out_of_range_system_value_exits_2(tmp_path, capsys, flag, value):
    # range checks live in CircuitParams and SystemConfig; the CLI maps them to exit 2
    out_csv = tmp_path / "x.csv"
    for command in (("steady",), ("verify",), ("sweep", "--preset", "fig5", "--out", str(out_csv))):
        for extra in ((), ("--dump-config",)):
            code, out, err = run_cli(capsys, *command, flag, value, *extra)
            assert (code, out) == (2, ""), (command, extra)
            assert err.startswith("error: ")
    assert not out_csv.exists()


class TestSweep:
    @pytest.mark.parametrize("name, digest", [
        ("fig3", "a273a58c8c5d2d25cc3b24f2322abe41d59a1b35e9a631222fff51903743c968"),
        ("fig7c", "3d643b92df41d583311bbcbe935a374b3edba1b0e4d15561e53fa7b2fb76d647"),
    ])
    def test_preset_csv_bytes_are_pinned(self, tmp_path, capsys, name, digest):
        out_csv = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", name, "--out", str(out_csv))
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest

    def test_unknown_preset_lists_names(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--preset", "fig99",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "fig2" in err and "fig7c" in err

    def test_missing_out_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig3")
        assert code == 2 and "out" in err

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2_before_the_sweep(self, tmp_path, capsys, monkeypatch, where):
        # a missing directory (FileNotFoundError) and a directory (IsADirectoryError)
        monkeypatch.setattr("qutrit_heat.cli.write_sweep",
                            lambda spec, destination: pytest.fail("sweep ran"))
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig3", "--out", str(tmp_path / where))
        assert (code, out) == (2, "") and err.startswith("error: out: cannot write")

    def test_failed_write_exits_2_and_may_leave_a_partial_file(self, tmp_path, capsys, monkeypatch):
        def full_disk(spec, destination):
            destination.write("base_temperature\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("qutrit_heat.cli.write_sweep", full_disk)
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig3", "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert err == f"error: out: cannot write {out_csv}: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
        assert out_csv.read_text() == "base_temperature\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_device_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig3", "--out", "/dev/full")
        assert (code, out) == (2, "") and err.startswith("error: out: cannot write /dev/full: ")

    def test_missing_spec_rejected(self, capsys, tmp_path):
        for extra in ((), ("--dump-config",)):
            code, out, err = run_cli(capsys, "sweep", "--out", str(tmp_path / "x.csv"), *extra)
            assert (code, out) == (2, "") and "preset" in err, extra

    def test_config_file_sweep_runs_and_is_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "sweep": {
                "axes": [
                    {"name": "hot_temperature", "start": 1.2, "stop": 3.0,
                     "count": 5},
                ],
                "metrics": ["R_ab", "C"],
                "scenario": {"hot": ["a"], "base": 0.9,
                             "hot_temperature": 2.0},
                "config": {"q": 100.0},
            }
        }))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        code, msg, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--out", str(out1))
        assert code == 0
        assert "rows 5" in msg
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("hot_temperature,p0")
        assert "R_ab" in header and "C" in header

    def test_flag_overrides_preset_config(self, tmp_path, capsys):
        # fig3 at a different quality factor: both runs succeed and differ
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({
            "sweep": {
                "axes": [{"name": "hot_temperature", "start": 2.0,
                          "stop": 4.0, "count": 3}],
                "scenario": {"hot": ["a"], "base": 1.5,
                             "overrides": {"b": 1.5, "c": 2.0}},
            }
        }))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(f1))
        assert code == 0
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--q", "1000", "--out", str(f2))
        assert code == 0
        assert f1.read_bytes() != f2.read_bytes()


    def test_negative_passive_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "sweep": {
                "axes": [{"name": "hot_temperature", "start": 1.2, "stop": 3.0,
                          "count": 3}],
                "metrics": ["R_ab"],
                "passive": -1.0,
            }
        }))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "passive" in err

    def test_preset_override_equal_to_default_applies(self):
        args = _parser().parse_args(
            ["sweep", "--preset", "fig4", "--lambda-off", "1", "--out", "x.csv"])
        cfg, explicit = _load_config(args)
        _validate(cfg)
        spec = _sweep_config(cfg, explicit)[1]
        assert spec.config.lambda_off == 1.0

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_dump_config_round_trips(self, tmp_path, capsys, name):
        # the dump names the grid that runs: the preset's resolved section
        code, out, _ = run_cli(capsys, "sweep", "--preset", name, "--dump-config")
        dump = json.loads(out)
        assert (code, dump["preset"]) == (0, None)
        assert dump["sweep"]["axes"] == PRESETS[name]["axes"]
        dumped = tmp_path / "dumped.json"
        dumped.write_text(out)
        args = _parser().parse_args(["sweep", "--config", str(dumped)])
        cfg, explicit = _load_config(args)
        _validate(cfg)
        assert repr(_sweep_config(cfg, explicit)[1]) == repr(preset(name))

    def test_dump_with_a_flag_writes_the_same_bytes(self, tmp_path, capsys):
        sections = json.dumps(PRESETS)
        argv = ("sweep", "--preset", "fig7c", "--q", "50")
        code, out, _ = run_cli(capsys, *argv, "--dump-config")
        assert code == 0 and json.loads(out)["sweep"]["config"]["q"] == 50.0
        dumped, direct, reloaded = tmp_path / "dumped.json", tmp_path / "a.csv", tmp_path / "b.csv"
        dumped.write_text(out)
        assert run_cli(capsys, *argv, "--out", str(direct))[0] == 0
        assert run_cli(capsys, "sweep", "--config", str(dumped), "--out", str(reloaded))[0] == 0
        assert direct.read_bytes() == reloaded.read_bytes()
        assert json.dumps(PRESETS) == sections  # the flag changed the run, not the preset


SMALL_SWEEP = {"axes": [{"name": "hot_temperature", "start": 1.2, "stop": 3.0, "count": 2}],
               "scenario": {"hot": ["a"], "base": 0.9}}


@pytest.mark.parametrize("command, data, named", [
    ("steady", {"ej": None}, "ej"),
    ("steady", {"ta": None}, "ta"),
    ("steady", {"q": True}, "q"),
    ("verify", {"jumps": False}, "jumps"),
    ("verify", {"seed": True}, "seed"),
    ("verify", {"seed": -1}, "seed"),
    ("steady", {"ej": 10**400}, "ej"),
    ("steady", {"preset": ["fig3"]}, "preset"),
    ("sweep", {"out": 5, "sweep": SMALL_SWEEP}, "out"),
    *[("sweep", {"sweep": dict(SMALL_SWEEP, config={key: value})}, key)
      for key, value in (("ta", 2.0), ("seed", 3), ("out", "y.csv"), ("preset", "fig2"),
                         ("jumps", 20000))],
    ("sweep", {"sweep": dict(SMALL_SWEEP, scenario={"hot": ["x"]})}, "'x'"),
    ("sweep", {"sweep": dict(SMALL_SWEEP, scenario={"overrides": {"d": 1.0}})}, "'d'"),
    ("sweep", {"sweep": dict(SMALL_SWEEP, scenario={"hot": ["b"]}, config={"merge": "b,c"})},
     "'b'"),
    ("sweep", {"sweep": dict(SMALL_SWEEP, scenario=[])}, "sweep"),
    ("sweep", {"sweep": dict(SMALL_SWEEP, axes=[
        {"name": "quality_factor", "start": 10.0, "stop": 100.0, "count": 2},
        {"name": "log10_quality_factor", "start": 1.0, "stop": 2.0, "count": 2}])},
     "log10_quality_factor"),
    ("sweep", {"sweep": {}}, "sweep.axes"),
    ("sweep", {"preset": ""}, "preset"),
    ("verify", {"jumps": 10}, "jumps"),
    # a preset and a sweep section: one of the two grids would be ignored
    ("sweep", {"preset": "fig3", "sweep": SMALL_SWEEP}, "preset"),
    ("sweep --preset fig3", {"sweep": SMALL_SWEEP}, "preset"),
])
def test_config_value_that_would_crash_or_be_ignored_exits_2(
        tmp_path, capsys, command, data, named):
    cfg, out_csv = tmp_path / "c.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps(data))
    out = () if "out" in data else ("--out", str(out_csv))
    for extra in ((), ("--dump-config",)):
        code, stdout, err = run_cli(capsys, *command.split(), "--config", str(cfg), *out, *extra)
        assert (code, stdout) == (2, ""), extra
        assert err.startswith("error: ") and named in err
    assert not out_csv.exists()


def small_sweep_axis(**changes) -> dict:
    return dict(SMALL_SWEEP, axes=[dict(SMALL_SWEEP["axes"][0], **changes)])


@pytest.mark.parametrize("command, section, field", [
    ("sweep", dict(SMALL_SWEEP, metrics=["R_ab"], passive=True), "sweep.passive"),
    ("sweep", small_sweep_axis(start=True), "sweep.axes[0].start"),
    ("sweep", small_sweep_axis(count=3.9), "sweep.axes[0].count"),
    ("sweep", small_sweep_axis(count=True), "sweep.axes[0].count"),
    ("sweep", small_sweep_axis(stop="2.0"), "sweep.axes[0].stop"),
    ("sweep", dict(SMALL_SWEEP, repin_resonators="false"), "sweep.repin_resonators"),
    ("sweep", dict(SMALL_SWEEP, scenario={"hot": "a"}), "sweep.scenario.hot"),
    ("sweep", dict(SMALL_SWEEP, metrics="C"), "sweep.metrics"),
    ("sweep", dict(SMALL_SWEEP, scenario={"hot": ["a"], "overrides": {"c": True}}),
     "sweep.scenario.overrides.c"),
    ("sweep", dict(SMALL_SWEEP, scenario={"hot": ["a"], "hot_temperature": False}),
     "sweep.scenario.hot_temperature"),
    ("steady", [], "sweep"),  # the section is an object whichever command reads the file
    # misspelt keys at each level, which would otherwise be dropped unread
    ("sweep", {"axes": [dict(SMALL_SWEEP["axes"][0], cuont=50)],
               "scenario": {"hot": ["a"], "base": 0.9, "hott": 3}, "metric": ["C"]}, "sweep"),
    ("sweep", small_sweep_axis(cuont=50), "sweep.axes[0]"),
    ("sweep", dict(SMALL_SWEEP, scenario={"hot": ["a"], "hott": 3}), "sweep.scenario"),
    ("sweep", dict(SMALL_SWEEP, metrics=["C", "C"]), "sweep"),  # duplicate CSV columns
])
def test_sweep_section_follows_the_top_level_value_rule(tmp_path, capsys, command, section, field):
    # float(), int(), bool() or frozenset() would make each of these run
    cfg, out_csv = tmp_path / "c.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps({"sweep": section}))
    for extra in ((), ("--dump-config",)):
        code, stdout, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out_csv), *extra)
        assert (code, stdout) == (2, ""), extra
        assert err.startswith(f"error: {field}: "), err
    assert not out_csv.exists()


def advisories(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("advisory: ")]


def test_sweep_prints_the_advisories_of_its_fixed_config(tmp_path, capsys):
    steady_err = run_cli(capsys, "steady", "--q", "5")[2]
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig3", "--q", "5",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert len(advisories(err)) == 3 and advisories(err) == advisories(steady_err)
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig3", "--out", str(tmp_path / "x.csv"))
    assert (code, advisories(err)) == (0, [])


def test_sweep_prints_the_advisories_of_its_q_axis(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sweep": {
        "axes": [{"name": "quality_factor", "start": 5.0, "stop": 50.0, "count": 2}],
        "scenario": {"hot": ["a"], "base": 0.9}}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a raw warning would raise here
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 0
    # the linewidths at the lowest Q, 5, not at the fixed config's Q = 100
    assert advisories(err) == advisories(run_cli(capsys, "steady", "--q", "5")[2])
    assert "Warning" not in err and "run_sweep" not in err


def test_flux_sweep_checks_the_linewidths_at_its_smallest_flux(tmp_path, capsys):
    # fig7c's axis reaches phi = 0, where channel c's re-pinned linewidth at Q = 25
    # exceeds the gap; at the preset's own phi = pi/2 it does not
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig7c", "--q", "25",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert advisories(err) == advisories(run_cli(capsys, "steady", "--q", "25", "--flux", "0")[2]) == [
        "advisory: channel c: linewidth omega_l/Q = 0.3932 exceeds the omega21 - omega32 gap 0.375; "
        "levels above the qutrit would be populated"]
    assert advisories(run_cli(capsys, "steady", "--q", "25")[2]) == []


def test_sweep_prints_the_advisories_the_library_warns(tmp_path, capsys):
    # a fixed low Q without a Q axis: the CLI prints what run_sweep warns
    section = {"axes": [{"name": "base_temperature", "start": 0.5, "stop": 2.0, "count": 4},
                        {"name": "hot_temperature", "start": 0.5, "stop": 2.0, "count": 4}],
               "scenario": {"hot": ["a"], "base": 0.9, "hot_temperature": 2.0},
               "metrics": ["R_ab", "C"], "config": {"q": 4.0}}
    library = SweepSpec(
        config=SystemConfig(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2), q=4.0),
        scenario=TemperatureScenario(hot=frozenset({"a"}), base=0.9, hot_temperature=2.0),
        axes=tuple(SweepAxis(**ax) for ax in section["axes"]), metrics=("R_ab", "C"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(library)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sweep": section}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 0 and len(caught) == 3
    assert advisories(err) == [f"advisory: {w.message}" for w in caught]


#: Rates near the float range: the populations pass, the heat currents are NaN.
NAN_CURRENT_POINT = ("--ta", "1e+300", "--q", "1e+300", "--lambda-res", "0",
                     "--lambda-off", "1e+300", "--ej", "1e+300", "--ec", "1e-300")


@pytest.mark.parametrize("argv, code", [
    (("steady", "--omega-c", "1e-300"), 0),  # an overflowing detuning filters to exactly 0
    (("steady", "--ta", "1e300", "--q", "1e-300"), 3),  # rates beyond the float range
    (("steady", "--ec", "0"), 3),  # no positive transition frequency
    (("verify", "--ta", "1e300", "--tb", "1e300", "--jumps", "10000"), 4),  # sigma_j is inf
    (("steady", *NAN_CURRENT_POINT), 3),
    (("verify", *NAN_CURRENT_POINT, "--jumps", "10000"), 3),
    # exit rates near the float's least: occupation times beyond its range
    (("verify", "--lambda-res", "0", "--lambda-off", "1e-300", "--jumps", "10000"), 3),
    (("verify", "--lambda-res", "0", "--lambda-off", "1.1125369292536007e-308",
      "--jumps", "10000"), 3),
])
def test_extreme_values_raise_no_floating_point_warning(capsys, argv, code):
    # the suite turns every RuntimeWarning into an error
    assert run_cli(capsys, *argv)[0] == code


def test_preset_scenario_bath_missing_from_merged_config_exits_2(tmp_path, capsys):
    # fig3 overrides baths b and c, which --merge b,c turns into one bath bc
    out_csv = tmp_path / "x.csv"
    for extra in ((), ("--dump-config",)):
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig3", "--merge", "b,c",
                                 "--out", str(out_csv), *extra)
        assert (code, out) == (2, "") and "'b'" in err
    assert not out_csv.exists()


def test_sweep_ignores_the_merged_channels_temperatures(tmp_path, capsys):
    # a sweep takes its temperatures from its section, so ta, tb and tc may
    # differ across a merged pair; steady and verify, which read them, exit 2
    for extra in ((), ("--dump-config",)):
        outs = [tmp_path / "plain.csv", tmp_path / "tb.csv"]
        for out_csv, temps in zip(outs, ((), ("--tb", "2"))):
            code, _, err = run_cli(capsys, "sweep", "--preset", "fig7c", "--merge", "b,c", *temps,
                                   "--out", str(out_csv), *extra)
            assert (code, err) == (0, "")
        if not extra:
            assert outs[0].read_bytes() == outs[1].read_bytes()
        for command in ("steady", "verify"):
            code, out, err = run_cli(capsys, command, "--merge", "b,c", "--tb", "2", *extra)
            assert (code, out) == (2, "") and err.startswith("error: merge: channels b,c")


class TestVerify:
    def test_equilibrium_verifies(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--ta", "2.0", "--tb", "2.0", "--tc", "2.0",
            "--jumps", "50000", "--seed", "3",
        )
        assert code == 0
        assert "max_z" in out

    def test_too_few_jumps_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--jumps", "10", "--ta", "2.0", "--tb", "2.0",
            "--tc", "2.0",
        )
        assert code == 2 and "jumps" in err

    def test_deterministic_given_seed(self, capsys):
        args = ("verify", "--ta", "2.5", "--tb", "1.5", "--tc", "2.0",
                "--jumps", "20000", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_unvisited_state_gives_finite_z(self, capsys):
        # the chain all but alternates 0 <-> 1 and never visits 2, so every
        # batch spread is 0 or a few ulps; sigma is at least one count's worth
        code, out, _ = run_cli(capsys, "verify", "--ta", "0.3", "--tb", "0.3", "--tc", "0.3",
                               "--jumps", "1000000", "--seed", "11")
        rows = [line.split() for line in out.splitlines()[1:-1]]
        assert code == 0 and len(rows) == 6
        assert all(float(sigma) > 0.0 and math.isfinite(float(z)) for *_, sigma, z in rows)


@pytest.mark.parametrize("command", ["steady", "verify"])
def test_circuit_note_is_an_advisory_line(command):
    # the e_j/e_c < 5 note of SystemConfig.advisories, as sweep prints it, not a raw UserWarning
    argv = [sys.executable, "-m", "qutrit_heat.cli", command, "--ej", "3", "--ec", "1",
            "--jumps", "10000"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("advisory: e_j/e_c = 3.00"), proc.stderr
    assert "UserWarning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("steady", "--dump-config"),
    ("verify", "--jumps", "10000", "--dump-config"),
    ("sweep", "--preset", "fig3", "--dump-config"),
    ("sweep", "--preset", "fig7c", "--q", "5", "--dump-config"),
    ("sweep", "--preset", "fig3", "--out", "missing/x.csv"),
    ("sweep", "--preset", "fig3", "--q", "5", "--out", "missing/x.csv"),
])
def test_no_advisory_without_a_run(tmp_path, monkeypatch, capsys, argv):
    # at e_j/e_c = 3 every run prints the note (test_circuit_note_is_an_advisory_line),
    # but a dump or an --out that cannot be opened runs nothing
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--ej", "3", "--ec", "1")
    assert code == (0 if "--dump-config" in argv else 2)
    assert advisories(err) == [], err
    if code == 2:
        assert out == "" and err.startswith("error: out: cannot write missing/x.csv: "), err


README_POINT = ("--ej", "5", "--ec", "0.5", "--flux", "1.5708", "--q", "100",
                "--ta", "3.5", "--tb", "1.5", "--tc", "2.0")


@pytest.mark.parametrize("argv, stdout", [
    (("steady", *README_POINT),
     "p0 0.78800224410985298\np1 0.20255519594491911\np2 0.0094425599452277742\n"
     "j_a 0.0012398698018600697\nj_b 0.00040374034316177876\nj_c -0.0016436101450218606\n"
     "regime R_b\nresidual 9.540979117872439e-18\n"),
    (("steady", *README_POINT, "--human"),
     "p0 0.788002\np1 0.202555\np2 0.00944256\nj_a 0.00123987\nj_b 0.00040374\n"
     "j_c -0.00164361\nregime R_b\nresidual 9.54098e-18\n"),
    (("verify", "--ta", "3.0", "--tb", "1.5", "--tc", "2.0", "--jumps", "20000", "--seed", "11"),
     "quantity exact estimate sigma z\n"
     "p0 0.82149277418120692 0.82157265448214156 0.00034796718797790443 0.23\n"
     "p1 0.16946862315380745 0.1693064141316796 0.00039637369698795834 0.41\n"
     "p2 0.0090386026649857034 0.0091209313861791846 0.00024513593194485457 0.34\n"
     "j_a 0.00047930756011228782 0.0006746931576055113 0.0002894314368328578 0.68\n"
     "j_b -0.00010586385678108457 -3.2571072493670741e-06 0.00023544118536775204 0.44\n"
     "j_c -0.00037344370333118214 -0.00067143605035614447 0.00050973785891224679 0.58\n"
     "max_z 0.68\n"),
    (("verify", "--merge", "b,c", "--ta", "1.3", "--tb", "1.1", "--tc", "1.1",
      "--jumps", "20000", "--seed", "5"),
     "quantity exact estimate sigma z\n"
     "p0 0.97408965948179183 0.97402899823277778 9.8996747457340934e-05 0.61\n"
     "p1 0.025576452203074772 0.025615359532740203 3.4475468376149881e-05 1.13\n"
     "p2 0.00033388831513343943 0.00035564223448213687 1.3848392674668208e-05 1.57\n"
     "j_a 8.8132749016261235e-05 0.00010894720795190344 2.1332919286250138e-05 0.98\n"
     "j_b 4.0607364744994359e-05 1.6882039114613277e-05 1.8749997792997053e-05 1.27\n"
     "j_c -0.00012874011376125795 -0.00012460512113447283 3.3021872577928682e-05 0.13\n"
     "max_z 1.57\n"),
    (("verify", "--ta", "3.0", "--tb", "1.5", "--tc", "2.0", "--jumps", "1000000", "--seed", "11"),
     "quantity exact estimate sigma z\n"
     "p0 0.82149277418120692 0.82154692075014457 5.2100906922392409e-05 1.04\n"
     "p1 0.16946862315380745 0.16940583715023319 5.4655189782659651e-05 1.15\n"
     "p2 0.0090386026649857034 0.0090472420996221357 3.2191350286302891e-05 0.27\n"
     "j_a 0.00047930756011228782 0.000457245906150682 3.7859331965273431e-05 0.58\n"
     "j_b -0.00010586385678108457 -0.00011101093022775071 3.4634084682176094e-05 0.15\n"
     "j_c -0.00037344370333118214 -0.0003462349759229315 7.0667110582789974e-05 0.39\n"
     "max_z 1.15\n"),
    (("verify", "--merge", "b,c", "--tb", "2", "--tc", "2", "--q", "20", "--lambda-off", "0.3",
      "--jumps", "50000", "--seed", "11"),
     "quantity exact estimate sigma z\n"
     "p0 0.97593351774646597 0.97585062900724928 0.00010169123015631244 0.82\n"
     "p1 0.016642501747155529 0.016722950837049236 0.00011309437070717931 0.71\n"
     "p2 0.0074239805063785564 0.0074264201557015285 2.973128383327241e-05 0.08\n"
     "j_a -0.018278498615645546 -0.018340458546400512 0.00028573681117555661 0.22\n"
     "j_b -0.0071363637325306409 -0.0072255549183145654 0.00024292864354685659 0.37\n"
     "j_c 0.025414862348176189 0.025562743560651292 0.00043585671896421518 0.34\n"
     "max_z 0.82\n"),
])
def test_stdout_is_pinned(capsys, argv, stdout):
    # full-precision output of the README steady and verify points and three
    # more seeded verify runs, one a merged bath at Q = 20 with lambda_off = 0.3;
    # the README's 10**6 jumps fill 50 batches of 20,000
    assert run_cli(capsys, *argv)[:2] == (0, stdout)


# Config-file values of every kind: in and out of range, non-finite, beyond
# any float, of the wrong type, and absent. A key takes a plausible value
# seven times in eight, so that many drawn configs get past validation.
ODD = st.sampled_from([None, True, False, "x", "a,a", [], {}, 0, -1, math.nan, math.inf,
                       -math.inf, 1e300, -1e300, 1e-300, 10**400])


def mostly(plausible, odd=ODD):
    return st.sampled_from([plausible] * 7 + [odd]).flatmap(lambda strategy: strategy)


SYSTEM = {
    "ej": mostly(st.floats(3.0, 10.0)), "ec": mostly(st.floats(0.2, 1.0)),
    "flux": mostly(st.floats(-5.0, 5.0)), "q": mostly(st.floats(5.0, 1e4)),
    "lambda_res": mostly(st.floats(0.0, 2.0)), "lambda_off": mostly(st.floats(0.0, 2.0)),
    "merge": mostly(st.sampled_from(["b,c", "a,b", "c,a"])),
    **{f"omega_{c}": mostly(st.floats(0.5, 10.0)) for c in "abc"},
}
TEMPERATURE = mostly(st.floats(0.0, 4.0))
BATH = st.sampled_from(["a", "b", "c", "ab", "ac", "bc", "x"])
AXIS = st.fixed_dictionaries({
    "name": st.sampled_from(AXIS_NAMES + ("voltage",)),
    "start": TEMPERATURE, "stop": TEMPERATURE,
    "count": mostly(st.sampled_from([2, 3])),
})
SWEEP_SECTION = st.fixed_dictionaries({"axes": mostly(st.lists(AXIS, min_size=1, max_size=3))},
                                      optional={
    "scenario": mostly(st.fixed_dictionaries({}, optional={
        "hot": mostly(st.lists(BATH, max_size=2)),
        "base": TEMPERATURE, "hot_temperature": TEMPERATURE,
        "overrides": mostly(st.dictionaries(BATH, TEMPERATURE, max_size=2))})),
    "metrics": mostly(st.lists(st.sampled_from(METRIC_COLUMNS + ("currents", "Z")), max_size=3)),
    "passive": mostly(st.sampled_from(["base", "mean", "median", 1.5])),
    "repin_resonators": mostly(st.booleans()),
    "config": mostly(st.fixed_dictionaries({}, optional={
        **SYSTEM, "ta": TEMPERATURE, "seed": st.just(3), "preset": st.just("fig3")})),
})
CONFIG_FILE = mostly(
    st.fixed_dictionaries(
        # every config object draws jumps, so verify never runs the default 10**6
        {"jumps": mostly(st.sampled_from([10_000, 10]))}, optional={
            **SYSTEM, **{f"t{c}": TEMPERATURE for c in "abc"},
            "seed": mostly(st.integers(0, 2**70)),
            "preset": mostly(st.sampled_from(["fig3", "fig99"])),
            "sweep": mostly(SWEEP_SECTION),
        }).map(json.dumps),
    ODD.filter(lambda v: v != {}).map(json.dumps)
    | st.sampled_from(["{", "", "\udcff", '{"eJ": 5.0}']),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(["steady", "sweep", "verify"]), text=CONFIG_FILE,
       dump=st.booleans())
def test_fuzzed_config_files_never_raise(tmp_path, capsys, command, text, dump):
    assert set(SYSTEM) < set(DEFAULTS)
    path = tmp_path / "c.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "x.csv")]
    code, out, _ = run_cli(capsys, *argv, *["--dump-config"] * dump)
    # 4 is verify's statistical mismatch, a result rather than a failure
    assert code in ({0, 2, 3, 4} if command == "verify" and not dump else {0, 2, 3})
    # the dump makes every check of the run but those of --out, which is writable here
    assert (run_cli(capsys, *argv, *["--dump-config"] * (not dump))[0] == 2) == (code == 2)
    if code == 0 and dump:
        path.write_text(out)
        assert run_cli(capsys, *argv, "--dump-config")[:2] == (0, out)


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool is imported by a run_sweep with workers > 1, not by every command
    code = "import sys, qutrit_heat.cli; sys.exit('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_run_imports_nothing_its_dump_config_did_not(tmp_path):
    # A lazy import inside a run counts in the benchmark's post-setup time.
    # No command loads numpy.random: verify's picks are its own stream.
    (tmp_path / "sweep.json").write_text(json.dumps({"sweep": {
        "axes": [{"name": "hot_temperature", "start": 1.0, "stop": 2.0, "count": 3}],
        "metrics": ["R_ab", "C"]}}))
    cases = [["sweep", "--preset", "fig3", "--out", str(tmp_path / "fig3.csv")],
             ["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "c.csv")],
             ["steady"], ["verify", "--jumps", "20000"]]
    code = f"""
import contextlib, io, json, sys
from qutrit_heat.cli import main
new = {{}}
for argv in {cases!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--dump-config"]) == 0
        before = set(sys.modules)
        assert main(argv) == 0
        assert "numpy.random" not in sys.modules, argv
    new[" ".join(argv[:2])] = sorted(set(sys.modules) - before)
print(json.dumps(new))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {" ".join(argv[:2]): [] for argv in cases}


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_heat.cli", "steady", "--ta", "1.0",
         "--tb", "1.0", "--tc", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "regime none" in proc.stdout

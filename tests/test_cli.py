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

from qutrit_heat.cli import DEFAULTS, _load_config, _parser, _sweep_config, _validate, main
from qutrit_heat.sweep import AXIS_NAMES, METRIC_COLUMNS


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
        spec = _sweep_config(_validate(cfg), explicit)[1]
        assert spec.config.lambda_off == 1.0

    def test_preset_dump_config_round_trips(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig4", "--dump-config")
        assert code == 0 and json.loads(out)["lambda_off"] == 0.0
        dumped = tmp_path / "dumped.json"
        dumped.write_text(out)
        args = _parser().parse_args(["sweep", "--config", str(dumped)])
        cfg, explicit = _load_config(args)
        spec = _sweep_config(_validate(cfg), explicit)[1]
        assert spec.config.lambda_off == 0.0


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
])
def test_config_value_that_would_crash_or_be_ignored_exits_2(
        tmp_path, capsys, command, data, named):
    cfg, out_csv = tmp_path / "c.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps(data))
    out = () if "out" in data else ("--out", str(out_csv))
    for extra in ((), ("--dump-config",)):
        code, stdout, err = run_cli(capsys, command, "--config", str(cfg), *out, *extra)
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
    # the e_j/e_c < 5 note of CircuitParams, as sweep prints it, not a raw UserWarning
    argv = [sys.executable, "-m", "qutrit_heat.cli", command, "--ej", "3", "--ec", "1",
            "--jumps", "10000"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("advisory: e_j/e_c = 3.00"), proc.stderr
    assert "UserWarning" not in proc.stderr


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
     "p0 0.82149277418120692 0.82127272069222612 0.00040173367255862135 0.55\n"
     "p1 0.16946862315380745 0.16956620194192137 0.00040183282974135567 0.24\n"
     "p2 0.0090386026649857034 0.0091610773658529748 0.00024356340864183405 0.50\n"
     "j_a 0.00047930756011228782 0.00071227182233778359 0.00028046435094344663 0.83\n"
     "j_b -0.00010586385678108457 1.0121704469798515e-06 0.00022841122513904161 0.47\n"
     "j_c -0.00037344370333118214 -0.00071328399278476346 0.00047488741592951263 0.72\n"
     "max_z 0.83\n"),
    (("verify", "--merge", "b,c", "--ta", "1.3", "--tb", "1.1", "--tc", "1.1",
      "--jumps", "20000", "--seed", "5"),
     "quantity exact estimate sigma z\n"
     "p0 0.97408965948179183 0.97410861420487138 9.8743904126190703e-05 0.19\n"
     "p1 0.025576452203074772 0.025568205041655124 3.2995447415503536e-05 0.25\n"
     "p2 0.00033388831513343943 0.00032318075347339317 2.0153582736409977e-05 0.53\n"
     "j_a 8.8132749016261235e-05 6.4422079894587976e-05 2.0619746110914815e-05 1.15\n"
     "j_b 4.0607364744994359e-05 3.284840457498485e-05 1.8490631795129957e-05 0.42\n"
     "j_c -0.00012874011376125795 -9.614644858297671e-05 3.3394208677927652e-05 0.98\n"
     "max_z 1.15\n"),
    (("verify", "--ta", "3.0", "--tb", "1.5", "--tc", "2.0", "--jumps", "1000000", "--seed", "11"),
     "quantity exact estimate sigma z\n"
     "p0 0.82149277418120692 0.82149550553482797 4.8050806302337332e-05 0.06\n"
     "p1 0.16946862315380745 0.16943307316286602 5.4646682337828307e-05 0.65\n"
     "p2 0.0090386026649857034 0.0090714213023058085 3.6043746739969427e-05 0.91\n"
     "j_a 0.00047930756011228782 0.00046770452501644898 3.701926280271187e-05 0.31\n"
     "j_b -0.00010586385678108457 -0.00011700791477540327 2.9651044224457329e-05 0.38\n"
     "j_c -0.00037344370333118214 -0.00035048160852785764 6.3813867744763557e-05 0.36\n"
     "max_z 0.91\n"),
    (("verify", "--merge", "b,c", "--tb", "2", "--tc", "2", "--q", "20", "--lambda-off", "0.3",
      "--jumps", "50000", "--seed", "11"),
     "quantity exact estimate sigma z\n"
     "p0 0.97593351774646597 0.97599121142553147 8.9031854127590468e-05 0.65\n"
     "p1 0.016642501747155529 0.016584672110170756 9.9099790342889896e-05 0.58\n"
     "p2 0.0074239805063785564 0.007424116464297777 3.9051473250883654e-05 0.00\n"
     "j_a -0.018278498615645546 -0.018014904064085707 0.00022959274205223374 1.15\n"
     "j_b -0.0071363637325306409 -0.0074803295705274846 0.00023912908915154995 1.44\n"
     "j_c 0.025414862348176189 0.025488967388781692 0.00037371809733944319 0.20\n"
     "max_z 1.44\n"),
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


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_heat.cli", "steady", "--ta", "1.0",
         "--tb", "1.0", "--tc", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "regime none" in proc.stdout

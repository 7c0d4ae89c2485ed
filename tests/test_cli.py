"""CLI tests: exit codes, output contracts, config round-trips."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from qutrit_heat.cli import _load_config, _parser, _sweep_spec_from_config, _validate, main


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


class TestSweep:
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

    def test_missing_spec_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "preset" in err

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
        spec = _sweep_spec_from_config(_validate(cfg), explicit)
        assert spec.config.lambda_off == 1.0

    def test_preset_dump_config_round_trips(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig4", "--dump-config")
        assert code == 0 and json.loads(out)["lambda_off"] == 0.0
        dumped = tmp_path / "dumped.json"
        dumped.write_text(out)
        args = _parser().parse_args(["sweep", "--config", str(dumped)])
        cfg, explicit = _load_config(args)
        spec = _sweep_spec_from_config(_validate(cfg), explicit)
        assert spec.config.lambda_off == 0.0


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


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_heat.cli", "steady", "--ta", "1.0",
         "--tb", "1.0", "--tc", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "regime none" in proc.stdout

"""Self-tests of the benchmark: traced counts, output checks, determinism.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qutrit_heat.sweep  # noqa: E402
import qutrit_heat.transport  # noqa: E402
from qutrit_heat import cli  # noqa: E402

import run  # noqa: E402
from check import check_sweep_csv, check_verify  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402


def sweep_csv(tmp_path: Path, workload) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    out = tmp_path / "out.csv"
    assert cli.main(workload.argv(str(config), str(out))) == 0
    return out.read_text()


def test_traced_counts_match_the_analytic_ones(tmp_path):
    workload = make("rect_map", 3, count=4)
    points = workload.rows()
    tracer = Tracer()
    with tracer.installed():
        sweep_csv(tmp_path, workload)
    m = tracer.metrics(wall_s=1.0)
    assert tracer.missing == []
    # Base scenario plus the three single-hot scenarios of R_ab, R_ac, R_bc.
    assert m["transport.solve_temperatures.calls"] == 4 * points
    assert m["sweep.solves_per_point"] == 4
    assert m["circuit.derive_spectrum.calls"] == 1
    assert m["steady.solve_steady.calls"] == m["rates.assemble_rate_matrix.calls"]
    assert m["rates.assemble_rate_matrix.calls"] == 4 * points
    assert m["transport.SystemConfig.channels.calls"] == 4 * points
    assert m["transport.heat_currents.calls"] == 4 * points
    # lambda_off > 0: every channel drives all three transitions.
    assert m["rates.bose_occupation.calls"] == 9 * 4 * points
    assert m["transport.classify_regime.calls"] == points
    assert m["transport.rectification_from_currents.calls"] == 3 * points
    # The diagonal (base == hot) is 0/0 for every R and repeats solves.
    assert m["transport.rectification_from_currents.raised"] == 3 * 4
    assert m["sweep.rows_undefined"] == 4
    assert m["transport.solve_temperatures.repeat_frac"] > 0.25
    assert m["sweep.write_csv.bytes"] == (tmp_path / "out.csv").stat().st_size
    assert all(m[name] > 0 for name in ("cli.main.self_frac", "sweep.run_sweep.self_frac"))
    assert m["steady.gillespie_estimate.self_frac"] == 0
    # Removing the tracer restores every binding it made.
    assert qutrit_heat.sweep.solve_temperatures is qutrit_heat.transport.solve_temperatures
    assert qutrit_heat.sweep.solve_temperatures.__name__ == "solve_temperatures"


def test_regime_map_repeats_no_solve(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        sweep_csv(tmp_path, make("regime_map", 3, count=4))
    m = tracer.metrics(wall_s=1.0)
    assert m["sweep.solves_per_point"] == 1
    assert m["transport.solve_temperatures.repeat_frac"] == 0


def test_flux_sweep_flags_are_expected_output(tmp_path):
    workload = make("circ_flux_q", 3, count=12)
    text = sweep_csv(tmp_path, workload)
    assert "error:InvalidFlux" in text
    report = check_sweep_csv(workload, text)
    assert (report.attempted, report.failed) == (144, 0)


def _corrupt(column: str, value: str) -> str:
    if column == "regime":
        return "none" if value != "none" else "R_a"
    if column == "flags":
        return "undefined:R_ab"
    return repr(float(value) * (1 + 1e-6) + 1e-6)


@pytest.mark.parametrize("column", ["p0", "j_b", "R_ac", "regime", "flags"])
def test_one_corrupted_cell_fails_its_row(tmp_path, column):
    workload = make("rect_map", 3, count=5)
    text = sweep_csv(tmp_path, workload)
    assert check_sweep_csv(workload, text).failed == 0
    lines = text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    cells = lines[2].rstrip("\n").split(",")  # row 1 is off the diagonal
    k = header.index(column)
    cells[k] = _corrupt(column, cells[k])
    lines[2] = ",".join(cells) + "\n"
    report = check_sweep_csv(workload, "".join(lines))
    assert (report.attempted, report.failed) == (25, 1)


def test_missing_rows_and_wrong_order_fail(tmp_path):
    workload = make("rect_map", 3, count=3)
    assert check_sweep_csv(workload, "").failed == 9
    lines = sweep_csv(tmp_path, workload).splitlines(keepends=True)
    assert check_sweep_csv(workload, "".join(lines[:-1])).failed == 1
    lines[1], lines[2] = lines[2], lines[1]
    assert check_sweep_csv(workload, "".join(lines)).failed == 2


def test_same_seed_gives_the_same_csv(tmp_path):
    digests = {hashlib.sha256(sweep_csv(tmp_path, make("circ_flux_q", 7, count=6))
                              .encode()).hexdigest() for _ in range(2)}
    assert len(digests) == 1
    assert make("circ_flux_q", 7).config == make("circ_flux_q", 7).config
    assert make("circ_flux_q", 7).config != make("circ_flux_q", 8).config


def test_verify_check(tmp_path, capsys):
    workload = make("oracle", 5, count=10_000)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    code = cli.main(workload.argv(str(config), ""))
    text = capsys.readouterr().out
    assert check_verify(workload, text, code) == (True, "")
    assert not check_verify(workload, text, 3)[0]
    lines = text.splitlines()
    name, exact, *rest = lines[1].split()
    lines[1] = " ".join([name, repr(float(exact) * 1.001), *rest])
    assert not check_verify(workload, "\n".join(lines), code)[0]


def test_measure_spawns_the_cli_and_checks_every_invocation(tmp_path):
    metrics, report, output, record = run.measure(make("rect_map", 2, count=12), 0.0, tmp_path)
    assert record["invocations"] == run.MIN_INVOCATIONS
    assert (report.attempted, report.failed) == (3 * 144, 0)
    assert all(value > 0 for value in metrics.values())
    assert set(metrics) == {name for name, _, _ in run.END_TO_END}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)

"""qutrit-heat benchmark: CLI workloads with checked outputs.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload rect_map --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` spawns the CLI once per invocation, one child at a time, for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs the same
invocation in-process under the layer tracer (tracing.py) and reports the
per-layer metrics. Every output is checked (check.py). The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: The installed console script `qutrit-heat`, run from the checkout's source.
ENTRY = "import sys; from qutrit_heat.cli import run; sys.argv[0] = 'qutrit-heat'; run()"
MIN_INVOCATIONS = 3

#: Calibration loop: its work, and its time on an idle core of the reference
#: machine (2-vCPU x86-64 VM, Python 3.11). Reported times are rescaled to
#: that speed; see README.md, "Host speed drift".
CALIBRATION_N = 300_000
REFERENCE_LOOP_S = 0.0163


@dataclass
class Spawn:
    wall_s: float
    rss_mb: float
    code: int


def spawn(argv: list[str], out: Path) -> Spawn:
    """Run one child to completion; wall time is spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-c", ENTRY, *args]


def _write_inputs(workload, work: Path) -> tuple[Path, Path]:
    config = work / "config.json"
    config.write_text(json.dumps(workload.config, indent=1))
    return config, work / "out.csv"


def _output(workload, csv: Path, stdout: Path, blobs: dict[str, bytes]) -> str:
    """sha256 of an invocation's output; its bytes go to `blobs` once."""
    path = csv if workload.command == "sweep" else stdout
    data = path.read_bytes() if path.exists() else b""
    digest = hashlib.sha256(data).hexdigest()
    blobs.setdefault(digest, data)
    return digest


def check_outputs(workload, outputs: list[tuple[str, int]], blobs: dict[str, bytes]):
    """Report over every invocation; identical outputs are checked once.

    `outputs` holds (sha256, exit code) per invocation and `blobs` the bytes
    of each distinct sha256. Output must not change between repeats of one
    input: a sweep row that differs from the first invocation's fails, and
    so does a verify run.
    """
    from check import Report, check_sweep_csv, check_verify

    report = Report()
    verdicts: dict[tuple[str, int], Report] = {}
    first = blobs[outputs[0][0]]
    for digest, code in outputs:
        if (digest, code) not in verdicts:
            data = blobs[digest]
            one = Report()
            if workload.command == "verify":
                ok, reason = check_verify(workload, data.decode(), code)
                one.add(ok and data == first, reason or "output differs between repeats")
            elif code != 0:
                for _ in range(workload.rows()):
                    one.add(False, f"exit code {code}")
            elif data == first:
                one = check_sweep_csv(workload, data.decode())
            else:
                lines, base = data.splitlines()[1:], first.splitlines()[1:]
                for k in range(workload.rows()):
                    same = k < min(len(lines), len(base)) and lines[k] == base[k]
                    one.add(same, f"row {k} differs between repeats")
            verdicts[digest, code] = one
        report.merge(verdicts[digest, code])
    return report


def _loop_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_N):
        total += i * i
    return time.perf_counter() - start


def loop_time() -> float:
    """Median time of the fixed pure-Python calibration loop, now."""
    return statistics.median(_loop_once() for _ in range(3))


def measure(workload, seconds: float, work: Path):
    """End-to-end metrics from repeated CLI invocations, untraced.

    Each iteration spawns one --dump-config child (set-up) and one full
    invocation, between two timings of the calibration loop on the same
    pinned core; both times are rescaled by REFERENCE_LOOP_S over the mean
    loop time around them, which removes the host's speed drift.
    """
    config, csv = _write_inputs(workload, work)
    argv = cli(*workload.argv(str(config), str(csv)))
    setup_argv = argv + ["--dump-config"]
    stdout = work / "stdout.txt"
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})  # children inherit the core
    try:
        spawn(setup_argv, stdout)  # unmeasured: byte-compiles the package once
        setups, runs, scales, outputs, blobs = [], [], [], [], {}
        before = loop_time()
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_INVOCATIONS or time.perf_counter() < deadline:
            setup = spawn(setup_argv, stdout)
            if setup.code != 0:
                raise RuntimeError(f"--dump-config exited {setup.code}: "
                                   + stdout.with_suffix(".err").read_text())
            csv.unlink(missing_ok=True)
            runs.append(spawn(argv, stdout))
            outputs.append((_output(workload, csv, stdout, blobs), runs[-1].code))
            after = loop_time()
            scales.append(REFERENCE_LOOP_S / (0.5 * (before + after)))
            setups.append(setup.wall_s)
            before = after
    finally:
        os.sched_setaffinity(0, allowed)

    setup_s = statistics.median(s * k for s, k in zip(setups, scales))
    walls = [r.wall_s * k for r, k in zip(runs, scales)]
    items = workload.rows() or workload.jumps_simulated()
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "items_per_s": statistics.median(items / (w - setup_s) for w in walls),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    record = {
        "invocations": len(runs),
        "cpu": max(allowed),
        "raw_wall_s": statistics.median(r.wall_s for r in runs),
        "raw_setup_s": statistics.median(setups),
        "speed_scale": statistics.median(scales),
        "exit_codes": sorted({r.code for r in runs}),
        "verify_exit4": sum(r.code == 4 for r in runs) if workload.command == "verify" else 0,
    }
    return metrics, check_outputs(workload, outputs, blobs), outputs[0][0], record


def trace(workload, seconds: float, work: Path):
    """Per-layer metrics from the in-process traced run (tracing.py)."""
    from workloads import make

    config, csv = _write_inputs(workload, work)
    argv_path = work / "argv.json"
    argv_path.write_text(json.dumps(workload.argv(str(config), str(csv))))
    pool_path = work / "pool.json"
    pool_path.write_text(json.dumps(make("rect_map", workload.seed).sweep))
    result_path = work / "layers.json"
    stdout = work / "stdout.txt"
    child = spawn([sys.executable, str(HERE / "tracing.py"), str(pool_path),
                   str(argv_path), str(result_path), str(seconds)], stdout)
    if child.code != 0:
        raise RuntimeError(f"traced run exited {child.code}: "
                           + stdout.with_suffix(".err").read_text())
    result = json.loads(result_path.read_text())
    if workload.command == "verify":
        stdout.write_text(result["stdout"])
    blobs: dict[str, bytes] = {}
    output = (_output(workload, csv, stdout, blobs), result["exit_code"])
    record = {"untraced_targets": result["untraced"]}
    return result["metrics"], check_outputs(workload, [output], blobs), output[0], record


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; returns the result object of the last line."""
    from tracing import PER_LAYER
    from workloads import make

    workload = make(name, seed)
    work = Path(tempfile.mkdtemp(prefix=f".perfbench-{name}-", dir=ROOT))
    try:
        measured, report, output, extra = (trace if traced else measure)(
            workload, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Imported only now: a child's peak RSS starts from this process's.
    import numpy

    wanted = PER_LAYER if traced else END_TO_END
    metrics = {m: {"value": measured[m], "unit": unit} for m, unit, _ in wanted}
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "grid": [ax["count"] for ax in workload.sweep["axes"]] if workload.sweep else [],
        "rows": workload.rows(),
        "jumps": workload.config.get("jumps", 0),
        "output_sha256": output,
        "failed_frac": report.failed / max(report.attempted, 1),
        "failure_reasons": report.reasons,
        **extra,
    }
    print("record " + json.dumps(record))
    for m, unit, better in wanted:
        print(f"{name:12s} {m:48s} {measured[m]:>16.6g} {unit:6s} ({better} is better)")
    print(f"{name:12s} {'failed_frac':48s} {record['failed_frac']:>16.6g} "
          f"{'frac':6s} ({report.failed} of {report.attempted} operations)")
    return {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qutrit_heat" / "__init__.py").is_file():
        print(f"error: no qutrit_heat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        sys.path.insert(0, str(SRC))
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    # One process per workload, so no workload's peak RSS includes the
    # memory this process took checking an earlier one.
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = child.stdout.splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

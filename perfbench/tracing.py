"""Layer tracing from outside the package, and the traced run's entry point.

`Tracer` wraps each public function of the module layers by rebinding it in
every ``qutrit_heat`` module namespace that holds it (``from x import f``
copies the binding, so patching the defining module alone would miss most
calls), and wraps ``SystemConfig.channels`` on the class. Aggregates live in
memory: per name, the call count, the self time (inclusive time minus that
of traced callees) and the exceptions raised.

Run as a script, it executes one workload's CLI invocation in-process through
``qutrit_heat.cli.main``, untraced and traced in turn, and writes the
per-layer metrics as JSON::

    PYTHONPATH=src python3 perfbench/tracing.py CONFIG.json ARGV.json OUT.json SECONDS
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

#: (module, attribute) of every traced function; a dotted attribute is a
#: method patched on its class.
TARGETS = (
    ("cli", "main"),
    ("circuit", "derive_spectrum"),
    ("rates", "assemble_rate_matrix"),
    ("rates", "bose_occupation"),
    ("steady", "solve_steady"),
    ("steady", "gillespie_estimate"),
    ("transport", "solve_temperatures"),
    ("transport", "SystemConfig.channels"),
    ("transport", "heat_currents"),
    ("transport", "bath_currents"),
    ("transport", "classify_regime"),
    ("transport", "rectification_from_currents"),
    ("transport", "circulation_from_currents"),
    ("sweep", "run_sweep"),
    ("sweep", "write_csv"),
)


#: (name, unit, better) of every per-layer metric a traced run reports.
#: calls, self_frac and raised come from the wrapper of the named function.
#: self_frac is its self time (inclusive time minus that of traced callees)
#: over trace.cli_s, the traced cli.main wall time, so the seconds a layer
#: takes are self_frac * trace.cli_s; a layer the workload does not reach
#: reads 0. ns_per_call is self time per call.
PER_LAYER = (
    ("cli.main.self_frac", "frac", "lower"),
    ("circuit.derive_spectrum.calls", "count", "lower"),
    ("circuit.derive_spectrum.self_frac", "frac", "lower"),
    ("rates.assemble_rate_matrix.calls", "count", "lower"),
    ("rates.assemble_rate_matrix.self_frac", "frac", "lower"),
    ("rates.assemble_rate_matrix.ns_per_call", "ns", "lower"),
    ("rates.bose_occupation.calls", "count", "lower"),
    ("rates.bose_occupation.self_frac", "frac", "lower"),
    ("steady.solve_steady.calls", "count", "lower"),
    ("steady.solve_steady.self_frac", "frac", "lower"),
    ("steady.solve_steady.ns_per_call", "ns", "lower"),
    ("steady.solve_steady.max_residual", "1", "lower"),
    ("steady.gillespie_estimate.self_frac", "frac", "lower"),
    ("steady.gillespie_estimate.jumps_per_s", "1/s", "higher"),
    ("transport.solve_temperatures.calls", "count", "lower"),
    ("transport.solve_temperatures.self_frac", "frac", "lower"),
    ("transport.solve_temperatures.repeat_frac", "frac", "lower"),
    ("transport.SystemConfig.channels.calls", "count", "lower"),
    ("transport.SystemConfig.channels.self_frac", "frac", "lower"),
    ("transport.heat_currents.calls", "count", "lower"),
    ("transport.heat_currents.self_frac", "frac", "lower"),
    ("transport.bath_currents.self_frac", "frac", "lower"),
    ("transport.classify_regime.calls", "count", "lower"),
    ("transport.classify_regime.self_frac", "frac", "lower"),
    ("transport.classify_regime.raised", "count", "lower"),
    ("transport.rectification_from_currents.calls", "count", "lower"),
    ("transport.rectification_from_currents.raised", "count", "lower"),
    ("transport.circulation_from_currents.calls", "count", "lower"),
    ("transport.circulation_from_currents.raised", "count", "lower"),
    ("sweep.run_sweep.self_frac", "frac", "lower"),
    ("sweep.solves_per_point", "count", "lower"),
    ("sweep.rows_error", "count", "lower"),
    ("sweep.rows_undefined", "count", "lower"),
    ("sweep.write_csv.self_frac", "frac", "lower"),
    ("sweep.write_csv.bytes", "bytes", "lower"),
    ("sweep.run_sweep.pool_speedup", "x", "higher"),
    ("trace.cli_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    raised: int = 0


class Tracer:
    """Wraps the TARGETS inside `installed()`, which restores the originals."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.rows = 0
        self.rows_error = 0
        self.rows_undefined = 0
        self.csv_bytes = 0
        self.max_residual = 0.0
        self.jumps = 0
        self.repeats = 0
        self._solved: set = set()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- hooks: run after the call's time is taken, and charged to no layer --

    def _after_solve_temperatures(self, args, kwargs, result) -> None:
        call = dict(zip(("config", "temperatures"), args), **kwargs)
        key = (call["config"], tuple(sorted(call["temperatures"].items())))
        if key in self._solved:
            self.repeats += 1
        self._solved.add(key)

    def _after_solve_steady(self, args, kwargs, result) -> None:
        self.max_residual = max(self.max_residual, result.residual)

    def _after_gillespie_estimate(self, args, kwargs, result) -> None:
        self.jumps += result.n_jumps + result.n_jumps // 100

    def _after_run_sweep(self, args, kwargs, result) -> None:
        self.rows += len(result.rows)
        self.rows_error += result.error_count()
        self.rows_undefined += result.undefined_count()

    def _after_write_csv(self, args, kwargs, result) -> None:
        destination = dict(zip(("result", "destination"), args), **kwargs)["destination"]
        if isinstance(destination, (str, os.PathLike)):
            self.csv_bytes += os.path.getsize(destination)

    def _wrap(self, name: str, fn, after):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                hook_start = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - hook_start
            return result

        return traced

    def _install(self) -> None:
        modules = {name: importlib.import_module(f"qutrit_heat.{name}")
                   for name, _ in TARGETS}
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "qutrit_heat" or n.startswith("qutrit_heat.")]
        for module_name, attr in TARGETS:
            module = modules[module_name]
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            name = f"{module_name}.{attr}"
            original = vars(owner).get(method)
            if original is None:
                # Gone from the package: its metrics read 0 and it is listed.
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, getattr(self, f"_after_{method}", None))
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._remove()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """PER_LAYER metrics of a traced call that took `wall_s`, except
        those the traced run measures around it."""
        s = self.stats
        solves = s.get("transport.solve_temperatures", Stat()).calls
        gillespie_s = s.get("steady.gillespie_estimate", Stat()).self_s
        derived = {
            "transport.solve_temperatures.repeat_frac":
                self.repeats / solves if solves else 0.0,
            "steady.solve_steady.max_residual": self.max_residual,
            "steady.gillespie_estimate.jumps_per_s":
                self.jumps / gillespie_s if gillespie_s else 0.0,
            "sweep.solves_per_point": solves / self.rows if self.rows else 0.0,
            "sweep.rows_error": self.rows_error,
            "sweep.rows_undefined": self.rows_undefined,
            "sweep.write_csv.bytes": self.csv_bytes,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if name.startswith("trace.") or name == "sweep.run_sweep.pool_speedup":
                continue
            if name in derived:
                out[name] = derived[name]
            elif field == "self_frac":
                out[name] = s.get(layer, Stat()).self_s / wall_s
            elif field == "ns_per_call":
                stat = s.get(layer, Stat())
                out[name] = 1e9 * stat.self_s / stat.calls if stat.calls else 0.0
            else:
                out[name] = getattr(s.get(layer, Stat()), field)
        return out


def pool_speedup(sweep: dict) -> float:
    """Untraced run_sweep wall time at workers=1 over workers=2."""
    from qutrit_heat import run_sweep
    from workloads import sweep_spec

    spec = sweep_spec(sweep)
    walls = []
    rows = []
    for workers in (1, 2):
        start = time.perf_counter()
        rows.append(run_sweep(spec, workers=workers).rows)
        walls.append(time.perf_counter() - start)
    if rows[0] != rows[1]:
        raise RuntimeError("run_sweep rows depend on the worker count")
    return walls[0] / walls[1]


def traced_pairs(argv: list[str], seconds: float) -> dict:
    """Alternate untraced and traced `cli.main(argv)` for `seconds`.

    Counts must repeat exactly across pairs; times are medians. Returns the
    metrics, the last traced call's stdout and exit code, and the TARGETS
    the package no longer has.
    """
    from qutrit_heat import cli

    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(argv)
            untraced = time.perf_counter() - start
        tracer = Tracer()
        buffer = io.StringIO()
        with tracer.installed(), contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = cli.main(argv)
            traced = time.perf_counter() - start
        sample = tracer.metrics(traced)
        sample["trace.cli_s"] = traced
        sample["trace.overhead_frac"] = traced / untraced - 1.0
        samples.append(sample)
    out = {}
    for key, first in samples[0].items():
        values = [sample[key] for sample in samples]
        if isinstance(first, int) or key.endswith((".repeat_frac", ".solves_per_point")):
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between repeats: {values}")
            out[key] = first
        else:
            out[key] = statistics.median(values)
    return {"metrics": out, "stdout": buffer.getvalue(), "exit_code": code,
            "untraced": tracer.missing}


def main(args: list[str]) -> int:
    config_path, argv_path, out_path, seconds = args
    with open(config_path) as fh:
        pool_sweep = json.load(fh)
    with open(argv_path) as fh:
        argv = json.load(fh)
    speedup = pool_speedup(pool_sweep)
    result = traced_pairs(argv, float(seconds))
    result["metrics"]["sweep.run_sweep.pool_speedup"] = speedup
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

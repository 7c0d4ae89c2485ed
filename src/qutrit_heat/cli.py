"""Command-line front end.

Three commands share one flat configuration: `steady` solves a single point,
`sweep` writes a parameter-map CSV (named preset or config-file spec), and
`verify` cross-checks the linear solve against the jump-process estimator.
Configuration comes from a JSON file (--config) whose keys mirror the flags;
a flag always wins over the file. Exit codes: 0 ok, 2 invalid configuration,
3 solver failure, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from math import inf, isfinite, pi

import numpy as np

from .circuit import CircuitParams, filter_width_advisories
from .errors import (
    AmbiguousExtremum,
    ConfigError,
    InvalidFlux,
    NonPositiveFrequency,
    QutritHeatError,
    ReducibleChain,
)
from .rates import CHANNEL_IDS, assemble_rate_matrix
from .steady import MIN_JUMPS, gillespie_estimate, solve_steady
from .sweep import SweepAxis, SweepSpec, preset, run_sweep, write_csv
from .transport import (
    SystemConfig,
    TemperatureScenario,
    heat_currents,
    transport_report,
)

DEFAULTS = {
    "ej": 5.0,
    "ec": 0.5,
    "flux": pi / 2,
    "q": 100.0,
    "lambda_res": 1.0,
    "lambda_off": 1.0,
    "ta": 1.0,
    "tb": 1.0,
    "tc": 1.0,
    "merge": None,
    "omega_a": None,
    "omega_b": None,
    "omega_c": None,
    "preset": None,
    "out": None,
    "seed": 1,
    "jumps": 1_000_000,
    "sweep": None,
}

_SCALAR_FLAGS = (
    "ej", "ec", "flux", "q", "lambda_res", "lambda_off",
    "ta", "tb", "tc", "omega_a", "omega_b", "omega_c",
)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--ej", type=float, help="Josephson energy (hbar*omega_r)")
    common.add_argument("--ec", type=float, help="charging energy (hbar*omega_r)")
    common.add_argument("--flux", type=float, help="reduced flux phase (rad)")
    common.add_argument("--q", type=float, help="resonator quality factor")
    common.add_argument("--lambda-res", type=float, dest="lambda_res",
                        help="resonant coupling weight")
    common.add_argument("--lambda-off", type=float, dest="lambda_off",
                        help="off-resonant coupling weight")
    common.add_argument("--ta", type=float, help="bath a temperature (k_B T in hbar*omega_r)")
    common.add_argument("--tb", type=float, help="bath b temperature")
    common.add_argument("--tc", type=float, help="bath c temperature")
    common.add_argument("--merge", metavar="L,L'",
                        help="two channels sharing one reservoir, e.g. b,c")
    common.add_argument("--omega-a", type=float, dest="omega_a",
                        help="pin resonator a frequency (default: its transition)")
    common.add_argument("--omega-b", type=float, dest="omega_b",
                        help="pin resonator b frequency")
    common.add_argument("--omega-c", type=float, dest="omega_c",
                        help="pin resonator c frequency")
    common.add_argument("--preset", help="named sweep preset (sweep command)")
    common.add_argument("--out", metavar="PATH", help="CSV output path (sweep command)")
    common.add_argument("--seed", type=int, help="root RNG seed (verify command)")
    common.add_argument("--jumps", type=int, help="jump count (verify command)")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    common.add_argument("--human", action="store_true",
                        help="round numeric output for reading")

    parser = argparse.ArgumentParser(
        prog="qutrit-heat",
        description="Steady-state heat transport through a three-level "
                    "superconducting circuit coupled to three thermal baths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[common],
                   help="solve one point: populations, currents, regime")
    sub.add_parser("sweep", parents=[common],
                   help="evaluate a parameter grid and write CSV")
    sub.add_parser("verify", parents=[common],
                   help="cross-check the solver against the stochastic estimator")
    return parser


def _load_config(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """The config from DEFAULTS, the --config file and the flags, in that
    order of precedence, and the set of keys the file or a flag set."""
    cfg = dict(DEFAULTS)
    explicit: set[str] = set()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key, value in data.items():
            if key not in DEFAULTS:
                raise ConfigError(f"config: unknown key {key!r}")
            cfg[key] = value
        explicit.update(data)
    for key in _SCALAR_FLAGS + ("merge", "preset", "out", "seed", "jumps"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
            explicit.add(key)
    return cfg, explicit


def _validate(cfg: dict) -> dict:
    for key in _SCALAR_FLAGS + ("seed", "jumps"):
        value = cfg[key]
        if value is not None and not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if isinstance(value, float) and not isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
    if not cfg["ej"] > 0:
        raise ConfigError(f"ej: must be positive, got {cfg['ej']}")
    if cfg["ec"] < 0:
        raise ConfigError(f"ec: must be >= 0, got {cfg['ec']}")
    if not cfg["q"] > 0:
        raise ConfigError(f"q: must be positive, got {cfg['q']}")
    for key in ("lambda_res", "lambda_off"):
        if cfg[key] < 0:
            raise ConfigError(f"{key}: must be >= 0, got {cfg[key]}")
    for key in ("ta", "tb", "tc"):
        if cfg[key] < 0:
            raise ConfigError(f"{key}: temperature must be >= 0, got {cfg[key]}")
    for key in ("omega_a", "omega_b", "omega_c"):
        if cfg[key] is not None and not cfg[key] > 0:
            raise ConfigError(f"{key}: must be positive, got {cfg[key]}")
    if cfg["merge"] is not None:
        parts = [p.strip() for p in str(cfg["merge"]).split(",")]
        if len(parts) != 2 or parts[0] == parts[1] or not set(parts) <= set(CHANNEL_IDS):
            raise ConfigError(f"merge: expected two distinct channels of a,b,c, got {cfg['merge']!r}")
        cfg["merge"] = ",".join(sorted(parts))
        t1, t2 = (cfg[f"t{c}"] for c in sorted(parts))
        if t1 != t2:
            raise ConfigError(
                f"merge: channels {cfg['merge']} share a reservoir and must "
                f"share a temperature (got {t1} and {t2})"
            )
    if not isinstance(cfg["seed"], int):
        raise ConfigError(f"seed: expected an integer, got {cfg['seed']!r}")
    if not isinstance(cfg["jumps"], int):
        raise ConfigError(f"jumps: expected an integer, got {cfg['jumps']!r}")
    return cfg


def _system_config(cfg: dict) -> SystemConfig:
    try:
        return SystemConfig(
            circuit=CircuitParams(e_j=cfg["ej"], e_c=cfg["ec"], phi=cfg["flux"]),
            q=cfg["q"], lambda_res=cfg["lambda_res"], lambda_off=cfg["lambda_off"],
            merged=tuple(cfg["merge"].split(",")) if cfg["merge"] else None,
            resonators=tuple((c, cfg[f"omega_{c}"]) for c in CHANNEL_IDS
                             if cfg[f"omega_{c}"] is not None),
        )
    except (InvalidFlux, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _point_scenario(cfg: dict, config: SystemConfig) -> TemperatureScenario:
    temps = {config.bath_of(cid): cfg[f"t{cid}"] for cid in CHANNEL_IDS}
    return TemperatureScenario(base=0.0, hot_temperature=0.0, overrides=tuple(temps.items()))


def _fmt(value: float, human: bool) -> str:
    return f"{value:.6g}" if human else f"{value:.17g}"


def _print_advisories(config: SystemConfig) -> None:
    resonators = {cid: (config.resonator_frequency(cid), config.q) for cid in CHANNEL_IDS}
    for note in filter_width_advisories(config.spectrum, resonators):
        print(f"advisory: {note}", file=sys.stderr)


def cmd_steady(cfg: dict, human: bool = False) -> int:
    """Solve one point and print populations, currents, regime, residual."""
    config = _system_config(cfg)
    scenario = _point_scenario(cfg, config)
    _print_advisories(config)
    report = transport_report(config, scenario)
    p = report.steady.p
    for i in range(3):
        print(f"p{i} {_fmt(float(p[i]), human)}")
    for cid, j in report.currents.by_channel().items():
        print(f"j_{cid} {_fmt(j, human)}")
    print(f"regime {report.regime}")
    print(f"residual {_fmt(report.steady.residual, human)}")
    return 0


#: Keys of the fixed system configuration a sweep spec carries.
_FIXED = {"ej", "ec", "flux", "q", "lambda_res", "lambda_off", "merge",
          "omega_a", "omega_b", "omega_c"}


def _sweep_config(cfg: dict, explicit: set[str]) -> tuple[dict, SweepSpec]:
    """The preset or config-file sweep spec, and cfg with the fixed
    configuration keys taken from that spec unless the file or a flag set
    them (`explicit`): the effective configuration of the sweep."""
    if cfg["preset"] is not None:
        try:
            spec = preset(cfg["preset"])
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
    elif cfg["sweep"] is not None:
        spec = _parse_sweep_dict(cfg["sweep"])
    else:
        raise ConfigError("sweep: provide --preset or a config-file sweep section")
    own = spec.config
    effective = dict(
        cfg, ej=own.circuit.e_j, ec=own.circuit.e_c, flux=own.circuit.phi, q=own.q,
        lambda_res=own.lambda_res, lambda_off=own.lambda_off,
        merge=",".join(own.merged) if own.merged else None,
        **{f"omega_{c}": dict(own.resonators).get(c) for c in CHANNEL_IDS},
    )
    effective.update({k: cfg[k] for k in explicit & _FIXED})
    return effective, spec


def _sweep_spec_from_config(cfg: dict, explicit: set[str]) -> SweepSpec:
    effective, spec = _sweep_config(cfg, explicit)
    if explicit & _FIXED:
        spec = replace(spec, config=_system_config(effective))
    return spec


def _parse_sweep_dict(data: dict) -> SweepSpec:
    if not isinstance(data, dict):
        raise ConfigError("sweep: must be a JSON object")
    try:
        axes = tuple(
            SweepAxis(ax["name"], float(ax["start"]), float(ax["stop"]), int(ax["count"]))
            for ax in data["axes"]
        )
        scen = data.get("scenario", {})
        scenario = TemperatureScenario(
            hot=frozenset(scen.get("hot", ())),
            base=float(scen.get("base", 1.0)),
            hot_temperature=float(scen.get("hot_temperature", 1.0)),
            overrides=tuple(
                (str(k), float(v)) for k, v in scen.get("overrides", {}).items()
            ),
        )
        fixed = data.get("config", {})
        cfg = dict(DEFAULTS)
        for key, value in fixed.items():
            if key not in DEFAULTS:
                raise ConfigError(f"sweep.config: unknown key {key!r}")
            cfg[key] = value
        return SweepSpec(
            config=_system_config(_validate(cfg)),
            scenario=scenario,
            axes=axes,
            metrics=tuple(data.get("metrics", ())),
            passive=data.get("passive", "base"),
            repin_resonators=bool(data.get("repin_resonators", True)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def cmd_sweep(cfg: dict, explicit: set[str], human: bool = False) -> int:
    """Run a sweep and write its CSV; per-point failures never abort."""
    spec = _sweep_spec_from_config(cfg, explicit)
    if cfg["out"] is None:
        raise ConfigError("out: an output path is required for sweeps")
    t0 = time.perf_counter()
    result = run_sweep(spec)
    elapsed = time.perf_counter() - t0
    write_csv(result, cfg["out"])
    print(f"rows {len(result.rows)}  undefined {result.undefined_count()}  "
          f"errors {result.error_count()}  seconds {elapsed:.2f}  wrote {cfg['out']}")
    return 0


def cmd_verify(cfg: dict, human: bool = False) -> int:
    """Compare the linear solve with the jump-process estimate, print z-scores."""
    if cfg["jumps"] < MIN_JUMPS:
        raise ConfigError(f"jumps: must be at least {MIN_JUMPS}, got {cfg['jumps']}")
    config = _system_config(cfg)
    scenario = _point_scenario(cfg, config)
    _print_advisories(config)
    rates = assemble_rate_matrix(
        config.spectrum, config.channels(scenario.temperatures(config.bath_ids())))
    steady = solve_steady(rates)
    currents = heat_currents(steady, rates, config.spectrum)
    est = gillespie_estimate(rates, config.spectrum, n_jumps=cfg["jumps"], seed=cfg["seed"])

    names = ["p0", "p1", "p2", "j_a", "j_b", "j_c"]
    exact = list(steady.p) + [currents.j_a, currents.j_b, currents.j_c]
    approx = list(est.p_hat) + list(est.j_hat)
    sigmas = list(est.sigma_p) + list(est.sigma_j)
    worst = 0.0
    print("quantity exact estimate sigma z")
    for name, x, m, s in zip(names, exact, approx, sigmas):
        diff = m - x
        z = 0.0 if diff == 0.0 else (abs(diff) / s if s > 0.0 else inf)
        worst = max(worst, z)
        print(
            f"{name} {_fmt(float(x), human)} {_fmt(float(m), human)} "
            f"{_fmt(float(s), human)} {z:.2f}"
        )
    print(f"max_z {worst:.2f}")
    return 0 if worst <= 3.0 else 4


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, explicit = _load_config(args)
        cfg = _validate(cfg)
        if args.dump_config and args.command == "sweep" and (cfg["preset"] or cfg["sweep"]):
            cfg = _sweep_config(cfg, explicit)[0]
        if args.dump_config:
            _system_config(cfg)  # a dump is only of a config that would run
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    try:
        if args.command == "steady":
            return cmd_steady(cfg, human=args.human)
        if args.command == "sweep":
            return cmd_sweep(cfg, explicit, human=args.human)
        return cmd_verify(cfg, human=args.human)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReducibleChain, AmbiguousExtremum, NonPositiveFrequency,
            ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except QutritHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

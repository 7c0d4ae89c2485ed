"""Command-line front end.

Three commands share one flat configuration: `steady` solves a single point,
`sweep` writes a parameter-map CSV (named preset or config-file spec), and
`verify` cross-checks the linear solve against the jump-process estimator.
Configuration comes from a JSON file (--config) whose keys mirror the flags;
a flag always wins over the file. Each distinct UserWarning of a command,
such as an advisory of SystemConfig.advisories (main's for steady and
verify, the sweep engine's for a sweep), prints once as an `advisory:` line
on stderr; none prints with --dump-config, nor when the configuration is
invalid or --out cannot be opened.
Exit codes: 0 ok, 2 invalid configuration or an --out path that cannot be
written, 3 solver failure, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace
from math import inf, pi

from .circuit import CircuitParams
from .errors import (
    AmbiguousExtremum,
    ConfigError,
    InvalidFlux,
    NonPositiveFrequency,
    ReducibleChain,
)
from .rates import CHANNEL_IDS
from .steady import MIN_JUMPS, gillespie_estimate
from .sweep import SweepAxis, SweepSpec, preset, write_sweep
from .transport import (
    SystemConfig,
    TemperatureScenario,
    bath_currents,
    classify_regime,
    solve_temperatures,
)

#: Every configuration key: its kind (see _checked), its default and its
#: --help text, then the metavar where argparse's own would mislead. A key
#: whose default is None may also be null; "sweep" has no flag.
_KEYS = {
    "ej": (float, 5.0, "Josephson energy (hbar*omega_r)"),
    "ec": (float, 0.5, "charging energy (hbar*omega_r)"),
    "flux": (float, pi / 2, "reduced flux phase (rad)"),
    "q": (float, 100.0, "resonator quality factor"),
    "lambda_res": (float, 1.0, "resonant coupling weight"),
    "lambda_off": (float, 1.0, "off-resonant coupling weight"),
    "ta": (float, 1.0, "bath a temperature (k_B T in hbar*omega_r)"),
    "tb": (float, 1.0, "bath b temperature"),
    "tc": (float, 1.0, "bath c temperature"),
    "merge": (str, None, "two channels sharing one reservoir, e.g. b,c", "L,L'"),
    "omega_a": (float, None, "pin resonator a frequency (default: its transition)"),
    "omega_b": (float, None, "pin resonator b frequency"),
    "omega_c": (float, None, "pin resonator c frequency"),
    "preset": (str, None, "named sweep preset (sweep command)"),
    "out": (str, None, "CSV output path (sweep command)", "PATH"),
    "seed": (int, 1, "root RNG seed (verify command)"),
    "jumps": (int, 1_000_000, "jump count (verify command)"),
    "sweep": (dict, None, None),
}

DEFAULTS = {key: default for key, (_, default, *_) in _KEYS.items()}

_EXPECTED = {int: "a non-negative integer", str: "a string", bool: "true or false",
             list: "a list", dict: "a JSON object"}


def _checked(where: str, value, kind: type):
    """value if it is of kind, else a ConfigError that names `where`. Kind
    str, bool, list or dict takes a value of that type, float any finite
    number but true and false (returned as a float), and int a whole number
    >= 0 within the float range."""
    if kind in (float, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond any float
            raise ConfigError(f"{where}: must be finite, got {value}")
        if kind is float:
            return float(value)
    if not isinstance(value, kind) or (kind is int and value < 0):
        raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    for key, (kind, _, text, *metavar) in _KEYS.items():
        if text is not None:
            common.add_argument("--" + key.replace("_", "-"), type=kind, help=text,
                                metavar=metavar[0] if metavar else None)
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


def _known(data, where: str, allowed) -> dict:
    """The JSON object `data`, all of whose keys are `allowed`."""
    for key in _checked(where, data, dict):
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return data


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
        except ValueError as exc:  # not UTF-8, not JSON, or an over-long integer
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from exc
        cfg = {**DEFAULTS, **_known(data, "config", DEFAULTS)}
        explicit.update(data)
    for key in _KEYS:
        value = getattr(args, key, None)  # "sweep" has no flag
        if value is not None:
            cfg[key] = value
            explicit.add(key)
    return cfg, explicit


def _validate(cfg: dict) -> dict:
    """Each key's kind, temperatures and merge. The ranges of the system
    values are checked once, by CircuitParams and SystemConfig;
    _system_config turns their ValueError into a ConfigError (exit 2)."""
    for key, (kind, default, *_) in _KEYS.items():
        if cfg[key] is not None or default is not None:
            _checked(key, cfg[key], kind)  # the value stays as given, for --dump-config
    for key in ("ta", "tb", "tc"):
        if cfg[key] < 0:
            raise ConfigError(f"{key}: temperature must be >= 0, got {cfg[key]}")
    if cfg["merge"] is not None:
        parts = [p.strip() for p in cfg["merge"].split(",")]
        if len(parts) != 2 or parts[0] == parts[1] or not set(parts) <= set(CHANNEL_IDS):
            raise ConfigError(f"merge: expected two distinct channels of a,b,c, got {cfg['merge']!r}")
        cfg["merge"] = ",".join(sorted(parts))
        t1, t2 = (cfg[f"t{c}"] for c in sorted(parts))
        if t1 != t2:
            raise ConfigError(
                f"merge: channels {cfg['merge']} share a reservoir and must "
                f"share a temperature (got {t1} and {t2})"
            )
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


def _fmt(value: float, human: bool) -> str:
    return f"{value:.6g}" if human else f"{value:.17g}"


@contextmanager
def _advisories():
    """Record every UserWarning of the block and print each distinct one
    once, as an advisory line on stderr, when the block ends."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            yield
        finally:
            for note in dict.fromkeys(str(warning.message) for warning in caught):
                print(f"advisory: {note}", file=sys.stderr)


def cmd_steady(config: SystemConfig, temps: dict[str, float], human: bool = False) -> int:
    """Solve one point at per-bath temperatures and print populations,
    currents, regime, residual."""
    steady, currents = solve_temperatures(config, temps)
    regime = classify_regime(bath_currents(config, currents), temps)
    for i, p in enumerate(steady.p.tolist()):
        print(f"p{i} {_fmt(p, human)}")
    for cid, j in currents.by_channel().items():
        print(f"j_{cid} {_fmt(j, human)}")
    print(f"regime {regime}")
    print(f"residual {_fmt(steady.residual, human)}")
    return 0


#: Keys of the fixed system configuration a sweep spec carries.
_FIXED = {"ej", "ec", "flux", "q", "lambda_res", "lambda_off", "merge",
          "omega_a", "omega_b", "omega_c"}


def _sweep_config(cfg: dict, explicit: set[str]) -> tuple[dict, SweepSpec]:
    """The effective configuration of a sweep and its spec: the preset or
    config-file spec, whose fixed configuration keys give way to those the
    file or a flag set (`explicit`)."""
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
    if explicit & _FIXED:
        try:
            spec = replace(spec, config=_system_config(effective))
        except ValueError as exc:  # the spec's scenario names a bath the config lacks
            raise ConfigError(f"sweep: {exc}") from exc
    return effective, spec


def _parse_sweep_dict(data: dict) -> SweepSpec:
    """The spec of a config-file sweep section, whose values pass _checked
    and whose keys _known as the top-level ones do. The keys of the section,
    its scenario and each axis are the fields of SweepSpec,
    TemperatureScenario and SweepAxis."""

    def field(where: str, section: dict, kind: type, default=None):
        return _checked(where, section.get(where.rpartition(".")[2], default), kind)

    def names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    data = _known(data, "sweep", names(SweepSpec))
    scen = _known(data.get("scenario", {}), "sweep.scenario", names(TemperatureScenario))
    fixed = {**DEFAULTS, **_known(data.get("config", {}), "sweep.config", _FIXED)}
    passive = data.get("passive", "base")
    try:
        axes = []
        for i, ax in enumerate(field("sweep.axes", data, list)):
            where = f"sweep.axes[{i}]"
            ax = _known(ax, where, names(SweepAxis))
            axes.append(SweepAxis(ax.get("name"), field(f"{where}.start", ax, float),
                                  field(f"{where}.stop", ax, float), field(f"{where}.count", ax, int)))
        return SweepSpec(
            config=_system_config(_validate(fixed)),
            scenario=TemperatureScenario(
                hot=field("sweep.scenario.hot", scen, list, []),
                base=field("sweep.scenario.base", scen, float, 1.0),
                hot_temperature=field("sweep.scenario.hot_temperature", scen, float, 1.0),
                overrides={bath: _checked(f"sweep.scenario.overrides.{bath}", t, float)
                           for bath, t in field("sweep.scenario.overrides", scen, dict, {}).items()},
            ),
            axes=axes,
            metrics=field("sweep.metrics", data, list, []),
            passive=passive if isinstance(passive, str) else _checked("sweep.passive", passive, float),
            repin_resonators=field("sweep.repin_resonators", data, bool, True),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def cmd_sweep(spec: SweepSpec, out: str | None) -> int:
    """Open the output path, then stream the sweep's CSV to it block by
    block (write_sweep); per-point failures never abort. An OSError of the
    stream is a ConfigError, which a partial file may outlive. The seconds
    cover evaluation and writing."""
    if out is None:
        raise ConfigError("out: an output path is required for sweeps")
    try:  # opened before the sweep runs, so an unwritable path fails first
        with open(out, "w", newline="") as stream:
            t0 = time.perf_counter()
            rows, undefined, errors = write_sweep(spec, stream)
            elapsed = time.perf_counter() - t0
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out}: {exc}") from exc
    print(f"rows {rows}  undefined {undefined}  errors {errors}  seconds {elapsed:.2f}  wrote {out}")
    return 0


def cmd_verify(config: SystemConfig, temps: dict[str, float], jumps: int, seed: int,
               human: bool = False) -> int:
    """Compare the linear solve at per-bath temperatures with the
    jump-process estimate of `jumps` jumps, print z-scores."""
    steady, currents = solve_temperatures(config, temps)
    est = gillespie_estimate(*config.channels(temps), n_jumps=jumps, seed=seed)

    names = ["p0", "p1", "p2", "j_a", "j_b", "j_c"]
    exact = list(steady.p) + [currents.j_a, currents.j_b, currents.j_c]
    approx = list(est.p_hat) + list(est.j_hat)
    sigmas = list(est.sigma_p) + list(est.sigma_j)
    worst = 0.0
    print("quantity exact estimate sigma z")
    for name, x, m, s in zip(names, exact, approx, sigmas):
        diff = m - x
        z = 0.0 if diff == 0.0 else (abs(diff) / s if 0.0 < s < inf else inf)
        worst = max(worst, z)
        print(
            f"{name} {_fmt(float(x), human)} {_fmt(float(m), human)} "
            f"{_fmt(float(s), human)} {z:.2f}"
        )
    print(f"max_z {worst:.2f}")
    return 0 if worst <= 3.0 else 4


def main(argv=None) -> int:
    """Resolve the command's configuration once, with every check its run
    makes but those of --out, then dump it or run the command on it."""
    args = _parser().parse_args(argv)
    try:
        with _advisories():
            cfg, explicit = _load_config(args)
            cfg, spec = _validate(cfg), None
            if args.command == "sweep":
                cfg, spec = _sweep_config(cfg, explicit)
            elif args.command == "verify" and cfg["jumps"] < MIN_JUMPS:
                raise ConfigError(f"jumps: must be at least {MIN_JUMPS}, got {cfg['jumps']}")
            config = _system_config(cfg) if spec is None else spec.config
            if args.dump_config:
                print(json.dumps(cfg, indent=2, sort_keys=True))
                return 0
            if spec is not None:
                return cmd_sweep(spec, cfg["out"])
            temps = {config.bath_of(cid): cfg[f"t{cid}"] for cid in CHANNEL_IDS}
            for note in config.advisories():
                warnings.warn(note)
            if args.command == "steady":
                return cmd_steady(config, temps, human=args.human)
            return cmd_verify(config, temps, cfg["jumps"], cfg["seed"], human=args.human)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReducibleChain, AmbiguousExtremum, NonPositiveFrequency, ValueError,
            ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

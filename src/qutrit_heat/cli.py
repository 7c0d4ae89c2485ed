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
from itertools import islice
from math import inf

from .errors import AmbiguousExtremum, ConfigError, NonPositiveFrequency, ReducibleChain
from .rates import CHANNEL_IDS
from .steady import MIN_JUMPS, gillespie_estimate
from .sweep import (_SYSTEM_KEYS, SweepSpec, _checked, _known, _parse_section, _preset_section,
                    _system_config, write_sweep)
from .transport import SystemConfig, bath_currents, classify_regime, solve_temperatures

#: Every configuration key: its kind (see _checked), its default and its
#: --help text, then the metavar where argparse's own would mislead. A key
#: whose default is None may also be null; "sweep" has no flag. The system
#: keys are sweep._SYSTEM_KEYS, the keys of a sweep section's config too.
_KEYS = {
    **dict(islice(_SYSTEM_KEYS.items(), 6)),  # ej ... lambda_off
    "ta": (float, 1.0, "bath a temperature (k_B T in hbar*omega_r)"),
    "tb": (float, 1.0, "bath b temperature"),
    "tc": (float, 1.0, "bath c temperature"),
    **_SYSTEM_KEYS,  # merge, omega_a, omega_b, omega_c after the temperatures
    "preset": (str, None, "named sweep preset (sweep command)"),
    "out": (str, None, "CSV output path (sweep command)", "PATH"),
    "seed": (int, 1, "root RNG seed (verify command)"),
    "jumps": (int, 1_000_000, "jump count (verify command)"),
    "sweep": (dict, None, None),
}

DEFAULTS = {key: default for key, (_, default, *_) in _KEYS.items()}


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


def _validate(cfg: dict) -> SystemConfig:
    """The system configuration of cfg (_system_config, whose CircuitParams
    and SystemConfig check the ranges of the system values), once each key's
    kind and the temperatures are checked; the values stay as given, for
    --dump-config."""
    for key, (kind, default, *_) in _KEYS.items():
        if cfg[key] is not None or default is not None:
            _checked(key, cfg[key], kind)
    for key in ("ta", "tb", "tc"):
        if cfg[key] < 0:
            raise ConfigError(f"{key}: temperature must be >= 0, got {cfg[key]}")
    return _system_config(cfg)


def _temperatures(config: SystemConfig, cfg: dict) -> dict[str, float]:
    """Each bath's temperature, from cfg's ta, tb and tc; the channels of a
    merged bath must share one. Only steady and verify read them."""
    if config.merged:
        t1, t2 = (cfg[f"t{c}"] for c in config.merged)
        if t1 != t2:
            raise ConfigError(f"merge: channels {','.join(config.merged)} share a reservoir "
                              f"and must share a temperature (got {t1} and {t2})")
    return {config.bath_of(cid): cfg[f"t{cid}"] for cid in CHANNEL_IDS}


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


def _sweep_config(cfg: dict, explicit: set[str]) -> tuple[dict, SweepSpec]:
    """The effective configuration of a sweep and its spec. The sweep
    section, the preset's (sweep.PRESETS) or the config file's, takes each
    system key the file or a flag set (`explicit`), else its own, else the
    default. The spec is that resolved section's (_parse_section), which
    replaces the preset: the dump names the grid that runs."""
    if cfg["preset"] is not None and cfg["sweep"] is not None:
        raise ConfigError("preset: a sweep takes a preset or a sweep section, not both")
    if cfg["preset"] is not None:
        try:
            section = _preset_section(cfg["preset"])
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
    elif cfg["sweep"] is not None:
        section = cfg["sweep"]
    else:
        raise ConfigError("sweep: provide --preset or a config-file sweep section")
    own = _known(section.get("config", {}), "sweep.config", _SYSTEM_KEYS)
    _system_config({**DEFAULTS, **own})  # the section's values are checked, even overridden ones
    config = {key: cfg[key] if key in explicit else own.get(key, cfg[key]) for key in _SYSTEM_KEYS}
    section = dict(section, config=config)
    return dict(cfg, **config, preset=None, sweep=section), _parse_section(section)


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
            config, spec = _validate(cfg), None
            if args.command == "sweep":
                cfg, spec = _sweep_config(cfg, explicit)
            else:
                temps = _temperatures(config, cfg)
                if args.command == "verify" and cfg["jumps"] < MIN_JUMPS:
                    raise ConfigError(f"jumps: must be at least {MIN_JUMPS}, got {cfg['jumps']}")
            if args.dump_config:
                print(json.dumps(cfg, indent=2, sort_keys=True))
                return 0
            if spec is not None:
                return cmd_sweep(spec, cfg["out"])
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

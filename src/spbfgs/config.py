"""Run-configuration files: flat key = value entries under [section] headers.

Parsed with configparser; semantic validation reports the offending
[section] key.  Unknown sections or keys are errors, not warnings, so a
typo cannot silently fall back to a default.  See the README for the full
key reference and a worked example.
"""

import configparser
from dataclasses import fields, replace

from .bench import METHODS, ExperimentSpec, ProblemRef
from .errors import ConfigError
from .linesearch import LineSearchConfig
from .noise import NoiseSpec
from .policy import PenaltyPolicy
from .problems import list_problems

# [policy] keys are PenaltyPolicy's fields; the str ones are taken verbatim
_POLICY_TYPES = {f.name: f.type for f in fields(PenaltyPolicy)}

_KNOWN_KEYS = {
    "experiment": {"problems", "methods", "replicates", "master_seed", "out_dir",
                   "record_traces", "workers"},
    "noise": {"mode", "cells"},
    "budget": {"evals", "iters"},
    "linesearch": {"alpha0", "tau", "c1", "eps_armijo", "max_backtracks"},
    "policy": set(_POLICY_TYPES),
}


def _fail(section, key, message):
    raise ConfigError(f"[{section}] {key}: {message}")


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        _fail(section, key, f"expected a number, got {raw!r}")


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"expected an integer, got {raw!r}")


def _parse_bool(section, key, raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    _fail(section, key, f"expected a boolean, got {raw!r}")


def _parse_problems(raw):
    refs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, size = item.partition(":")
        name = name.strip()
        if name not in list_problems():
            _fail("experiment", "problems",
                  f"unknown problem {name!r}; known: {', '.join(list_problems())}")
        n = _parse_int("experiment", "problems", size.strip()) if size else None
        refs.append(ProblemRef(name, n))
    if not refs:
        _fail("experiment", "problems", "at least one problem is required")
    return tuple(refs)


def _parse_cells(raw):
    cells = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != 2:
            _fail("noise", "cells", f"expected 'eps_f,eps_g' pairs separated by ';', got {item!r}")
        try:
            cells.append(NoiseSpec(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            _fail("noise", "cells", str(exc))
    if not cells:
        _fail("noise", "cells", "at least one noise cell is required")
    return tuple(cells)


def load_experiment(path):
    """Parse and validate a configuration file into an ExperimentSpec."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]; known: "
                              f"{', '.join(sorted(_KNOWN_KEYS))}")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                _fail(section, key, f"unknown key; known: {', '.join(sorted(_KNOWN_KEYS[section]))}")

    def get(section, key, default=None):
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key].strip()
        return default

    if get("experiment", "problems") is None:
        raise ConfigError("[experiment] problems is required")
    problems = _parse_problems(get("experiment", "problems"))

    methods_raw = get("experiment", "methods", "spbfgs, bfgs")
    methods = tuple(m.strip() for m in methods_raw.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            _fail("experiment", "methods", f"unknown method {m!r}, expected subset of {METHODS}")

    replicates = _parse_int("experiment", "replicates", get("experiment", "replicates", "30"))
    master_seed = _parse_int("experiment", "master_seed", get("experiment", "master_seed", "0"))
    out_dir = get("experiment", "out_dir", "results")
    record_traces = _parse_bool("experiment", "record_traces",
                                get("experiment", "record_traces", "false"))
    workers = _parse_int("experiment", "workers", get("experiment", "workers", "1"))

    mode = get("noise", "mode", "absolute")
    if mode not in ("absolute", "relative"):
        _fail("noise", "mode", f"expected absolute or relative, got {mode!r}")
    cells = _parse_cells(get("noise", "cells", "0, 0"))

    evals_raw = get("budget", "evals")
    iters_raw = get("budget", "iters")
    budget_evals = _parse_int("budget", "evals", evals_raw) if evals_raw is not None else None
    budget_iters = _parse_int("budget", "iters", iters_raw) if iters_raw is not None else None
    if budget_evals is None and budget_iters is None:
        budget_evals = 2000

    eps_armijo_raw = get("linesearch", "eps_armijo", "auto")
    eps_armijo_auto = eps_armijo_raw.lower() == "auto"
    try:
        linesearch = LineSearchConfig(
            alpha0=_parse_float("linesearch", "alpha0", get("linesearch", "alpha0", "1.0")),
            tau=_parse_float("linesearch", "tau", get("linesearch", "tau", "0.5")),
            c1=_parse_float("linesearch", "c1", get("linesearch", "c1", "1e-4")),
            eps_armijo=0.0 if eps_armijo_auto
            else _parse_float("linesearch", "eps_armijo", eps_armijo_raw),
            max_backtracks=_parse_int("linesearch", "max_backtracks",
                                      get("linesearch", "max_backtracks", "45")),
        )
    except ValueError as exc:
        raise ConfigError(f"[linesearch] {exc}") from exc

    policy_kwargs = {}
    for key, kind in _POLICY_TYPES.items():
        raw = get("policy", key)
        if raw is not None:
            policy_kwargs[key] = raw if kind is str else _parse_float("policy", key, raw)
    try:
        # keys left out keep the bench defaults (ExperimentSpec's default policy)
        policy = replace(ExperimentSpec.policy, **policy_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[policy] {exc}") from exc

    try:
        return ExperimentSpec(
            problems=problems,
            methods=methods,
            cells=cells,
            noise_mode=mode,
            replicates=replicates,
            master_seed=master_seed,
            budget_evals=budget_evals,
            budget_iters=budget_iters,
            linesearch=linesearch,
            eps_armijo_auto=eps_armijo_auto,
            policy=policy,
            out_dir=out_dir,
            record_traces=record_traces,
            workers=workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

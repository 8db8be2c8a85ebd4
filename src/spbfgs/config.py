"""Run-configuration files: flat key = value entries under [section] headers,
read as UTF-8 whatever the locale.

One table, KEYS, maps each [section] key to the dataclass field it sets
(of ExperimentSpec, LineSearchConfig or PenaltyPolicy) and its parser.
Types and defaults are the fields' own: a key is parsed by its field's
annotated type unless the table names a parser, and a key left out keeps
its field's default.  Overrides from outside the file (the CLI's flags and
SPBFGS_BENCH_* variables) set keys of the same table, so every value goes
through one parser and one validation path.  Errors name the offending
[section] key, and the override that supplied it.  Unknown sections or
keys are errors, not warnings, so a typo cannot silently fall back to a
default.  See the README for the full key reference and a worked example.
"""

import configparser
from dataclasses import fields, replace
from typing import Optional

from .bench import METHODS, ExperimentSpec, ProblemRef
from .errors import ConfigError
from .linesearch import LineSearchConfig
from .noise import NoiseSpec
from .policy import PenaltyPolicy
from .problems import list_problems

# Parsers take the stripped raw value and raise ValueError with a message
# that the loader prefixes with the [section] key.


def _converter(convert, expected):
    def parse(raw):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"expected {expected}, got {raw!r}") from None
    return parse


_parse_float = _converter(float, "a number")
_parse_int = _converter(int, "an integer")


def _parse_bool(raw):
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_problems(raw):
    refs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, colon, size = item.partition(":")
        name = name.strip()
        if name not in list_problems():
            raise ValueError(f"unknown problem {name!r}; known: {', '.join(list_problems())}")
        # "name:" gives an empty size, an error, not the default size
        refs.append(ProblemRef(name, _parse_int(size.strip()) if colon else None))
    if not refs:
        raise ValueError("at least one problem is required")
    return tuple(refs)


def _parse_methods(raw):
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}, expected subset of {METHODS}")
    return methods


def _parse_mode(raw):
    if raw not in ("absolute", "relative"):
        raise ValueError(f"expected absolute or relative, got {raw!r}")
    return raw


def _parse_cells(raw):
    cells = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected 'eps_f,eps_g' pairs separated by ';', got {item!r}")
        cells.append(NoiseSpec(_parse_float(parts[0]), _parse_float(parts[1])))
    if not cells:
        raise ValueError("at least one noise cell is required")
    return tuple(cells)


def _parse_eps_armijo(raw):
    """None for auto (the run's eps_f, resolved by RunConfig), else the number."""
    return None if raw.lower() == "auto" else _parse_float(raw)


_PARSE_BY_TYPE = {int: _parse_int, Optional[int]: _parse_int, float: _parse_float,
                  bool: _parse_bool, str: str}


def _section(owner, keys=None, **parsers):
    """key -> (owner, field name, parser) for a section setting fields of owner.

    keys maps each key to its field's name, by default every field under
    its own name; a key without a parser of its own in parsers is parsed
    by its field's annotated type.
    """
    types = {f.name: f.type for f in fields(owner)}
    keys = keys or {name: name for name in types}
    return {key: (owner, name, parsers.get(key) or _PARSE_BY_TYPE[types[name]])
            for key, name in keys.items()}


# [section] key -> (dataclass, field name, parser)
KEYS = {
    "experiment": _section(
        ExperimentSpec,
        {name: name for name in ("problems", "methods", "replicates", "master_seed",
                                 "out_dir", "record_traces", "workers")},
        problems=_parse_problems, methods=_parse_methods),
    "noise": _section(ExperimentSpec, {"mode": "noise_mode", "cells": "cells"},
                      mode=_parse_mode, cells=_parse_cells),
    "budget": _section(ExperimentSpec, {"evals": "budget_evals", "iters": "budget_iters"}),
    "linesearch": _section(LineSearchConfig, eps_armijo=_parse_eps_armijo),
    "policy": _section(PenaltyPolicy),
}


def load_experiment(path, overrides=()):
    """Parse and validate a configuration file into an ExperimentSpec.

    overrides holds (source, section, key, raw) entries, applied after the
    file in order, so a later entry wins; source (a flag or variable name)
    is named in the error message of a value it supplied.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:  # the same spec whatever the locale
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sources = {}
    for source, section, key, raw in overrides:
        parser.read_dict({section: {key: raw}}, source)
        sources[section, key] = source

    given = {ExperimentSpec: {}, LineSearchConfig: {}, PenaltyPolicy: {}}
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(sorted(KEYS))}")
        for key, raw in parser.items(section):
            where = f"[{section}] {key}"
            if (section, key) in sources:
                where += f" (from {sources[section, key]})"
            if key not in KEYS[section]:
                raise ConfigError(f"{where}: unknown key; known: "
                                  f"{', '.join(sorted(KEYS[section]))}")
            owner, name, parse = KEYS[section][key]
            try:
                given[owner][name] = parse(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc

    spec = given[ExperimentSpec]
    if "problems" not in spec:
        raise ConfigError("[experiment] problems is required")
    if "budget_iters" in spec:  # [budget] iters alone sets no evaluation budget
        spec.setdefault("budget_evals", None)
    # linesearch and policy keys left out keep ExperimentSpec's defaults
    for field, values in (("linesearch", given[LineSearchConfig]),
                          ("policy", given[PenaltyPolicy])):
        try:
            spec[field] = replace(getattr(ExperimentSpec, field), **values)
        except ValueError as exc:
            raise ConfigError(f"[{field}] {exc}") from exc
    try:
        return ExperimentSpec(**spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

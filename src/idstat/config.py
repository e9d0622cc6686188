"""Run configuration: defaults, key=value config file, IDSTAT_* environment
variables, and explicit overrides, applied in that order."""

from __future__ import annotations

import os

from .errors import InputError, count, file_path

MODES = ("dimensionless", "si")
OUTPUT_FORMATS = ("json", "csv", "pretty")

#: Member order of the distinct-level three-particle basis, everywhere a
#: six-vector decomposition is reported; the `--member` choices.
ORBIT_BASIS_NAMES = ("sym", "antisym", "s1", "s2", "s1p", "s2p")

ENV_PREFIX = "IDSTAT_"

_FIELDS = ("mode", "output", "seed")


def _checked(settings: dict) -> dict:
    """`settings` after the rule of each key it sets, in field order."""
    if "mode" in settings and settings["mode"] not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {settings['mode']!r}")
    if "output" in settings and settings["output"] not in OUTPUT_FORMATS:
        raise InputError(f"output must be one of {OUTPUT_FORMATS}, got {settings['output']!r}")
    if "seed" in settings:
        count(settings["seed"], "seed")
    return settings


class RunConfig:
    """Execution settings shared by the command-line entry points."""

    __slots__ = _FIELDS

    def __init__(self, mode: str = "dimensionless", output: str = "pretty", seed: int = 0):
        _checked({"mode": mode, "output": output, "seed": seed})
        self.mode, self.output, self.seed = mode, output, seed


def _coerce(key: str, value: str):
    value = value.strip()
    if key == "seed":
        try:
            return int(value)
        except ValueError:
            raise InputError(f"config key {key} needs an integer, got {value!r}") from None
    return value


def parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    path, settings = file_path(path, "config file"), {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = _coerce(key, value)
    return settings


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    settings: dict = {}
    for key in _FIELDS:
        raw = environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            settings[key] = _coerce(key, raw)
    return settings


def load_config(
    config_path: str | None = None,
    environ=None,
    overrides: dict | None = None,
) -> RunConfig:
    """Defaults, then config file, then environment, then explicit
    overrides.  Each layer's settings are checked as it is read, so a bad
    value is refused even where a later layer overrides it."""
    settings = _checked(parse_config_file(config_path)) if config_path is not None else {}
    settings.update(_checked(env_overrides(environ)))
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(clean) - set(_FIELDS)
        if unknown:
            raise InputError(f"unknown config overrides: {sorted(unknown)}")
        settings.update(_checked(clean))
    return RunConfig(**settings)

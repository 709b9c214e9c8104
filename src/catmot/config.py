"""Layered run configuration of ``verify``: one value, n_max.

Precedence, lowest to highest: built-in default, config file (plain
key=value lines), environment variable (CATMOT_ prefix), command-line
flag.  Any other key or CATMOT_ variable is refused.  The effective value
is echoed into every report so a run can be reproduced from its output
alone.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple, Optional

ENV_PREFIX = "CATMOT_"


class Settings(NamedTuple):
    n_max: int = 30

    def echo(self) -> dict[str, str]:
        return {name: str(value) for name, value in zip(self._fields, self)}


# every default is an int, and values parse to that type
_FIELD_TYPES = {name: type(value) for name, value in Settings._field_defaults.items()}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _FIELD_TYPES[key](raw)
    except ValueError:
        raise ValueError(f"bad value for config key {key!r}: {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Read key=value lines; blank lines and # comments are ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            values[key] = _parse_value(key, raw.strip())
    return values


def _env_overrides(environ: Mapping[str, str]) -> dict:
    fields = {ENV_PREFIX + name.upper(): name for name in _FIELD_TYPES}
    # a retired or misspelt variable is refused, as a config file's key is
    unknown = sorted(var for var in environ if var.startswith(ENV_PREFIX) and var not in fields)
    if unknown:
        raise ValueError(f"unknown environment variable {unknown[0]!r}")
    return {name: _parse_value(name, environ[var]) for var, name in fields.items() if var in environ}


def load_settings(
    config_path: Optional[str] = None,
    environ: Optional[Mapping[str, str]] = None,
    flag_overrides: Optional[Mapping[str, object]] = None,
) -> Settings:
    values: dict = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update(_env_overrides(os.environ if environ is None else environ))
    if flag_overrides:
        values.update({k: v for k, v in flag_overrides.items() if v is not None})
    settings = Settings(**values)
    if settings.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {settings.n_max}")
    return settings

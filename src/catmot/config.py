"""Run configuration of ``verify``: one value, n_max.

It comes from the ``--n-max`` flag or the built-in default, and from
nowhere else: every CATMOT_ environment variable is refused, so a run
cannot be changed by its environment.  The effective value is echoed into
every report so a run can be reproduced from its output alone.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple, Optional

ENV_PREFIX = "CATMOT_"


class Settings(NamedTuple):
    n_max: int = 30

    def echo(self) -> dict[str, str]:
        return {name: str(value) for name, value in zip(self._fields, self)}


def load_settings(n_max: Optional[int] = None, environ: Optional[Mapping] = None) -> Settings:
    """The settings of one ``verify`` request: ``n_max`` from the flag, or
    the default when it is None.  Refuses with ValueError a negative n_max
    and any set CATMOT_ variable (``environ`` defaults to ``os.environ``)."""
    environ = os.environ if environ is None else environ
    unknown = sorted(var for var in environ if var.startswith(ENV_PREFIX))
    if unknown:
        raise ValueError(f"unknown environment variable {unknown[0]!r}")
    settings = Settings() if n_max is None else Settings(n_max)
    if settings.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {settings.n_max}")
    return settings

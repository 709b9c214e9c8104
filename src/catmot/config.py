"""Run configuration of ``verify``: one int, n_max.

It comes from the ``--n-max`` flag or the default ``N_MAX``, and from
nowhere else: every CATMOT_ environment variable is refused, so a run
cannot be changed by its environment.  ``verify`` echoes the effective
value into every report so a run can be reproduced from its output alone.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

ENV_PREFIX = "CATMOT_"
N_MAX = 30


def load_settings(n_max: Optional[int] = None, environ: Optional[Mapping] = None) -> int:
    """The n_max of one ``verify`` request: the flag's, or ``N_MAX`` when it
    is None.  Refuses with ValueError a negative n_max and any set CATMOT_
    variable (``environ`` defaults to ``os.environ``)."""
    environ = os.environ if environ is None else environ
    unknown = sorted(var for var in environ if var.startswith(ENV_PREFIX))
    if unknown:
        raise ValueError(f"unknown environment variable {unknown[0]!r}")
    if n_max is None:
        return N_MAX
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return n_max

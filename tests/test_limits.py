"""The n-limit contract of the CLI: a request either runs, with every row
finite, or is refused up front with exit 2 and one message.

Requests are drawn near and past each measured limit (310 for a forced
engine, 509 for the Catalan entries, 645 for the Motzkin entries and the
transforms) with the engine settings that move where a float overflows.
Every request runs in-process, so an uncaught exception fails the test.
"""

import csv
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from catmot.catalog import VALID_RULE_OVERRIDES, list_representations
from catmot.cli import main
from catmot.quadrature import _MIN_REL_TOL
from catmot.transform import FORMS

ENTRY_IDS = [rep.id for rep in list_representations()]
LIMIT_MESSAGE = re.compile(r"\S+ takes n >= (\d+) and n <= (\d+) with the [a-z-]+ rule, got (-?\d+)")

near_limits = st.one_of(
    st.integers(300, 330), st.integers(500, 520), st.integers(640, 660), st.integers(0, 1100)
)


@st.composite
def verify_requests(draw):
    selector = draw(st.sampled_from(ENTRY_IDS + ["all"]))
    lo = draw(near_limits)
    hi = lo + draw(st.integers(0, 1))
    rule = draw(st.sampled_from((None,) + VALID_RULE_OVERRIDES))
    argv = ["verify", selector, "--n-range", f"{lo}..{hi}",
            "--n-max", str(hi + draw(st.integers(0, 500)))]
    if rule is not None:
        argv += ["--rule", rule]
    # each level doubles a non-converging row's work: a forced engine on
    # every entry at once stays at few levels to keep the test fast
    levels = draw(st.none() | st.integers(3, 8 if rule and selector == "all" else 16))
    for flag, value in (
        ("--tol", draw(st.sampled_from([None, 1e-13, 1e-9, 1e-6]))),
        ("--rel-tol", draw(st.sampled_from([None, _MIN_REL_TOL, 1e-11, 1e-6]))),
        ("--max-levels", levels),
    ):
        if value is not None:
            argv += [flag, str(value)]
    return argv + ["--format", draw(st.sampled_from(["csv", "json", "md"]))]


transform_requests = st.builds(
    lambda form, n: ["transform", form, "--n", str(n)],
    st.sampled_from(sorted(FORMS)),
    st.one_of(near_limits, st.integers(-3, 3)),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject(token):
    raise ValueError(f"not strict JSON: {token}")


def _row_values(fmt, out):
    """(estimate, rel_err) of every row of a verify report."""
    if fmt == "json":
        rows = json.loads(out, parse_constant=_reject)["rows"]
        return [(row["estimate"], row["rel_err"]) for row in rows]
    if fmt == "csv":
        return [(float(row["estimate"]), float(row["rel_err"]))
                for row in csv.DictReader(io.StringIO(out))]
    cells = [line.split(" | ") for line in out.splitlines()[2:] if line.startswith("| ")]
    return [(float(c[3]), float(c[4])) for c in cells]


@given(st.one_of(verify_requests(), transform_requests))
@example(["verify", "cat.eq8", "--n-range", "510..510", "--n-max", "600"])
@example(["verify", "cat.eq7", "--n-range", "512..512", "--n-max", "600", "--format", "json"])
@example(["verify", "mot.13a", "--n-range", "646..646", "--n-max", "700"])
@example(["verify", "mot.13a", "--rule", "tanh-sinh", "--n-range", "311..311",
          "--n-max", "400", "--rel-tol", str(_MIN_REL_TOL), "--max-levels", "10"])
@example(["transform", "cat.eq2", "--n", "646"])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_request_runs_finite_or_is_refused_up_front(argv):
    code, out, err = _run(argv)
    if code == 2:
        prefix = f"catmot {argv[0]}: error: "
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1, err
        message = err[len(prefix):-1]
        limit = LIMIT_MESSAGE.fullmatch(message)
        assert limit, message
        n_min, n_max, n = map(int, limit.groups())
        assert not n_min <= n <= n_max, message
        return
    assert code in (0, 1) and err == ""
    if argv[0] == "transform":
        values = [float(line.split(": ")[1].split(" ")[0]) for line in out.splitlines()
                  if "deviation" in line or line.startswith(("integral", "exact"))]
    else:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        values = [v for row in _row_values(fmt, out) for v in row]
    assert values and all(math.isfinite(v) for v in values), out


def test_theta_limits_hold_from_both_sides():
    # the last n of each family runs and passes on every entry that takes it
    code, out, err = _run(["verify", "all", "--n-range", "509..509", "--n-max", "509"])
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (0, "", 19)
    assert all(row.endswith(",true") for row in rows)
    code, out, err = _run(["verify", "mot.13a", "--n-range", "645..645", "--n-max", "645"])
    assert (code, err) == (0, "") and out.splitlines()[1].endswith(",true")
    # and the next n is refused up front
    for rep_id, limit in (("cat.eq8", 509), ("mot.13a", 645)):
        n = limit + 1
        code, out, err = _run(["verify", rep_id, "--n-range", f"{n}..{n}", "--n-max", "700"])
        assert (code, out) == (2, "")
        assert err == (f"catmot verify: error: {rep_id} takes n >= 0 and n <= {limit}"
                       f" with the chebyshev rule, got {n}\n")

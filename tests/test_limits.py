"""The n-limit contract of the CLI: a request either runs, with every row
finite, or is refused up front with exit 2 and one message.

Requests are drawn near and past each measured limit (509 for the Catalan
entries, 645 for the Motzkin entries and the transforms, under either rule;
r + s = 20,000 for lemma1; the int-to-str digit limit for table), and at
n 300..330, where a kernel that grows like 3^n overflows near an endpoint
under a forced engine unless the exact prefactor holds that growth.  Every
request runs in-process, so an uncaught exception fails the test.
"""

import csv
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catmot import quadrature
from catmot.catalog import VALID_RULE_OVERRIDES, Family, list_representations
from catmot.cli import main
from catmot.exact import catalan, motzkin_oracle
from catmot.transform import FORMS
from exact_coeffs import wallis

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
    tol = draw(st.sampled_from([None, 1e-13, 1e-9, 1e-6]))
    if tol is not None:
        argv += ["--tol", str(tol)]
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
@example(["verify", "mot.13a", "--rule", "tanh-sinh", "--n-range", "645..645", "--n-max", "700"])
@example(["verify", "cat.eq8", "--rule", "tanh-sinh", "--n-range", "510..510", "--n-max", "600"])
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


def test_non_converged_rows_at_the_family_limits_stay_finite(monkeypatch):
    # at three levels the forced rows at each family's limit do not converge:
    # they exit 1 with finite values, labelled, not refused and not raised
    monkeypatch.setattr(quadrature, "_MAX_LEVELS", 3)
    requests = [("all", 509)] + [(rep.id, 645) for rep in list_representations(Family.MOTZKIN)]
    rows = []
    for selector, n in requests:
        argv = ["verify", selector, "--rule", "tanh-sinh", "--n-range", f"{n}..{n}", "--n-max", str(n)]
        code, out, err = _run(argv + ["--format", "json"])
        report = json.loads(out, parse_constant=_reject)
        assert (code, err) == (0 if report["summary"]["failed"] == 0 else 1, "")
        rows += report["rows"]
    assert len(rows) == 19 + 8
    assert any(not row["converged"] and row["rule"].endswith("[non-converged]")
               for row in rows[:19])
    assert any(not row["converged"] and row["rule"].endswith("[non-converged]")
               for row in rows[19:])
    assert all(math.isfinite(row["estimate"]) and math.isfinite(row["rel_err"]) for row in rows)


@st.composite
def lemma1_requests(draw):
    # r + s near 0 and near the 20,000 cap, on both sides of it; one of r
    # and s small (or -1), so that most near-cap sides stay normal floats
    total = draw(st.one_of(st.integers(0, 12), st.integers(19_990, 20_010)))
    r = draw(st.one_of(st.integers(-1, 6), st.integers(total - 6, total + 1)))
    argv = ["lemma1", str(r), str(total - r)]
    a = draw(st.sampled_from([None, "1", "2.5", "0.3", "3.141592653589793",  # valid
                              "0", "-1", "inf", "nan", "5e-324", "5.8e307", "1e-323", "x"]))
    return argv if a is None else argv + ["--a", a]


table_requests = st.builds(lambda n: ["table", str(n)], st.integers(-3, 100))


def _run_catching_usage(argv):
    """_run, with the parser's own refusals (a value it cannot convert) as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _lemma1_fields(out):
    """label -> value text of every line of a lemma1 report."""
    return dict(map(str.strip, line.split(" : ")) for line in out.splitlines())


@given(st.one_of(lemma1_requests(), table_requests))
@example(["lemma1", "3", "19997"])
@example(["lemma1", "19997", "3", "--a", "2.5"])
@example(["lemma1", "10000", "10000"])  # the exact side underflows
@example(["table", "7153"])  # C(7153) has more than 4,300 digits
@settings(max_examples=80, deadline=None, derandomize=True)
def test_lemma1_and_table_print_exact_values_or_are_refused_up_front(argv):
    code, out, err = _run_catching_usage(argv)
    if code == 2:
        assert out == "" and err.startswith(f"catmot {argv[0]}: error: ") and err.count("\n") == 1, err
        return
    assert code in (0, 1) and err == "", (code, err)
    if argv[0] == "table":
        rows = [line.split() for line in out.splitlines()[1:]]
        assert code == 0 and len(rows) == int(argv[1]) + 1
        assert rows == [[str(n), str(catalan(n)), str(motzkin_oracle(n))] for n in range(len(rows))]
        return
    fields = _lemma1_fields(out)
    numbers = [float(text.split(" ")[0]) for label, text in fields.items() if label != "result"]
    assert len(numbers) == 8 and all(map(math.isfinite, numbers)), out
    r, s = int(argv[1]), int(argv[2])
    a = float(argv[4]) if len(argv) > 3 else 1.0
    exact = float(fields["exact over (0, a/2)"])
    assert exact == pytest.approx(a / math.pi * wallis(r, s), rel=1e-14), out
    assert float(fields["exact over (a/2, a)"]) == (-exact if r % 2 else exact)
    assert fields["result"] == ("OK" if code == 0 else "MISMATCH")

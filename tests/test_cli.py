import json
import math
import os
import subprocess
import sys
import threading
from math import comb
from pathlib import Path

import pytest

from catmot import __version__
from catmot.catalog import VALID_RULE_OVERRIDES, VerificationRow, get_representation, verify
from catmot.cli import main
from catmot.config import ENV_PREFIX, Settings, load_settings, parse_config_file
from catmot.exact import motzkin, motzkin_oracle
from catmot.quadrature import QuadConfig
from catmot.report import CSV_HEADER, Report
from catmot.transform import get_form, motzkin_representation
from exact_coeffs import wallis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- start-up ------------------------------------------------------------------

# every request is a fresh process: modules that only some commands need, or
# that only class-building machinery needs, must not load on start-up; `table`
# needs only the exact integers, and `import catmot.cli` builds no catalog
STARTUP_CHECK = """
import sys
before = set(sys.modules)
import catmot.cli
def loaded():
    new = set(sys.modules) - before
    print(sorted({"dataclasses", "inspect", "json"} & new), sorted({
        "catmot.catalog", "catmot.quadrature", "catmot.polys", "catmot.transform",
        "catmot.config", "catmot.report", "fractions",
    } & new))
loaded()
try:
    catmot.cli.main(["--version"])
except SystemExit:
    pass
loaded()
catmot.cli.main(["table", "5"])
loaded()
"""


def test_startup_loads_no_dataclass_or_json_machinery():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["[] []", f"catmot {__version__}", "[] []"]
    assert (len(lines), lines[-2].split(), lines[-1]) == (11, ["5", "42", "21"], "[] []")


# -- list ----------------------------------------------------------------------

def test_list_counts(capsys):
    code, out, _ = run(capsys, "list", "--family", "catalan", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 11
    code, out, _ = run(capsys, "list", "--family", "motzkin", "--format", "json")
    assert len(json.loads(out)) == 8
    code, out, _ = run(capsys, "list", "--format", "json")
    payload = json.loads(out)
    assert len(payload) == 19
    assert payload[0]["id"] == "cat.eq2"
    assert all("statement" in entry for entry in payload)


def test_list_table_mentions_every_id(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for rid in ("cat.eq2", "cat.conc2", "mot.13b"):
        assert rid in out


# -- table -----------------------------------------------------------------------

def test_table_small(capsys):
    code, out, _ = run(capsys, "table", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + rows 0..4
    assert lines[-1].split() == ["4", "14", "9"]


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].split() == ["0", "1", "1"]


def test_table_large_values_stay_exact(capsys):
    code, out, _ = run(capsys, "table", "30")
    assert code == 0
    assert "3814986502092304" in out  # never a float rendering


def test_table_rows_match_independent_sequences(capsys):
    code, out, _ = run(capsys, "table", "300")
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.splitlines()[1:]]
    assert [n for n, _, _ in rows] == list(range(301))
    cat = [comb(2 * n, n) // (n + 1) for n in range(301)]
    for n, c, m in rows:
        assert c == cat[n]
        assert m == sum(comb(n, 2 * k) * cat[k] for k in range(n // 2 + 1)), n
    assert rows[-1][2] == motzkin_oracle(300)


def test_table_past_the_digit_limit_prints_nothing(capsys):
    # C(n) passes 640 digits near n = 1070: the table is refused whole,
    # never cut off after the last row that still converts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "table", "1200")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert "640 digits" in err and len(err.splitlines()) == 1


# -- verify ----------------------------------------------------------------------

def test_verify_single_entry_csv(capsys):
    code, out, _ = run(capsys, "verify", "cat.eq9", "--n-range", "0..20", "--tol", "1e-11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_all_row_count(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n-range", "0..12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["total"] == 246  # 19 * 13 - 1: cat.conc2 skips n=0
    assert payload["summary"]["failed"] == 0
    assert payload["tool_version"] == __version__


def test_verify_markdown(capsys):
    code, out, _ = run(capsys, "verify", "mot.13a", "--n-range", "0..20",
                       "--tol", "1e-8", "--format", "md")
    assert code == 0
    assert out.startswith("| rep_id |")
    assert "21 rows: 21 passed, 0 failed, 0 non-converged" in out


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "verify", "cat.eq99")
    assert code == 2
    assert "unknown representation" in err


def test_verify_range_above_n_max_exits_2(capsys):
    code, _, err = run(capsys, "verify", "cat.eq2", "--n-range", "0..40")
    assert code == 2
    assert "n_max" in err
    # raising the cap makes the same range valid
    code, _, _ = run(capsys, "verify", "cat.eq2", "--n-range", "31..33", "--n-max", "33", "--tol", "1e-6")
    assert code == 0


def test_verify_explicit_range_below_n_min_exits_2(capsys):
    code, _, err = run(capsys, "verify", "cat.conc2", "--n-range", "0..5")
    assert code == 2
    assert "n >= 1" in err
    # the default range silently clamps instead
    code, out, _ = run(capsys, "verify", "cat.conc2")
    assert code == 0
    assert len(out.strip().splitlines()) == 21  # header + n = 1..20


def test_verify_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.csv"
    code, _, err = run(capsys, "verify", "cat.eq9", "--n-range", "0..1", "--out", str(target))
    assert code == 2
    assert "error" in err


def test_verify_failure_exit_code(capsys):
    # an absurd tolerance cannot be met: exit 1, rows marked false
    code, out, _ = run(capsys, "verify", "cat.eq3", "--n-range", "10..10", "--tol", "1e-18")
    assert code == 1
    assert out.strip().splitlines()[-1].endswith(",false")


def test_verify_rule_override_flag(capsys):
    code, out, _ = run(capsys, "verify", "cat.eq9", "--n-range", "2..2", "--rule", "tanh-sinh")
    assert code == 0
    assert "tanh-sinh" in out


@pytest.mark.parametrize("argv", [
    ("verify", "cat.eq9", "--n-range", "2..2", "--rule", "gauss-kronrod"),
    ("verify", "cat.eq9", "--n-range", "2..2", "--max-subdivisions", "10"),
])
def test_removed_gauss_kronrod_options_are_usage_errors(capsys, argv):
    # tanh-sinh is the one forced cross-check; its subdivision budget is gone too
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_removed_abs_tol_is_refused_from_every_source(source, tmp_path, capsys, monkeypatch):
    # every engine test is relative; no caller set the absolute floor
    argv = ["verify", "cat.eq9", "--n-range", "2..2"]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--abs-tol", "0"])
        code, out, err = exc.value.code, *capsys.readouterr()
        message = "catmot: error: unrecognized arguments: --abs-tol 0\n"
    elif source == "env":
        monkeypatch.setenv(ENV_PREFIX + "ABS_TOL", "0")
        code, out, err = run(capsys, *argv)
        message = f"catmot verify: error: unknown environment variable '{ENV_PREFIX}ABS_TOL'\n"
    else:
        cfg = tmp_path / "catmot.conf"
        cfg.write_text("abs_tol=0\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        message = "catmot verify: error: unknown config key 'abs_tol'\n"
    assert (code, out, err) == (2, "", message)


def test_removed_config_key_is_refused(capsys, tmp_path):
    cfg = tmp_path / "catmot.conf"
    cfg.write_text("max_subdivisions=2000\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", "2..2", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "catmot verify: error: unknown config key 'max_subdivisions'\n"


def test_rule_choices_are_the_catalogs():
    # the parser spells the rules out so that building it imports no catalog
    from catmot.cli import _RULES

    assert _RULES == VALID_RULE_OVERRIDES


def test_verify_forced_rule_refused_before_any_row_runs(capsys, monkeypatch):
    # every entry takes n = 0..310 with a forced engine, none takes 311: no
    # engine may run first
    import catmot.catalog

    def engine_called(*args, **kwargs):
        raise AssertionError("an engine ran before the rule was refused")

    for name in ("tanh_sinh", "chebyshev_sum_first", "chebyshev_sum_second"):
        monkeypatch.setattr(catmot.catalog, name, engine_called)
    code, out, err = run(capsys, "verify", "all", "--rule", "tanh-sinh",
                         "--n-range", "0..311", "--n-max", "400")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        "catmot verify: error: cat.eq2 takes n >= 0 and n <= 310 with the tanh-sinh rule, got 311"
    )


def test_verify_forced_tanh_sinh_passes_every_row(capsys):
    # each double-exponential level runs out to its last usable node, so an
    # integrand whose mass sits near an endpoint converges on every entry,
    # the semi-infinite ones included
    code, out, err = run(capsys, "verify", "all", "--rule", "tanh-sinh",
                         "--n-range", "0..100", "--n-max", "100")
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 19 * 101 - 1  # cat.conc2 starts at n = 1
    assert all(row.endswith(",true") and ",tanh-sinh[level=" in row for row in rows)


@pytest.mark.parametrize("raw", ["3..", "..5", "a..b", "3...5", "1e2", "5..3", ""])
def test_verify_malformed_n_range_exits_2(capsys, raw):
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", raw)
    assert code == 2
    assert out == ""
    assert err == f"catmot verify: error: bad n range {raw!r}\n"


def test_verify_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "verify", "all", "--n-range", "0..6", "--out", str(a))[0] == 0
    assert run(capsys, "verify", "all", "--n-range", "0..6", "--out", str(b), "--jobs", "4")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_runs_every_row_on_the_calling_thread(capsys, monkeypatch):
    # --jobs is accepted and echoed, but no row leaves the calling thread;
    # cmd_verify reads catalog.verify when it runs
    import catmot.catalog

    threads = []

    def recording_verify(*args):
        threads.append(threading.get_ident())
        return verify(*args)

    monkeypatch.setattr(catmot.catalog, "verify", recording_verify)
    code, out, err = run(capsys, "verify", "all", "--n-range", "0..6", "--jobs", "4",
                         "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["config_echo"]["jobs"] == "4"
    assert len(threads) == len(report["rows"]) > 0
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("flag, value", [("--rel-tol", "inf"), ("--rel-tol", "nan")])
def test_verify_non_finite_tolerance_exits_2(capsys, flag, value):
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", "0..1", flag, value)
    assert code == 2
    assert out == ""
    assert flag[2:].replace("-", "_") in err


def test_verify_non_finite_tolerance_from_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(ENV_PREFIX + "REL_TOL", "inf")
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", "0..1")
    assert code == 2
    assert out == ""
    assert "rel_tol" in err


def test_verify_max_levels_above_cap_exits_2(capsys):
    # each double-exponential level runs to t_max: level 16 alone is ~0.4M evaluations
    code, out, err = run(capsys, "verify", "cat.eq3", "--n-range", "1..1", "--max-levels", "17")
    assert code == 2
    assert out == ""
    assert "max_levels must be in 3..16" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_verify_tol_must_be_positive_and_finite(capsys, tol):
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", "0..1", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == "catmot verify: error: tol must be positive and finite\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_exits_2(capsys, jobs):
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", "0..1", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("argv", [
    # the prefactor 4^600/601 does not fit a float
    ("verify", "cat.eq4", "--n-range", "600..600", "--n-max", "1000"),
    # 3^700 overflows a float ** int power
    ("verify", "mot.12e", "--n-range", "700..700", "--n-max", "1000"),
    ("transform", "cat.eq6", "--n", "700"),
    # past the kernels' float range: refused before any coefficient is built
    ("transform", "cat.eq9", "--n", "5000"),
    ("transform", "cat.eq4", "--n", "2000"),
], ids=[
    "verify-cat.eq4-600",
    "verify-mot.12e-700",
    "transform-cat.eq6-700",
    "transform-cat.eq9-5000",
    "transform-cat.eq4-2000",
])
def test_verify_float_overflow_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"catmot {argv[0]}: error:")
    assert err.count("\n") == 1 and "(34," not in err


@pytest.mark.parametrize("argv", [
    ("table", "3", "--n-max", "6"),
    ("transform", "cat.eq5", "--rel-tol", "1e-3"),
    ("lemma1", "2", "0", "--max-levels", "0"),
    ("list", "--config", "catmot.cfg"),
])
def test_config_flags_only_on_verify(capsys, argv):
    # only verify reads the layered config; elsewhere the flags are usage errors
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# -- transform -------------------------------------------------------------------

def test_transform_simple_pairing(capsys):
    code, out, _ = run(capsys, "transform", "cat.eq5", "--n", "8", "--check-points", "64")
    assert code == 0
    assert "(simple transform)" in out
    assert "mot.12a" in out and "pointwise" in out


def test_transform_phi_pairing(capsys):
    code, out, _ = run(capsys, "transform", "cat.eq2", "--n", "4")
    assert code == 0
    assert "(phi transform)" in out
    assert "mot.13b" in out and "value-only" in out


def test_transform_unpaired_form_checks_exact_value(capsys):
    # cat.eq3 has no catalog twin: its lines are the derived entry's verify
    # row, compared against the exact Motzkin number
    derived = motzkin_representation(get_form("cat.eq3"))
    for n in (0, 6, 100, 645):
        code, out, err = run(capsys, "transform", "cat.eq3", "--n", str(n))
        row = verify(derived, n)
        assert row.exact == motzkin(n) and row.rel_err <= 1e-10, n
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "catalan form : cat.eq3 (phi transform)",
            f"paired entry : none; comparing the integral against exact M({n})",
            f"integral     : {row.estimate!r}",
            f"exact        : {float(row.exact)!r}",
            f"rel deviation: {row.rel_err:.3e} (threshold 1e-10)",
        ]


def test_transform_unknown_form_exits_2(capsys):
    code, _, err = run(capsys, "transform", "cat.conc1")
    assert code == 2


@pytest.mark.parametrize("catalan_id", ["cat.eq9", "cat.eq4"])  # simple and phi kernels
def test_transform_n_limit_is_the_motzkin_limit(capsys, catalan_id):
    # a transform is a derived Motzkin entry and takes the Motzkin entries' n
    code, out, _ = run(capsys, "transform", catalan_id, "--n", "645")
    assert code == 0 and out
    code, out, err = run(capsys, "transform", catalan_id, "--n", "646")
    assert (code, out) == (2, "")
    assert f"{catalan_id}->motzkin takes n >= 0 and n <= 645" in err


@pytest.mark.parametrize("catalan_id, points", [
    ("cat.eq5", "0"),  # pointwise pair
    ("cat.eq2", "0"),  # value-only pair
    ("cat.eq3", "-5"),  # unpaired
])
def test_transform_check_points_below_one_exits_2(capsys, catalan_id, points):
    code, out, err = run(capsys, "transform", catalan_id, "--check-points", points)
    assert code == 2
    assert out == ""
    assert "--check-points must be at least 1" in err


def test_transform_check_points_above_the_cap_exits_2(capsys):
    # refused before any sample point is built
    code, out, err = run(capsys, "transform", "cat.eq5", "--check-points", "100001")
    assert (code, out) == (2, "")
    assert err == ("catmot transform: error: --check-points must be at least 1 "
                   "and at most 100000, got 100001\n")


# -- lemma1 ----------------------------------------------------------------------

def test_lemma1_even_instance(capsys):
    code, out, _ = run(capsys, "lemma1", "2", "0", "--a", "3.14159265358979", "--tol", "1e-10")
    assert code == 0
    assert "OK" in out


def test_lemma1_odd_instance(capsys):
    code, out, _ = run(capsys, "lemma1", "3", "2", "--a", "1.0", "--tol", "1e-10")
    assert code == 0
    assert "-1" in out  # sign factor


def test_lemma1_invalid_a_exits_2(capsys):
    code, _, err = run(capsys, "lemma1", "0", "0", "--a", "-1.0")
    assert code == 2


@pytest.mark.parametrize("a", ["inf", "nan"])
def test_lemma1_non_finite_a_exits_2(capsys, a):
    code, out, err = run(capsys, "lemma1", "2", "0", "--a", a)
    assert code == 2
    assert out == ""
    assert err == "catmot lemma1: error: a must be positive and finite\n"


@pytest.mark.parametrize("a", ["5e-324", "5.8e307"])
def test_lemma1_a_whose_half_underflows_or_pi_multiple_overflows_exits_2(capsys, a):
    code, out, err = run(capsys, "lemma1", "3", "2", "--a", a)
    assert (code, out) == (2, "")
    assert err.startswith("catmot lemma1: error: a must have a/2 > 0 and pi*a finite")


def test_lemma1_infinite_tol_exits_2(capsys):
    # an infinite tolerance would accept any two sides
    code, out, err = run(capsys, "lemma1", "1", "0", "--tol", "inf")
    assert (code, out) == (2, "")
    assert err == "catmot lemma1: error: tol must be positive and finite\n"


def test_lemma1_integrates_each_side_once(capsys, monkeypatch):
    import catmot.quadrature

    calls = []
    engine = catmot.quadrature.tanh_sinh
    monkeypatch.setattr(
        catmot.quadrature, "tanh_sinh", lambda *a: calls.append(a[1:3]) or engine(*a)
    )
    code, out, _ = run(capsys, "lemma1", "2", "1")
    assert code == 0 and "OK" in out
    assert calls == [(0.0, 0.5), (0.5, 1.0)]


def test_lemma1_sides_match_the_wallis_integral(capsys):
    # at r = s = 50 each side is 5e-17: an absolute floor of 1e-16 let both
    # read 5.4% off, and an absolute comparison below tol passed them
    code, out, err = run(capsys, "lemma1", "50", "50")
    assert (code, err) == (0, "")
    lines = {key.strip(): value for key, value in (line.split(" : ") for line in out.splitlines())}
    exact = wallis(50, 50) / math.pi
    for span in ("(0, a/2)", "(a/2, a)"):
        assert abs(float(lines[f"int over {span}"]) - exact) <= 1e-10 * exact
        assert float(lines[f"exact over {span}"]) == pytest.approx(exact, rel=1e-14)
        rel_err, state = lines[f"rel err {span}"].split(" (")
        assert float(rel_err) <= 1e-10 and state == "converged)"
    assert lines["result"] == "OK"


def test_lemma1_non_converged_side_is_a_mismatch(capsys, monkeypatch):
    import catmot.quadrature

    engine = catmot.quadrature.tanh_sinh
    monkeypatch.setattr(catmot.quadrature, "tanh_sinh",
                        lambda *a: engine(*a)._replace(converged=False))
    code, out, err = run(capsys, "lemma1", "7", "3")
    assert (code, err) == (1, "")
    assert out.count("(not converged)") == 2
    assert out.splitlines()[-1] == "result              : MISMATCH"


@pytest.mark.parametrize("r, s, message", [
    # past the largest r + s, and an exact side that underflows
    ("0", "10000000", "r and s must be nonnegative with r + s <= 20000, got 0 and 10000000"),
    ("5000", "5000", "the exact side (a/pi)*W(5000, 5000) = 0.0 is not a normal float"),
])
def test_lemma1_out_of_reach_is_refused(capsys, r, s, message):
    code, out, err = run(capsys, "lemma1", r, s)
    assert (code, out, err) == (2, "", f"catmot lemma1: error: {message}\n")


# -- report serialization ---------------------------------------------------------

def _small_report():
    rows = [
        verify(get_representation(rid), n)
        for rid in ("cat.eq9", "mot.13b")
        for n in (0, 3)
    ]
    # include a non-converged row so serialization covers the failure shape;
    # its estimate is within tolerance, so only convergence fails it
    cfg = QuadConfig(rel_tol=1e-12, max_levels=3)
    rows.append(verify(get_representation("cat.eq9"), 2, cfg, rule="tanh-sinh"))
    return Report(tool_version=__version__, config_echo={"n_max": "30"}, rows=tuple(rows))


def test_report_json_round_trip():
    report = _small_report()
    obj = json.loads(report.to_json())
    assert obj["tool_version"] == report.tool_version
    assert obj["config_echo"] == report.config_echo
    assert obj["summary"] == report.summary
    assert [
        VerificationRow(
            rep_id=r["rep_id"],
            n=r["n"],
            exact=int(r["exact"]),
            estimate=r["estimate"],
            rel_err=r["rel_err"],
            evaluations=r["evaluations"],
            rule=r["rule"],
            passed=r["pass"],
            converged=r["converged"],
        )
        for r in obj["rows"]
    ] == list(report.rows)


def _json_reference(report: Report) -> str:
    """The report through the pure-Python encoder, the one indent=2 selects."""
    obj = {
        "tool_version": report.tool_version,
        "config_echo": report.config_echo,
        "summary": report.summary,
        "rows": [
            {
                "rep_id": r.rep_id, "n": r.n, "exact": str(r.exact), "estimate": r.estimate,
                "rel_err": r.rel_err, "evaluations": r.evaluations, "rule": r.rule,
                "pass": r.passed, "converged": r.converged,
            }
            for r in report.rows
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_report_json_is_the_indented_encoding():
    # the rows go through the C encoder, with only their boundaries rewritten
    def row(rep_id="cat.eq2", n=3, estimate=5.0, rule="gauss-chebyshev-1[N=4]"):
        return VerificationRow(rep_id, n, 5, estimate, 0.0, 4, rule, True, True)

    odd = 'a"b\\c\nd},\n      {e \u00e9\u2211 "rows": []'
    reports = [
        Report(tool_version=__version__, config_echo={}),
        Report(tool_version=__version__, config_echo={"n_max": "30"}),
        Report(tool_version=__version__, config_echo={"n_max": "30"}, rows=(row(),)),
        Report(
            tool_version=__version__,
            config_echo={"n_max": "30"},
            rows=tuple(row(n=n, estimate=x) for n, x in enumerate(
                (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 0.1)
            )),
        ),
        Report(
            tool_version=odd,
            config_echo={"selector": odd, odd: "x", "rule": "auto"},
            rows=(row(rep_id=odd), row(rule=odd), row(rep_id=odd, rule=odd, n=4)),
        ),
        _small_report(),
    ]
    for report in reports:
        assert report.to_json() == _json_reference(report)


def test_report_rows_sorted_and_summary_consistent():
    report = _small_report()
    keys = [(r.rep_id, r.n) for r in report.rows]
    assert keys == sorted(keys)
    s = report.summary
    assert s["total"] == len(report.rows) == 5
    assert s["passed"] + s["failed"] == s["total"]
    assert s["non_converged"] == 1 and s["failed"] == 1
    assert not report.all_passed


def test_report_csv_schema():
    report = _small_report()
    lines = report.to_csv().splitlines()
    assert lines[0] == "rep_id,n,exact,estimate,rel_err,evaluations,rule,pass"
    assert len(lines) == 6
    assert sum(line.endswith(",false") for line in lines) == 1
    # exact is a decimal string: parseable as int, and estimate has 17-digit precision
    first = lines[1].split(",")
    int(first[2])
    float(first[3])


# -- configuration ------------------------------------------------------------------

def test_config_precedence(tmp_path):
    cfg = tmp_path / "catmot.conf"
    cfg.write_text("# comment\nrel_tol = 1e-5\nn_max=25\n", encoding="utf-8")
    assert parse_config_file(str(cfg)) == {"rel_tol": 1e-5, "n_max": 25}

    s = load_settings(str(cfg), environ={})
    assert s.rel_tol == 1e-5 and s.n_max == 25

    env = {ENV_PREFIX + "REL_TOL": "1e-6"}
    s = load_settings(str(cfg), environ=env)
    assert s.rel_tol == 1e-6  # env beats file

    s = load_settings(str(cfg), environ=env, flag_overrides={"rel_tol": 1e-7})
    assert s.rel_tol == 1e-7  # flag beats env

    assert load_settings(environ={}) == Settings()


def test_settings_defaults_are_the_engine_defaults():
    assert Settings().quad_config() == QuadConfig()
    assert Settings._fields[1:] == QuadConfig._fields


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("unknown_key=3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(str(cfg))


def test_config_file_flows_into_report(capsys, tmp_path):
    cfg = tmp_path / "catmot.conf"
    cfg.write_text("n_max=22\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "cat.eq9", "--n-range", "0..2",
                       "--format", "json", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config_echo"]["n_max"] == "22"


def test_env_var_rejected_value(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_PREFIX + "N_MAX", "not-a-number")
    code, _, err = run(capsys, "verify", "cat.eq9", "--n-range", "0..1")
    assert code == 2
    assert "n_max" in err


@pytest.mark.parametrize("name", ["CATMOT_REL_TOLL", "CATMOT_MAX_SUBDIVISIONS"])
def test_unknown_env_var_is_refused(capsys, monkeypatch, name):
    # a misspelt or retired variable exits 2, as the same key in a config file does
    monkeypatch.setenv(name, "1e-3" if name.endswith("TOLL") else "10")
    code, out, err = run(capsys, "verify", "cat.eq9", "--n-range", "2..2")
    assert (code, out) == (2, "")
    assert err == f"catmot verify: error: unknown environment variable {name!r}\n"


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_rel_tol_below_the_floor_refused_from_every_source(source, tmp_path, capsys, monkeypatch):
    # no forced row is sure to converge below 1e-15: refused before any row runs
    argv = ["verify", "cat.eq6", "--rule", "tanh-sinh", "--n-range", "284..284", "--n-max", "300"]
    monkeypatch.delenv(ENV_PREFIX + "REL_TOL", raising=False)
    if source == "flag":
        argv += ["--rel-tol", "1e-16"]
    elif source == "env":
        monkeypatch.setenv(ENV_PREFIX + "REL_TOL", "1e-16")
    else:
        cfg = tmp_path / "catmot.conf"
        cfg.write_text("rel_tol = 1e-16\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "catmot verify: error: rel_tol must be at least 1e-15, got 1e-16\n"
    # the floor itself runs, and the row converges
    code, out, err = run(capsys, *argv[:8], "--rel-tol", "1e-15")
    assert (code, err) == (0, "") and out.splitlines()[1].endswith(",true")


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_negative_n_max_refused_from_every_source(source, tmp_path, capsys, monkeypatch):
    # a negative cap is the bad value itself, not a range that exceeds it
    argv = ["verify", "all", "--n-range", "0..0"]
    monkeypatch.delenv(ENV_PREFIX + "N_MAX", raising=False)
    if source == "flag":
        argv += ["--n-max", "-1"]
    elif source == "env":
        monkeypatch.setenv(ENV_PREFIX + "N_MAX", "-1")
    else:
        cfg = tmp_path / "catmot.conf"
        cfg.write_text("n_max = -1\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "catmot verify: error: n_max must be nonnegative, got -1\n"
    # the library refuses it too, and 0 is a valid cap
    with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
        load_settings(environ={ENV_PREFIX + "N_MAX": "-1"})
    assert load_settings(environ={ENV_PREFIX + "N_MAX": "0"}).n_max == 0

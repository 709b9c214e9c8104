import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from catmot import __version__
from catmot.catalog import VerificationRow, get_representation, verify
from catmot.cli import main
from catmot.config import ENV_PREFIX, Settings, load_settings, parse_config_file
from catmot.exact import motzkin_oracle
from catmot.polys import even_binomial_coeffs, phi_diff_coeffs
from catmot.report import CSV_HEADER, Report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- start-up ------------------------------------------------------------------

# every request is a fresh process: modules that only some commands need, or
# that only class-building machinery needs, must not load on start-up
STARTUP_CHECK = """
import sys
before = set(sys.modules)
import catmot.cli
print(sorted({"dataclasses", "inspect", "json"} & (set(sys.modules) - before)))
try:
    catmot.cli.main(["--version"])
except SystemExit:
    pass
print(sorted({"dataclasses", "inspect", "json"} & (set(sys.modules) - before)))
"""


def test_startup_loads_no_dataclass_or_json_machinery():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"catmot {__version__}", "[]"]


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
    code, _, err = run(capsys, "verify", "cat.eq6", "--n-range", "2..2", "--rule", "gauss-kronrod")
    assert code == 2


def test_verify_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "verify", "all", "--n-range", "0..6", "--out", str(a))[0] == 0
    assert run(capsys, "verify", "all", "--n-range", "0..6", "--out", str(b), "--jobs", "4")[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag, value", [("--rel-tol", "inf"), ("--abs-tol", "nan")])
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
    # node abscissas of the double-exponential levels are exact only up to level 50
    code, out, err = run(capsys, "verify", "cat.eq3", "--n-range", "1..1", "--max-levels", "51")
    assert code == 2
    assert out == ""
    assert "max_levels must be in 3..50" in err


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
    code, out, _ = run(capsys, "transform", "cat.eq3", "--n", "6")
    assert code == 0
    assert "none" in out and "exact" in out


def test_transform_unknown_form_exits_2(capsys):
    code, _, err = run(capsys, "transform", "cat.conc1")
    assert code == 2


@pytest.mark.parametrize("catalan_id, builder, n_max", [
    ("cat.eq9", even_binomial_coeffs, 1029),
    ("cat.eq4", phi_diff_coeffs, 1037),
])
def test_transform_n_limit_is_the_kernels_float_range(capsys, catalan_id, builder, n_max):
    # n_max is the largest n whose kernel coefficients all convert to float
    assert [float(c) for c in builder(n_max)]
    with pytest.raises(OverflowError):
        [float(c) for c in builder(n_max + 1)]
    code, out, err = run(capsys, "transform", catalan_id, "--n", str(n_max + 1))
    assert (code, out) == (2, "")
    assert f"0..{n_max}" in err


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


def test_lemma1_integrates_each_side_once(capsys, monkeypatch):
    import catmot.transform

    calls = []
    gk = catmot.transform.adaptive_gk
    monkeypatch.setattr(
        catmot.transform, "adaptive_gk", lambda *a: calls.append(a[1:3]) or gk(*a)
    )
    code, out, _ = run(capsys, "lemma1", "2", "1")
    assert code == 0 and "OK" in out
    assert calls == [(0.0, 0.5), (0.5, 1.0)]


# -- report serialization ---------------------------------------------------------

def _small_report():
    rows = [
        verify(get_representation(rid), n)
        for rid in ("cat.eq9", "mot.13b")
        for n in (0, 3)
    ]
    # include a non-converged row so serialization covers the failure shape
    rows.append(verify(get_representation("cat.eq4"), 0, rule="gauss-kronrod"))
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

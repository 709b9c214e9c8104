"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import oracle
import run
from tracer import TRACE_PREFIX

REPO = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

# Integrand evaluations of one `catmot verify all --n-range 0..30` request,
# pinned at the commit that introduced the benchmark.  A change that moves
# this count says why in CHANGES.md.
SWEEP_EVALS_BASELINE = 65_028


def catmot(*argv: str, traced: bool = False) -> subprocess.CompletedProcess:
    prefix = [sys.executable, str(REPO / "perfbench" / "tracer.py")] if traced else [sys.executable, "-c", run.CLI]
    return subprocess.run(prefix + list(argv), capture_output=True, text=True, env=ENV, cwd=REPO, timeout=120)


def bench(*args: str, cwd: Path = REPO) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_oracle_sequences():
    assert [oracle.catalan(n) for n in range(11)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    assert oracle.motzkin_table(10) == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    # M(n) = sum_k C(n, 2k) C(k), checked well beyond the float range
    m = oracle.motzkin_table(120)
    assert m[120] == sum(comb(120, 2 * k) * oracle.catalan(k) for k in range(61))


@pytest.mark.parametrize("fmt", run.FORMATS)
def test_oracle_checks_every_exact_field(fmt):
    argv = ("verify", "all", "--n-range", "3..5", "--format", fmt)
    proc = catmot(*argv)
    assert oracle.check(argv, proc.returncode, proc.stdout) == (57, 57)
    # M(5) = 21; change it in one row only
    row = {"csv": "mot.13b,5,21,", "json": '"exact": "21"', "md": "| mot.13b | 5 | 21 |"}[fmt]
    assert row in proc.stdout
    wrong = proc.stdout.replace(row, row.replace("21", "22"), 1)
    with pytest.raises(oracle.OracleError):
        oracle.check(argv, proc.returncode, wrong)


def test_oracle_checks_table_rows():
    proc = catmot("table", "12")
    assert oracle.check(("table", "12"), proc.returncode, proc.stdout) == (13, 13)
    with pytest.raises(oracle.OracleError):
        oracle.check(("table", "12"), proc.returncode, proc.stdout.replace("2188", "2189"))
    with pytest.raises(oracle.OracleError):
        oracle.check(("table", "13"), proc.returncode, proc.stdout)


def test_failed_rows_are_not_oracle_errors():
    argv = ("verify", "mot.13b", "--n-range", "60..60", "--n-max", "100", "--format", "json")
    proc = catmot(*argv)
    assert proc.returncode == 1
    assert oracle.check(argv, proc.returncode, proc.stdout) == (1, 0)
    with pytest.raises(oracle.OracleError):
        oracle.check(argv, 0, proc.stdout)


def test_repeat_with_other_output_is_a_determinism_error():
    r = run.Run()
    argv = ("table", "3")
    run.record(r, argv, b"same\n", "", 0)
    run.record(r, argv, b"same\n", "", 0)
    assert r.errors == []
    run.record(r, argv, b"other\n", "", 0)
    assert r.errors and r.errors[0].startswith("determinism")


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       823 |        823 |       catmot.exact\n"
        "import time:       629 |      38784 |   catmot\n"
        "import time:      5064 |      62284 | catmot.cli\n"
        "import time:        12 |         12 | catmotx\n"
    )
    assert run.parse_importtime(text) == {"exact": 823, "catmot": 629, "cli": 5064}


@pytest.mark.parametrize("fmt", run.FORMATS)
def test_sweep_request_evaluation_count(fmt):
    argv = ("verify", "all", "--n-range", "0..30", "--format", fmt)
    proc = catmot(*argv, traced=True)
    assert proc.returncode == 0
    [line] = [l for l in proc.stderr.splitlines() if l.startswith(TRACE_PREFIX)]
    spans = json.loads(line[len(TRACE_PREFIX):])
    evals = sum(spans[f"quadrature.{e}"]["evals"] for e in run.ENGINES)
    assert evals == spans["catalog.verify"]["evals"] == SWEEP_EVALS_BASELINE
    rows = oracle.parse_report(fmt, proc.stdout)
    assert sum(int(r["evaluations"]) for r in rows) == SWEEP_EVALS_BASELINE
    assert proc.stdout == catmot(*argv).stdout


def test_traced_runs_repeat_evaluation_counts():
    results = [bench("--workload", "sweep", "--seed", "7", "--seconds", "0.5", "--trace", "1")[1] for _ in range(2)]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    keys = [k for k in results[0]["metrics"] if k.startswith("quadrature.") and k.endswith(".evals")]
    assert len(keys) == 5
    assert [results[0]["metrics"][k] for k in keys] == [results[1]["metrics"][k] for k in keys]
    assert results[0]["metrics"]["quadrature.evals"]["value"] == SWEEP_EVALS_BASELINE


def test_pass_fraction_repeats_on_deep():
    results = [bench("--workload", "deep", "--seed", str(seed), "--seconds", "0.1")[1] for seed in (3, 3, 4)]
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    assert all(list(r["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]] for r in results)
    fractions = {r["metrics"]["pass_frac"]["value"] for r in results}
    assert len(fractions) == 1 and 0.0 < fractions.pop() < 1.0


def test_refuses_a_directory_without_sources():
    proc, result = bench("--workload", "sweep", "--seconds", "1", cwd=REPO / "perfbench")
    assert proc.returncode != 0 and result is None

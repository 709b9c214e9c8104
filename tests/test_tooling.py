"""Guards for the benchmark tooling under perfbench/, which lies outside the
test paths (only imported; nothing there is changed or installed), and for
the runtime's dependencies."""

import ast
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from catmot.catalog import list_representations
from catmot.transform import FORMS

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_resolve():
    # spans() reads some catmot names eagerly (polys.PhiEvaluator): deleting
    # one crashes the traced benchmark.  Each span must also keep at least
    # one live target, or its metrics silently read 0.
    for name, (targets, _count) in _load("tracer").spans().items():
        assert any(getattr(owner, attr, None) is not None for owner, attr in targets), name


def test_traced_sweep_counts_every_evaluation_once():
    # the quadrature spans see the evaluations that the catalog rows report,
    # the theta rule's node sums included; no total is pinned here
    tracer = _load("tracer")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "verify", "all", "--n-range", "0..30"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    [line] = [l for l in proc.stderr.splitlines() if l.startswith(tracer.TRACE_PREFIX)]
    spans = json.loads(line[len(tracer.TRACE_PREFIX):])
    quadrature = sum(v.get("evals", 0) for k, v in spans.items() if k.startswith("quadrature."))
    reported = sum(int(row["evaluations"]) for row in csv.DictReader(io.StringIO(proc.stdout)))
    assert quadrature == spans["catalog.verify"]["evals"] == reported > 0
    assert spans["quadrature.chebyshev"]["evals"] == quadrature


def test_oracle_ids_follow_the_registry():
    # the checks workload builds its requests from these tables: an id the
    # registry dropped would turn them into exit-2 operation failures
    oracle = _load("oracle")
    assert sorted(oracle.TRANSFORM_FORMS) == sorted(FORMS)
    assert oracle.CATALOG == {rep.id: rep.n_min for rep in list_representations()}


def test_runtime_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "catmot").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "catmot" or top in sys.stdlib_module_names, (path.name, name)


# public top-level names that no command runs, each with the reason it stays
TEST_ONLY_ALLOWED = {
    # acceptance criterion 7 imports it
    "psi_difference",
    # criterion 1's independent Motzkin oracle, and the recurrence's n-th term
    # that it checks; verify reads the recurrence's table instead
    "motzkin_oracle",
    "motzkin",
    # the closed form C(2n, n)/(n + 1), the independent oracle that the tests
    # check catalan_numbers() against
    "catalan",
    # perfbench/tracer.py reads it eagerly for its polys.coeff span
    "PhiEvaluator",
    # perfbench/tracer.py's quadrature.exp_sinh span wraps it
    "integrate_semi_infinite",
    # perfbench/tracer.py's quadrature.gauss_kronrod span wraps it until ROADMAP item 1a
    "adaptive_gk",
}


def _references(node) -> Counter:
    """Names read in ``node``'s subtree: bare names, attributes and imports."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def test_runtime_has_no_test_only_functions():
    # every public function or class of the runtime is called by the program
    # (referenced outside its own body), or named above with its reason; an
    # export alone is no reason.  The exact references that only the tests
    # compare against live under tests/
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "catmot").glob("*.py"))]
    referenced = sum(map(_references, trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in TEST_ONLY_ALLOWED
        and referenced[node.name] == _references(node)[node.name]
    ]
    assert unused == []


def test_report_echo_holds_the_settings_and_the_request(capsys):
    # the echo carries what configures a run and nothing else: a value that
    # no longer exists cannot linger in it
    from catmot.cli import main

    assert main(["verify", "cat.eq9", "--n-range", "0..1", "--format", "json"]) == 0
    echo = json.loads(capsys.readouterr().out)["config_echo"]
    request = ("selector", "n_range", "tol", "rule", "jobs", "format")
    assert sorted(echo) == sorted(("n_max", *request))


# every option of every command, each one a knob that a request can set: a
# new or kept knob changes this reviewed list, and a retired one leaves it
KNOBS = {
    "catmot": ("--version",),
    "list": ("--family", "--format"),
    "verify": ("--n-range", "--tol", "--rule", "--format", "--out", "--jobs", "--n-max"),
    "transform": ("--n",),
    "lemma1": ("--a",),
    "table": (),
}


def test_each_command_takes_only_the_listed_options():
    import argparse

    from catmot.cli import _build_parser

    def options(parser):
        return tuple(flag for action in parser._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))

    parser = _build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {"catmot": options(parser), **{name: options(p) for name, p in commands.choices.items()}}
    assert found == KNOBS

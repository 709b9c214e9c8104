"""Guards for the benchmark tooling under perfbench/, which lies outside the
test paths (only imported; nothing there is changed or installed), and for
the runtime's dependencies."""

import ast
import importlib.util
import sys
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

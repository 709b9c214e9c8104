"""Guards for the benchmark tooling under perfbench/, which lies outside the
test paths.  Only imports it; nothing there is changed or installed."""

import importlib.util
from pathlib import Path

from catmot.catalog import list_representations
from catmot.transform import FORMS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

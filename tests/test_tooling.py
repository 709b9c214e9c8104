"""Guards for the benchmark tooling under perfbench/, which lies outside the
test paths.  Only imports it; nothing there is changed or installed."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_resolve():
    # spans() reads some catmot names eagerly (polys.PhiEvaluator): deleting
    # one crashes the traced benchmark.  Each span must also keep at least
    # one live target, or its metrics silently read 0.
    for name, (targets, _count) in _load_tracer().spans().items():
        assert any(getattr(owner, attr, None) is not None for owner, attr in targets), name

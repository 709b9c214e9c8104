"""Run one catmot CLI request with spans around each layer's public functions.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/tracer.py verify all --n-range 0..30

The request prints exactly what ``catmot`` prints.  At exit one extra line
``perfbench-trace <json>`` goes to standard error, holding for every span
name its call count, its self time (span minus child spans, in ns) and the
counts taken at that boundary (integrand evaluations, non-converged
results, failed rows, rendered bytes).

Spans are timed in CPU time of their own thread.  ``verify --jobs N`` runs
rows on worker threads that take turns holding the interpreter lock; wall
time would charge each span for the turns of the other threads.

Spans are recorded only at the layer boundaries listed in :func:`spans`; the
program itself is not changed, its functions are replaced in every catmot
module that holds a reference to them.
"""

from __future__ import annotations

import json
import sys
import threading
import time

TRACE_PREFIX = "perfbench-trace "


def _engine(args, result) -> dict:
    return {"evals": result.evaluations, "nonconverged": int(not result.converged)}


def _chebyshev(args, result) -> dict:
    return {"evals": args[1], "nonconverged": 0}


def _row(args, result) -> dict:
    return {"evals": result.evaluations, "rows_failed": int(not result.passed)}


def _rendered(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def spans() -> dict:
    """Span name -> (functions it wraps as (owner, attribute), counts taken
    at the boundary)."""
    import catmot.cli
    from catmot import catalog, config, exact, polys, quadrature, report, transform

    return {
        "cli.main": ([(catmot.cli, "main")], None),
        "config.load_settings": ([(config, "load_settings")], None),
        "exact": ([(exact, f) for f in ("catalan", "motzkin", "binomial", "motzkin_oracle")], None),
        "polys.coeff": (
            [(polys, f) for f in (
                "even_binomial_coeffs", "phi_diff_coeffs", "phi_ratio_coeffs",
                "psi_diff_coeffs", "psi_diff_float_coeffs",
            )] + [(polys.PhiEvaluator, "__init__")],
            None,
        ),
        "polys.horner": ([(polys, "horner")], None),
        "quadrature.chebyshev": (
            [(quadrature, "chebyshev_sum_first"), (quadrature, "chebyshev_sum_second")], _chebyshev,
        ),
        "quadrature.tanh_sinh": ([(quadrature, "tanh_sinh")], _engine),
        "quadrature.exp_sinh": ([(quadrature, "integrate_semi_infinite")], _engine),
        "quadrature.gauss_kronrod": ([(quadrature, "adaptive_gk")], _engine),
        "catalog.verify": ([(catalog, "verify")], _row),
        "transform": (
            [(transform, f) for f in (
                "integrate_transform", "transform_deviation", "check_lemma1", "lemma1_sides",
            )],
            None,
        ),
        # one span name per report format, e.g. report.render.json
        "report.render": ([(report.Report, "render")], _rendered),
    }


class Recorder:
    """Span stacks per thread, and per span name: calls, self ns and counts.

    ``verify --jobs N`` runs rows on worker threads, so each thread keeps its
    own stack and totals; :meth:`totals` merges them once the request ends.
    """

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()

    def _state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            stack, table = self._state()
            stack.append(0)
            start = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.thread_time_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
            key = f"{name}.{args[1]}" if name == "report.render" else name
            entry = table.setdefault(key, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += duration - children
            if count is not None:
                for k, v in count(args, result).items():
                    entry[k] = entry.get(k, 0) + v
            return result

        return traced

    def totals(self) -> dict:
        merged: dict = {}
        with self._lock:
            for table in self._tables:
                for name, entry in table.items():
                    into = merged.setdefault(name, {})
                    for k, v in entry.items():
                        into[k] = into.get(k, 0) + v
        return merged


def install(recorder: Recorder) -> None:
    """Replace every function of :func:`spans`, in its owner and in each
    catmot module that imported it by name, with a recording wrapper."""
    table = spans()
    modules = [m for name, m in sys.modules.items() if name == "catmot" or name.startswith("catmot.")]
    for name, (targets, count) in table.items():
        for owner, attr in targets:
            original = getattr(owner, attr, None)
            if original is None:  # not in this version of catmot; its metrics read 0
                continue
            wrapped = recorder.wrap(name, original, count)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    import catmot.cli

    recorder = Recorder()
    install(recorder)
    try:
        return catmot.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(recorder.totals(), sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

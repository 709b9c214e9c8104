"""Closed-loop benchmark of the catmot command line tool.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One client sends one request at a time, and every request is a fresh
``python3 -c "from catmot.cli import main; ..."`` process with ``src`` on
``PYTHONPATH``, the way the ``catmot`` console script starts, so each request
pays interpreter start-up, imports and cold caches like a user does.

Each workload is a fixed mix of requests.  The run goes through the mix in
passes until ``--seconds`` have gone by, finishing the pass it is in; the
seed draws the order of every pass, so each seed sends the same mix.
Whole passes keep every metric independent of where the clock ran out.

Every distinct request's output is checked against ``oracle.py``, and
repeats of one request must print byte-identical output.  Either kind of
error sets ``"correct": false`` and the exit code to 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: it alternates untraced passes with passes run through
``tracer.py`` and adds ``python -X importtime`` self times per module.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from tracer import TRACE_PREFIX

ROOT = Path.cwd()
TRACER = Path(__file__).resolve().with_name("tracer.py")
# what the `catmot` console script runs
CLI = "import sys; from catmot.cli import main; sys.exit(main())"
REQUEST_TIMEOUT_S = 60
SETUP_RUNS = 9
IMPORTTIME_RUNS = 5
ENGINES = ("chebyshev", "tanh_sinh", "exp_sinh", "gauss_kronrod")
FORMATS = ("csv", "json", "md")
MODULES = ("catmot", "exact", "polys", "quadrature", "catalog", "transform", "config", "report", "cli")


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[tuple[str, ...], ...]
    # Fixed percentile for latency_tail_s: the highest one with at least ten
    # requests beyond it in a 25 s run.  A fixed percentile over whole passes
    # does not move with the number of passes that fit in the run.
    tail_pct: int
    why: str


def _checks_mix() -> tuple[tuple[str, ...], ...]:
    # k spreads over 0..100 like `deep`, so known large-n defects stay visible
    mix = []
    for i, form in enumerate(oracle.TRANSFORM_FORMS):
        for k in (3 + 5 * i, 100 - 5 * i):
            mix.append(("transform", form, "--n", str(k)))
    for r, s, a in (("2", "0", "3.141592653589793"), ("7", "3", "2.5"), ("20", "11", "0.3")):
        mix.append(("lemma1", r, s, "--a", a))
    for j, (rep_id, n_min) in enumerate(oracle.CATALOG.items()):
        k = max(n_min, (37 * j + 11) % 101)
        mix.append(("verify", rep_id, "--n-range", f"{k}..{k}", "--n-max", "100",
                    "--format", ("md", "json")[j % 2]))
    mix.append(("list", "--format", "json"))
    return tuple(mix)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            tuple(("verify", "all", "--n-range", "0..30", "--format", f) for f in FORMATS),
            90,
            "the default everyday sweep: catalog dispatch and the four engines, almost no exact work",
        ),
        Workload(
            "deep",
            tuple(
                ("verify", "all", "--n-range", f"{lo}..{lo + 49}", "--n-max", "100",
                 "--format", "json", "--jobs", "2")
                for lo in (31, 36, 41, 46, 51)
            ),
            75,
            "large n: many DE levels, degree-n polys, big binomials, ~1k-row JSON, rows that fail",
        ),
        Workload(
            "table",
            tuple(("table", str(n)) for n in (300, 325, 350, 375, 400)),
            75,
            "exact layer only: binomial sums dominate and no quadrature runs",
        ),
        Workload(
            "checks",
            _checks_mix(),
            90,
            "short transform, lemma1, one-row verify and list requests: start-up dominates",
        ),
    )
}


@dataclass
class Sample:
    argv: tuple[str, ...]
    traced: bool
    wall_s: float
    cpu_s: float
    timed_out: bool


@dataclass
class Output:
    digest: str
    stdout: str
    stderr: str
    returncode: int


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)
    outputs: dict[tuple[str, ...], Output] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    # per traced pass: span name -> summed totals over the pass's requests
    traces: list[dict] = field(default_factory=list)
    passes: int = 0
    loop_s: float = 0.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATMOT_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> tuple[subprocess.CompletedProcess | None, float, float]:
    """Run one child; (completed process or None on timeout, wall s, CPU s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, wall, cpu


def setup_times(env: dict[str, str], runs: int) -> list[float]:
    """Wall times of fresh `catmot --version` processes; stops the benchmark
    if the checkout's catmot cannot start."""
    walls = []
    for _ in range(runs):
        proc, wall, _ = spawn([sys.executable, "-c", CLI, "--version"], env)
        if proc is None or proc.returncode != 0 or not proc.stdout.startswith(b"catmot "):
            detail = proc.stderr.decode(errors="replace")[-400:] if proc else "timed out"
            raise SystemExit(f"perfbench: `catmot --version` failed in {ROOT}: {detail}")
        walls.append(wall)
    return walls


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median self time in seconds of each catmot module, as reported by
    `python -X importtime -c "import catmot.cli"`."""
    per_module: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_RUNS):
        proc, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import catmot.cli"], env)
        if proc is None or proc.returncode != 0:
            raise SystemExit("perfbench: `import catmot.cli` failed")
        for module, self_us in parse_importtime(proc.stderr.decode()).items():
            if module in per_module:
                per_module[module].append(self_us / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in per_module.items()}


def parse_importtime(text: str) -> dict[str, int]:
    """Self microseconds of each catmot module in -X importtime output."""
    found = {}
    for match in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(catmot(?:\.\w+)?)\s*$", text, re.M):
        found[match[2].removeprefix("catmot.")] = int(match[1])
    return found


def measure(workload: Workload, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> Run:
    """Issue the mix in seed-ordered passes until `seconds` have elapsed.

    With `trace`, passes alternate untraced / traced, ending on a traced one.
    """
    rng = random.Random(seed)
    run = Run()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and run.passes % 2 == 1):
        traced = trace and run.passes % 2 == 1
        pass_trace: dict = {}
        for argv in rng.sample(workload.mix, len(workload.mix)):
            prefix = [sys.executable, str(TRACER)] if traced else [sys.executable, "-c", CLI]
            proc, wall, cpu = spawn(prefix + list(argv), env)
            run.samples.append(Sample(argv, traced, wall, cpu, proc is None))
            if proc is None:
                continue
            stderr = proc.stderr.decode(errors="replace")
            if traced:
                stderr = _take_trace(stderr, pass_trace)
            record(run, argv, proc.stdout, stderr, proc.returncode)
        if traced:
            run.traces.append(pass_trace)
        run.passes += 1
    run.loop_s = time.perf_counter() - start
    return run


def _take_trace(stderr: str, into: dict) -> str:
    """Add the tracer's totals to `into` and return stderr without them."""
    kept = []
    for line in stderr.splitlines(keepends=True):
        if line.startswith(TRACE_PREFIX):
            for name, entry in json.loads(line[len(TRACE_PREFIX):]).items():
                total = into.setdefault(name, {})
                for k, v in entry.items():
                    total[k] = total.get(k, 0) + v
        else:
            kept.append(line)
    return "".join(kept)


def record(run: Run, argv: tuple[str, ...], stdout: bytes, stderr: str, returncode: int) -> None:
    """Keep the first output of each request; a repeat must match it byte for byte."""
    digest = hashlib.sha256(stdout).hexdigest()
    first = run.outputs.get(argv)
    if first is None:
        run.outputs[argv] = Output(digest, stdout.decode(errors="replace"), stderr, returncode)
    elif (first.digest, first.returncode) != (digest, returncode):
        run.errors.append(f"determinism: `catmot {' '.join(argv)}` printed different output on a repeat")


def operation_failed(out: Output) -> bool:
    """A refusal, a crash or an unknown exit code, as opposed to a verdict."""
    return out.returncode not in (0, 1) or "Traceback (most recent call last)" in out.stderr


@dataclass
class Tally:
    rows: int = 0  # rows attempted
    passed: int = 0
    completed: int = 0  # rows of requests that did not fail as operations
    failed_requests: int = 0


def score(run: Run) -> Tally:
    """Check every distinct output and count rows over all samples."""
    rows: dict[tuple[str, ...], tuple[int, int]] = {}
    for argv, out in run.outputs.items():
        if operation_failed(out):
            rows[argv] = (oracle.expected_rows(argv), 0)
            continue
        try:
            rows[argv] = oracle.check(argv, out.returncode, out.stdout)
        except oracle.OracleError as exc:
            run.errors.append(f"oracle: `catmot {' '.join(argv)}`: {exc}")
            rows[argv] = (oracle.expected_rows(argv), 0)
    for argv, (attempted, passed) in sorted(rows.items()):
        if passed < attempted:
            print(f"  rows failing: {attempted - passed} of {attempted} in `catmot {' '.join(argv)}`")
    tally = Tally()
    for s in run.samples:
        failed = s.timed_out or operation_failed(run.outputs[s.argv])
        attempted, passed = (oracle.expected_rows(s.argv), 0) if s.timed_out else rows[s.argv]
        tally.rows += attempted
        tally.passed += passed
        tally.completed += 0 if failed else attempted
        tally.failed_requests += failed
    return tally


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Value at percentile `pct` and how many samples lie beyond it."""
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 else values[0]
    return value, sum(v > value for v in values)


def end_to_end(workload: Workload, run: Run, setup: list[float], tally: Tally) -> tuple[dict, list[str]]:
    walls = [s.wall_s for s in run.samples]
    tail_s, beyond = tail(walls, workload.tail_pct)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} `catmot --version` processes"),
        "latency_mean_s": (statistics.fmean(walls), "s", f"mean of {len(walls)} requests"),
        "latency_tail_s": (tail_s, "s", f"p{workload.tail_pct} of {len(walls)} requests, {beyond} beyond it"),
        "cpu_mean_s": (statistics.fmean(s.cpu_s for s in run.samples), "s", "user+sys of one request process"),
        "rows_per_s": (tally.completed / run.loop_s, "1/s", f"{tally.completed} rows in {run.loop_s:.2f} s"),
        "pass_frac": (tally.passed / tally.rows, "fraction", f"{tally.passed} of {tally.rows} rows passed"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "largest max-RSS of any child process"),
    }
    return _pack(metrics)


def per_layer(workload: Workload, run: Run, imports: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer numbers per request, averaged over one pass of the mix;
    times are the median over traced passes."""
    size = len(workload.mix)

    def total(names, key: str, scale: float = 1.0) -> float:
        """Median over traced passes of `key` summed over span `names`, per request."""
        sums = [sum(t.get(n, {}).get(key, 0) for n in names) for t in run.traces]
        return statistics.median(sums) * scale / size

    metrics: dict[str, tuple[float, str, str]] = {}
    for module in MODULES:
        metrics[f"import.{module}_s"] = (imports[module], "s", "-X importtime self time, median")
    metrics["cli.main_s"] = (total(["cli.main"], "self_ns", 1e-9), "s", "self time")
    metrics["config.load_settings_s"] = (total(["config.load_settings"], "self_ns", 1e-9), "s", "self time")
    metrics["exact.calls"] = (total(["exact"], "calls"), "count", "catalan, motzkin, binomial, motzkin_oracle")
    metrics["exact.self_s"] = (total(["exact"], "self_ns", 1e-9), "s", "self time")
    metrics["polys.coeff_calls"] = (total(["polys.coeff"], "calls"), "count", "*_coeffs functions, PhiEvaluator()")
    metrics["polys.coeff_s"] = (total(["polys.coeff"], "self_ns", 1e-9), "s", "self time")
    metrics["polys.horner_calls"] = (total(["polys.horner"], "calls"), "count", "")
    metrics["polys.horner_ns"] = (total(["polys.horner"], "self_ns"), "ns", "self time")
    all_engines = [f"quadrature.{e}" for e in ENGINES]
    for engine, span in zip(ENGINES, all_engines):
        evals = total([span], "evals")
        time_s = total([span], "self_ns", 1e-9)
        metrics[f"{span}.calls"] = (total([span], "calls"), "count", "")
        metrics[f"{span}.evals"] = (evals, "count", "integrand evaluations")
        metrics[f"{span}.time_s"] = (time_s, "s", "self time, integrand bodies included")
        metrics[f"{span}.ns_per_eval"] = (time_s * 1e9 / evals if evals else 0.0, "ns", "")
        metrics[f"{span}.nonconverged"] = (total([span], "nonconverged"), "count", "")
    metrics["quadrature.evals"] = (total(all_engines, "evals"), "count", "all engines")
    verify_calls = total(["catalog.verify"], "calls")
    metrics["catalog.verify_calls"] = (verify_calls, "count", "")
    metrics["catalog.self_s"] = (total(["catalog.verify"], "self_ns", 1e-9), "s", "dispatch overhead")
    metrics["catalog.rows_failed"] = (total(["catalog.verify"], "rows_failed"), "count", "")
    metrics["catalog.evals_per_row"] = (
        total(["catalog.verify"], "evals") / verify_calls if verify_calls else 0.0, "count", "")
    metrics["transform.calls"] = (total(["transform"], "calls"), "count", "")
    metrics["transform.self_s"] = (total(["transform"], "self_ns", 1e-9), "s", "self time")
    for fmt in FORMATS:
        metrics[f"report.render_s.{fmt}"] = (total([f"report.render.{fmt}"], "self_ns", 1e-9), "s", "self time")
    for fmt in FORMATS:
        metrics[f"report.bytes.{fmt}"] = (total([f"report.render.{fmt}"], "bytes"), "B", "")
    traced = statistics.fmean(s.wall_s for s in run.samples if s.traced)
    plain = statistics.fmean(s.wall_s for s in run.samples if not s.traced)
    metrics["trace.overhead_s"] = (traced - plain, "s", f"traced mean {traced:.4f} s - untraced mean {plain:.4f} s")
    _check_counts_repeat(run)
    return _pack(metrics)


def _check_counts_repeat(run: Run) -> None:
    """Evaluation counts are deterministic: every traced pass must repeat them."""
    counts = {tuple(t.get(f"quadrature.{e}", {}).get("evals", 0) for e in ENGINES) for t in run.traces}
    if len(counts) > 1:
        run.errors.append(f"determinism: evaluation counts differ between traced passes: {sorted(counts)}")


def _pack(metrics: dict[str, tuple[float, str, str]]) -> tuple[dict, list[str]]:
    result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    lines = [f"  {name:38s} {value:>16.6g} {unit:8s} {note}" for name, (value, unit, note) in metrics.items()]
    return result, lines


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    env = child_env()
    descriptor = {**machine(), "loadavg_start": os.getloadavg()}
    setup = setup_times(env, 1 if trace else SETUP_RUNS)
    imports = import_times(env) if trace else {}
    run = measure(workload, seed, seconds, trace, env)
    print(f"workload {workload.name}: {workload.why}")
    print(f"  seed {seed}, {run.passes} passes of {len(workload.mix)} requests, "
          f"{len(run.samples)} requests in {run.loop_s:.2f} s, trace {int(trace)}")
    tally = score(run)
    if trace:
        metrics, lines = per_layer(workload, run, imports)
    else:
        metrics, lines = end_to_end(workload, run, setup, tally)
    print("\n".join(lines))
    for error in run.errors:
        print(f"ERROR {error}", file=sys.stderr)
    descriptor["loadavg_end"] = os.getloadavg()
    print("machine " + json.dumps(descriptor))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": len(run.samples),
        "failed": tally.failed_requests,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 1 if run.errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "catmot" / "cli.py").is_file():
        print(f"perfbench: no catmot sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    # one process per workload, so that peak_rss_mb sees only its own children
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())

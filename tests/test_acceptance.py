"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest -s`` to see the lines as they happen).  Tolerances and
ranges are pinned here, not configurable.

Criterion 7 is asserted exactly as stated even though its final bound is
unattainable for n >= 5: the quantity psi_diff(n, x)/x^2 genuinely sits
(8n/3)*x away from its limit 2, which at x = 1e-8 exceeds 1e-10 for every
n >= 1 regardless of how the difference is evaluated.  The cancellation
property the criterion aims at is demonstrated by the passing stability
tests in test_polys.py (the stable path tracks the exact rational value to
~1e-13 where the naive closed form loses every digit).
"""

import math
import time
from math import comb as binomial

from catmot.catalog import get_representation, verify
from catmot.cli import main
from catmot.exact import catalan, motzkin, motzkin_oracle
from catmot.polys import psi_difference
from catmot.transform import PAIRS, check_lemma1, transform_deviation, ComparisonMode


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_oracles():
    start = time.perf_counter()
    agree = all(motzkin(n) == motzkin_oracle(n) for n in range(65))
    divisible = all(binomial(2 * n, n) % (n + 1) == 0 for n in range(65))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        agree and divisible and elapsed < 1.0,
        f"exact oracle agreement and divisibility for n in 0..64 ({elapsed:.3f}s)",
    )


def test_criterion_2_chebyshev_exactness():
    start = time.perf_counter()
    worst = 0.0
    for rid in ("cat.eq2", "cat.eq9", "cat.eq10"):
        rep = get_representation(rid)
        for n in range(0, 26):
            row = verify(rep, n)
            assert row.evaluations == n + 1  # N = n+1 nodes
            worst = max(worst, row.rel_err)
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        worst <= 1e-13 and elapsed < 1.0,
        f"N=n+1 Chebyshev exactness for n in 0..25, worst rel err {worst:.2e} ({elapsed:.3f}s)",
    )


_CATALAN_TOLERANCES = {
    "cat.eq2": 1e-9,
    "cat.eq3": 1e-11,
    "cat.eq4": 1e-9,
    "cat.eq5": 1e-9,
    "cat.eq6": 1e-9,
    "cat.eq7": 1e-11,
    "cat.eq8": 1e-11,
    "cat.eq9": 1e-11,
    "cat.eq10": 1e-11,
    "cat.conc1": 1e-9,
    "cat.conc2": 1e-9,
}


def test_criterion_3_catalan_sweep():
    start = time.perf_counter()
    failures = []
    for rid, tol in _CATALAN_TOLERANCES.items():
        rep = get_representation(rid)
        for n in range(rep.n_min, 21):
            row = verify(rep, n, tol=tol)
            if not row.passed:
                failures.append((rid, n, row.rel_err))
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        not failures and elapsed < 30.0,
        f"11 Catalan entries, n_min..20 at class tolerances, "
        f"failures={failures or 'none'} ({elapsed:.2f}s)",
    )


_MOTZKIN_TOLERANCES = {
    "mot.12a": 1e-9,
    "mot.12b": 1e-9,
    "mot.12c": 1e-9,
    "mot.12d": 1e-9,
    "mot.12e": 1e-9,
    "mot.12f": 1e-9,
    "mot.13a": 1e-8,
    "mot.13b": 1e-8,
}


def test_criterion_4_motzkin_sweep():
    start = time.perf_counter()
    failures = []
    for rid, tol in _MOTZKIN_TOLERANCES.items():
        rep = get_representation(rid)
        for n in range(0, 21):
            row = verify(rep, n, tol=tol)
            if not row.passed:
                failures.append((rid, n, row.rel_err))
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        not failures and elapsed < 30.0,
        f"8 Motzkin entries, n 0..20, failures={failures or 'none'} ({elapsed:.2f}s)",
    )


def test_criterion_5_transform_consistency():
    pointwise_pairs = [
        ("cat.eq5", "mot.12a"),
        ("cat.eq6", "mot.12b"),
        ("cat.eq7", "mot.12c"),
        ("cat.eq8", "mot.12d"),
        ("cat.eq4", "mot.13a"),
    ]
    value_pairs = [
        ("cat.eq9", "mot.12e"),
        ("cat.eq10", "mot.12f"),
        ("cat.eq2", "mot.13b"),
    ]
    worst_pw = worst_val = 0.0
    for cid, mid in pointwise_pairs:
        assert PAIRS[cid] == (mid, ComparisonMode.POINTWISE)
        for n in (0, 1, 5, 10, 20):
            worst_pw = max(
                worst_pw, transform_deviation(cid, mid, ComparisonMode.POINTWISE, n, 64)
            )
    for cid, mid in value_pairs:
        assert PAIRS[cid] == (mid, ComparisonMode.VALUE_ONLY)
        for n in (0, 1, 5, 10, 20):
            worst_val = max(
                worst_val, transform_deviation(cid, mid, ComparisonMode.VALUE_ONLY, n)
            )
    _criterion(
        5,
        worst_pw <= 1e-12 and worst_val <= 1e-10,
        f"transform consistency: pointwise worst {worst_pw:.2e} (<=1e-12), "
        f"value-only worst {worst_val:.2e} (<=1e-10)",
    )


def test_criterion_6_lemma1_grid():
    start = time.perf_counter()
    failures = [
        (r, s, a)
        for r in range(7)
        for s in range(7)
        for a in (1.0, 2.5, math.pi)
        if not check_lemma1(r, s, a, 1e-10)
    ]
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        not failures and elapsed < 10.0,
        f"lemma-1 identity on the 147-case grid, failures={failures or 'none'} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_7_psi_stability_as_stated():
    xs = (1e-4, 1e-6, 1e-8)
    report = []
    ok = True
    for n in (0, 5, 10, 20):
        devs = [abs(psi_difference(n, x) / (x * x) - 2.0) for x in xs]
        # equality is tolerated only at the exact zero floor (n = 0 evaluates
        # to 2.0 on the nose); anything above it must strictly decrease
        decreasing = all(
            d1 > d2 or d1 == d2 == 0.0 for d1, d2 in zip(devs, devs[1:])
        )
        small_enough = devs[-1] <= 1e-10
        ok = ok and decreasing and small_enough
        report.append(f"n={n}: " + ", ".join(f"{d:.3e}" for d in devs))
    _criterion(
        7,
        ok,
        "psi_diff(n,x)/x^2 deviation from 2 strictly decreasing to <=1e-10 "
        "at x=1e-4,1e-6,1e-8; " + "; ".join(report),
    )


def test_criterion_8_deterministic_reports(tmp_path):
    args = ["verify", "all", "--n-range", "0..20", "--format", "csv"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    codes = [
        main(args + ["--out", str(paths[0])]),
        main(args + ["--out", str(paths[1])]),
        main(args + ["--out", str(paths[2]), "--jobs", "4"]),
    ]
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    _criterion(
        8,
        identical and codes == [0, 0, 0],
        f"verify --all byte-identical across repeats and worker counts "
        f"(exit codes {codes}, {len(blobs[0])} bytes)",
    )

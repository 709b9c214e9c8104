import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catmot import quadrature
from catmot.catalog import get_representation, verify
from catmot.exact import catalan, motzkin
from catmot.quadrature import (
    adaptive_gk,
    chebyshev_nodes,
    chebyshev_sum_first,
    chebyshev_sum_second,
    integrate_semi_infinite,
    tanh_sinh,
)


class Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


# -- Gauss-Chebyshev --------------------------------------------------------

def test_chebyshev_first_weight_integral():
    c = Counter(lambda x: 1.0)
    value = math.pi * chebyshev_sum_first(map(c, chebyshev_nodes(1, 1)), 1)
    assert value == pytest.approx(math.pi, rel=1e-15)
    assert c.calls == 1


def test_chebyshev_first_second_moment():
    # int x^2 / sqrt(1-x^2) over (-1, 1), x = cos(theta)
    value = math.pi * chebyshev_sum_first(map(lambda t: math.cos(t) ** 2, chebyshev_nodes(1, 2)), 2)
    assert value == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_chebyshev_first_central_binomial_moment():
    # int x^20 / sqrt(1-x^2) = pi C(20,10) / 4^10
    expected = math.pi * comb(20, 10) / 4**10
    value = math.pi * chebyshev_sum_first(map(lambda t: math.cos(t) ** 20, chebyshev_nodes(1, 11)), 11)
    assert value == pytest.approx(expected, rel=1e-14)


def test_chebyshev_second_weight_integral():
    # int sqrt(1-x^2) over (-1, 1), x = cos(theta)
    value = math.pi * chebyshev_sum_second(map(lambda t: math.sin(t) ** 2, chebyshev_nodes(2, 1)), 1)
    assert value == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_chebyshev_second_second_moment():
    value = math.pi * chebyshev_sum_second(
        map(lambda t: (math.cos(t) * math.sin(t)) ** 2, chebyshev_nodes(2, 2)), 2
    )
    assert value == pytest.approx(math.pi / 8.0, rel=1e-15)


def test_chebyshev_second_catalan_moment():
    n = 12
    value = math.pi * chebyshev_sum_second(
        map(lambda t: math.cos(t) ** (2 * n) * math.sin(t) ** 2, chebyshev_nodes(2, n + 1)), n + 1
    )
    value *= 2 ** (2 * n + 1) / math.pi
    assert value == pytest.approx(float(catalan(n)), rel=1e-13)


def test_chebyshev_motzkin_weight_exactness():
    # (1+2x)^n against sqrt(1-x^2) needs only n//2 + 1 nodes
    for n in range(0, 26):
        nodes = n // 2 + 1
        value = math.pi * chebyshev_sum_second(
            map(lambda t: (1.0 + 2.0 * math.cos(t)) ** n * math.sin(t) ** 2,
                chebyshev_nodes(2, nodes)),
            nodes,
        )
        value *= 2.0 / math.pi
        assert abs(value - float(motzkin(n))) / float(motzkin(n)) <= 1e-12


def test_chebyshev_rejects_zero_nodes():
    with pytest.raises(ValueError):
        chebyshev_sum_first([], 0)
    with pytest.raises(ValueError):
        chebyshev_sum_second([], 0)
    for kind in (1, 2):
        with pytest.raises(ValueError):
            chebyshev_nodes(kind, 0)


# -- tanh-sinh ---------------------------------------------------------------

def test_tanh_sinh_polynomial():
    res = tanh_sinh(lambda x: x**3, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(0.25, rel=1e-13)


def test_tanh_sinh_arcsine_weight():
    res = tanh_sinh(
        lambda x: 1.0 / math.sqrt(x * (1.0 - x)),
        0.0,
        1.0,
        singular=lambda da, db: 1.0 / math.sqrt(da * db),
    )
    assert res.converged
    assert res.value == pytest.approx(math.pi, rel=1e-14)


def test_tanh_sinh_catalan_integrand():
    n = 2
    res = tanh_sinh(None, 0.0, 1.0, singular=lambda da, db: da**n / math.sqrt(da * db))
    value = res.value * 4**n / ((n + 1) * math.pi)
    assert value == pytest.approx(2.0, rel=1e-13)


def test_tanh_sinh_never_hits_endpoints():
    seen = []

    def probe(x):
        seen.append(x)
        return 1.0 / math.sqrt(x * (2.0 - x))

    tanh_sinh(probe, 0.0, 2.0)
    assert seen
    assert all(0.0 < x < 2.0 for x in seen)


def test_tanh_sinh_requires_finite_interval():
    with pytest.raises(ValueError):
        tanh_sinh(lambda x: x, 1.0, 1.0)
    # a half-line must start at a finite a, and the distance form needs a
    # finite b: no node is evaluated before either refusal
    probe = Counter(lambda *args: 1.0)
    with pytest.raises(ValueError, match="finite a < b"):
        tanh_sinh(probe, -math.inf, 0.0)
    with pytest.raises(ValueError, match="singular only on a finite interval"):
        tanh_sinh(None, 0.0, math.inf, singular=probe)
    assert probe.calls == 0


def test_tanh_sinh_level_refinement_never_hurts(monkeypatch):
    # more levels never increase the true error against exact-count oracles,
    # up to the rounding plateau.  At the rel_tol floor the small n
    # converge at level 4, cat.eq4 at n = 300 at level 7
    from catmot.catalog import get_representation

    for rep_id, n in (("cat.eq4", 3), ("cat.eq5", 2), ("cat.eq4", 300)):
        rep = get_representation(rep_id)
        exact = float(catalan(n)) / rep.prefactor_float(n)
        errors = []
        for levels in range(3, 11):
            monkeypatch.setattr(quadrature, "_MAX_LEVELS", levels)
            res = tanh_sinh(
                None, *rep.domain, quadrature._MIN_REL_TOL,
                singular=lambda da, db: rep.integrand(n, da, db),
            )
            errors.append(abs(res.value - exact))
        floor = 8.0 * 2.220446049250313e-16 * exact
        for before, after in zip(errors, errors[1:]):
            assert after <= before or after <= floor, (rep_id, n)


def test_tanh_sinh_nonconvergence_reported():
    # the plain (non-distance) form of a singular integrand stalls near
    # sqrt(eps) accuracy, so an 1e-14 demand cannot be met within the 12 levels
    res = tanh_sinh(lambda x: 1.0 / math.sqrt(x * (1.0 - x)), 0.0, 1.0, rel_tol=1e-14)
    assert not res.converged
    assert res.rule == "tanh-sinh[level=12]"
    assert res.value == pytest.approx(math.pi, rel=1e-6)  # best estimate kept


def test_tanh_sinh_overflowed_sum_is_not_converged():
    # inf <= rel_tol * inf must not pass: the first level whose sum
    # overflows ends the loop, non-converged with an infinite error
    res = tanh_sinh(lambda x: 1e308, 0.0, 10.0)
    assert not math.isfinite(res.value) and res.error_estimate == math.inf
    assert not res.converged
    assert res.rule == "tanh-sinh[level=0]"


@pytest.mark.parametrize("rep_id", ["mot.13a", "mot.13b"])
def test_forced_engine_refuses_n_past_its_limit(rep_id):
    # the distance integrands are over 3^n, which the exact prefactor holds,
    # so they stay finite near an endpoint: a forced engine takes n up to
    # the Motzkin limit 645, as the theta rule does, and no n past it
    # reaches the integrand
    rep = get_representation(rep_id)
    seen = set()

    def integrand(n, da, db):
        seen.add(n)
        return rep.integrand(n, da, db)

    counted = rep._replace(integrand=integrand)
    for n in (310, 311, 313, 645):
        assert verify(counted, n, rule="tanh-sinh").passed, n
    for n in (646, 647, 700):
        with pytest.raises(ValueError, match=f"n <= 645 with the tanh-sinh rule, got {n}$"):
            verify(counted, n, rule="tanh-sinh")
    assert seen == {310, 311, 313, 645}


# -- (0, +inf): tanh-sinh on x = u/(1 - u) -------------------------------------

def test_semi_infinite_arctangent():
    res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x))
    assert res.converged
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_semi_infinite_rational_decay():
    res = integrate_semi_infinite(lambda x: (x / (1.0 + x * x)) ** 2)
    assert res.value == pytest.approx(math.pi / 4.0, rel=1e-13)


def test_semi_infinite_catalan_integrand():
    n = 4
    def h(x):
        inv = 1.0 / (1.0 + x * x)
        t = x * inv
        return t * t * inv**n
    res = integrate_semi_infinite(h)
    value = res.value * 2 ** (2 * n + 2) / math.pi
    assert value == pytest.approx(14.0, rel=1e-9)


def test_semi_infinite_skips_nodes_whose_x_overflows():
    seen = []

    def probe(x):
        seen.append(x)
        return 1.0 / (1.0 + x * x)

    res = integrate_semi_infinite(probe)
    assert res.converged and res.evaluations == len(seen)
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-13)
    assert all(0.0 < x < math.inf for x in seen)
    assert max(seen) > 1e300


def test_tanh_sinh_on_a_half_line():
    # (1, inf) through x = 1 + u/(1 - u): the nodes stay inside, reach far
    # out, and never round onto the finite end
    c = Counter(lambda x: 1.0 / (1.0 + x * x))
    seen = []
    res = tanh_sinh(lambda x: seen.append(x) or c(x), 1.0, math.inf)
    assert res.converged and res.evaluations == c.calls == len(seen)
    assert abs(res.value - math.pi / 4.0) <= 1e-14 * (math.pi / 4.0)
    assert all(1.0 < x < math.inf for x in seen)
    assert min(seen) - 1.0 < 1e-10 and max(seen) > 1e100


# -- adaptive Gauss-Kronrod ---------------------------------------------------

def test_gk_textbook_integral():
    res = adaptive_gk(math.sin, 0.0, math.pi)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-13)
    assert res.error_estimate <= max(1e-11 * res.value, 1e-300)


def test_gk_catalan_trig_integrand():
    n = 3
    def h(x):
        s = math.sin(math.pi * x)
        return (2.0 * math.cos(math.pi * x)) ** (2 * n) * 2.0 * s * s
    res = adaptive_gk(h, 0.0, 1.0)
    assert res.value == pytest.approx(5.0, rel=1e-11)


def test_gk_oscillating_motzkin_integrand():
    # mot.12d at n = 6: bisection finds the sign change at 1/sqrt(3) unseeded
    n = 6
    def h(x):
        t = x * x
        inv = 1.0 / (1.0 + t)
        return (((3.0 - t) * inv) ** n + ((3.0 * t - 1.0) * inv) ** n) * t * inv**3
    res = adaptive_gk(h, 0.0, 1.0)
    assert res.converged
    value = res.value * 16.0 / math.pi
    assert value == pytest.approx(float(motzkin(6)), rel=1e-9)


def test_gk_deterministic():
    def h(x):
        return math.sin(37.0 * x) * math.exp(-x)
    r1 = adaptive_gk(h, 0.0, 3.0)
    r2 = adaptive_gk(h, 0.0, 3.0)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_gk_budget_exhaustion_flagged():
    def nasty(x):
        return abs(x - 1.0 / 3.0) ** -0.5 if x != 1.0 / 3.0 else 0.0
    # the budget is 2000 intervals, each bisection 30 evaluations past the first 15
    res = adaptive_gk(nasty, 0.0, 1.0, rel_tol=1e-14)
    assert not res.converged
    assert res.evaluations == 15 + 30 * 1999
    assert res.rule == "gauss-kronrod[intervals=2000]"


# -- shared contracts ---------------------------------------------------------

def test_evaluation_counts_are_true_call_counts():
    c = Counter(lambda x: x * x)
    res = tanh_sinh(c, 0.0, 1.0)
    assert res.evaluations == c.calls

    # on the u-map too, whose nodes past x's overflow are not evaluated
    c = Counter(lambda x: 1.0 / (1.0 + x * x))
    res = integrate_semi_infinite(c)
    assert res.evaluations == c.calls

    c = Counter(math.sin)
    res = adaptive_gk(c, 0.0, math.pi)
    assert res.evaluations == c.calls

    c = Counter(lambda x: x**4)
    chebyshev_sum_first(map(c, chebyshev_nodes(1, 5)), 5)
    assert c.calls == 5

    c = Counter(lambda x: x**4)
    chebyshev_sum_second(map(c, chebyshev_nodes(2, 7)), 7)
    assert c.calls == 7

    sing = Counter(lambda da, db: 1.0 / math.sqrt(da * db))
    res = tanh_sinh(None, 0.0, 1.0, singular=sing)
    assert res.evaluations == sing.calls


def test_converged_respects_tolerance_contract():
    res = tanh_sinh(lambda x: math.exp(-x), 0.0, 5.0, rel_tol=1e-9)
    assert res.converged
    assert res.error_estimate <= 1e-9 * abs(res.value)
    assert res.evaluations > 0


# each engine as the catalog and lemma1 call it; rel_tol is the one setting
# a caller gives, the level cap is the constant _MAX_LEVELS
_ENGINES = {
    "tanh-sinh": lambda h, rel_tol: tanh_sinh(h, 0.0, 1.0, rel_tol),
    "distance": lambda h, rel_tol: tanh_sinh(None, 0.0, 1.0, rel_tol,
                                             singular=lambda da, db: h(da)),
    "semi-infinite": lambda h, rel_tol: integrate_semi_infinite(h, rel_tol),
    "gauss-kronrod": lambda h, rel_tol: adaptive_gk(h, 0.0, 1.0, rel_tol=rel_tol),
}


def _assert_rel_tol_refused(bad_values):
    for engine in _ENGINES.values():
        probe = Counter(lambda x: math.exp(-x))
        for bad in bad_values:
            with pytest.raises(ValueError) as refused:
                engine(probe, bad)
            assert str(refused.value) == f"rel_tol must be finite and at least 1e-15, got {bad!r}"
        assert probe.calls == 0


def test_engines_refuse_a_rel_tol_that_is_not_positive_and_finite():
    # a rel_tol that is not a positive finite number is refused by every
    # engine before any evaluation; the level cap is fixed
    assert quadrature._MAX_LEVELS == 12
    _assert_rel_tol_refused((0.0, -1e-11, math.inf, -math.inf, math.nan))


def test_engines_refuse_a_rel_tol_below_the_floor():
    # below the measured floor some forced row cannot converge: refused up
    # front, while the floor itself runs (Gauss-Kronrod's estimate never drops
    # below 50 eps |value|, so it does not converge there)
    floor = quadrature._MIN_REL_TOL
    _assert_rel_tol_refused((math.nextafter(floor, 0.0), 1e-16, 5e-324))
    for engine in _ENGINES.values():
        probe = Counter(lambda x: math.exp(-x))
        engine(probe, floor)
        assert probe.calls > 0


# -- engine contracts on closed forms -------------------------------------------
#
# Each engine either converges to within 100 times its own tolerance, or its
# error estimate where that is larger, of the truth, or says it did not
# converge; it never returns NaN or raises.  These closed forms are all in
# reach of the default rel_tol, so every case must also converge.  A tail
# cutoff that stops at the first small terms fails them: the cos^(2n) cases
# from n = 13, whose mass sits at both ends of (0, pi).

def _beta(p, q):
    return math.gamma(p) * math.gamma(q) / math.gamma(p + q)


def _assert_contract(res, truth):
    assert not math.isnan(res.value) and not math.isnan(res.error_estimate)
    assert res.converged, (res, truth)
    bound = 100.0 * max(res.error_estimate, 1e-11 * abs(res.value))
    assert abs(res.value - truth) <= bound, (res, truth)


exponents = st.floats(-0.5, 40.0)


@given(exponents, exponents)
@example(-0.5, -0.5)
@example(-0.5, 40.0)
@example(40.0, 40.0)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tanh_sinh_beta_integral_in_distance_form(a, b):
    # int_0^1 x^a (1-x)^b dx = B(a+1, b+1)
    res = tanh_sinh(None, 0.0, 1.0, singular=lambda da, db: da**a * db**b)
    _assert_contract(res, _beta(a + 1.0, b + 1.0))


@given(exponents, exponents)
@example(-0.5, -0.5)
@example(-0.5, 40.0)
@example(40.0, 40.0)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_semi_infinite_beta_integral(a, b):
    # int_0^inf x^a/(1+x)^(a+b+2) dx = B(a+1, b+1), written so that no
    # factor of the integrand overflows
    res = integrate_semi_infinite(lambda x: (x / (1.0 + x)) ** a * (1.0 + x) ** -(b + 2.0))
    _assert_contract(res, _beta(a + 1.0, b + 1.0))


@pytest.mark.parametrize("engine", [tanh_sinh, adaptive_gk], ids=["tanh-sinh", "gauss-kronrod"])
def test_endpoint_heavy_cosine_power(engine):
    # int_0^pi cos^(2n) theta dtheta = pi C(2n, n)/4^n
    for n in range(101):
        res = engine(lambda t: math.cos(t) ** (2 * n), 0.0, math.pi)
        _assert_contract(res, math.pi * comb(2 * n, n) / 4**n)


# -- double-exponential node tables ---------------------------------------------

def test_lazy_de_nodes_match_eager_tables():
    # threads that start on an empty cache walk every usable node of levels
    # 0..12 (a growing integrand never converges); however their fills
    # interleave, each must see, bit for bit and in order, the nodes the
    # level loop used to build eagerly by stepping t += 2h, and each level
    # must stop at its first node whose distance or weight underflows
    quadrature._de_level.cache_clear()
    t_max, node = quadrature._T_MAX, quadrature._de_node
    eager = [[node(float(k)) for k in range(1, int(t_max) + 1)]]
    for level in range(1, 13):
        h = 2.0 ** (-level)
        ts, t = [], h
        while t < t_max:
            ts.append(t)
            t += 2.0 * h
        eager.append([node(t) for t in ts])
    # on (0, 1): the center, then both distances of every usable node
    expected, filled = [(0.5, 0.5)], []
    for nodes in eager:
        for i, (d, w) in enumerate(nodes):
            near = 0.5 * d
            if near == 0.0 or w == 0.0:
                filled.append(i + 1)
                break
            expected += [(1.0 - near, near), (near, 1.0 - near)]
        else:
            filled.append(len(nodes))
    assert filled[-1] < len(eager[-1])  # the deep levels reach the underflow
    walks = []

    def walk():
        seen = []

        def f(da, db):
            seen.append((da, db))
            return float(len(seen))

        walks.append((quadrature._tanh_sinh(f, 0.0, 1.0, quadrature._MIN_REL_TOL).converged, seen))

    threads = [threading.Thread(target=walk) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    walk()  # reads the filled tables back
    assert len(walks) == len(threads) + 1

    def bits(points):
        return [[v.hex() for v in point] for point in points]

    for converged, seen in walks:
        assert not converged
        assert bits(seen) == bits(expected)
    # the cache holds each level reached, every node below t_max
    assert quadrature._de_level.cache_info().currsize == 13
    for level, nodes in enumerate(eager):
        assert bits(quadrature._de_level(level)) == bits(nodes), level


def test_threads_filling_tables_give_identical_reports():
    # library callers may call catalog.verify from threads: four of them fill
    # the same levels of an empty cache at once, on a finite and on the
    # semi-infinite domain, and get the rows of a serial run
    forced = ("cat.eq4", "mot.12b")
    cases = [(get_representation(rep_id), n) for rep_id in forced for n in range(31, 61)]
    quadrature._de_level.cache_clear()
    serial = [verify(rep, n, rule="tanh-sinh") for rep, n in cases]
    quadrature._de_level.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            rows = pool.map(lambda case: verify(*case, rule="tanh-sinh"), cases, timeout=120)
            threaded = list(rows)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert all(row.passed for row in serial)
    # the CLI runs rows on the calling thread at any --jobs, and its report
    # stays byte-identical across --jobs values, each from a fresh process
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for selector in forced:
        argv = ["verify", selector, "--rule", "tanh-sinh", "--n-range", "31..60", "--n-max", "100"]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "catmot.cli", *argv, "--jobs", jobs],
                capture_output=True, env=env, timeout=120,
            )
            for jobs in ("1", "4")
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count(b"\n") == 1 + 30

import inspect
import math
import sys
from fractions import Fraction
from itertools import repeat

import pytest

from catmot.catalog import (
    Family,
    Representation,
    Singularity,
    Substitution,
    default_tolerance,
    get_representation,
    list_representations,
    verify,
)
from catmot.exact import catalan, motzkin
from catmot.quadrature import QuadConfig, chebyshev_nodes, tanh_sinh
from catmot.transform import FORMS, motzkin_representation

# the 19 catalog entries and the 9 derived transforms
ENTRIES = {
    rep.id: rep
    for rep in (*list_representations(), *map(motzkin_representation, FORMS.values()))
}

ALL_IDS = [
    "cat.eq2", "cat.eq3", "cat.eq4", "cat.eq5", "cat.eq6", "cat.eq7",
    "cat.eq8", "cat.eq9", "cat.eq10", "cat.conc1", "cat.conc2",
    "mot.12a", "mot.12b", "mot.12c", "mot.12d", "mot.12e", "mot.12f",
    "mot.13a", "mot.13b",
]


def _at_theta(rep: Representation, t: float) -> tuple[tuple[float, ...], float]:
    """The integrand's arguments and the Jacobian at one theta, from the
    substitution's one map."""
    columns, [jacobian] = rep.substitution.tabulate(rep, [t])
    return tuple(column[0] for column in columns), jacobian


def theta_integrand(rep: Representation, n: int):
    """The integrand at n at the mapped point times the Jacobian, one node at
    a time: a function of theta whose integral over (0, pi) is the entry's."""
    def g(t: float) -> float:
        point, jacobian = _at_theta(rep, t)
        return rep.integrand(n, *point) * jacobian

    return g


def test_catalog_size_and_order():
    reps = list_representations()
    assert [rep.id for rep in reps] == ALL_IDS
    assert len(list_representations(Family.CATALAN)) == 11
    assert len(list_representations(Family.MOTZKIN)) == 8


def test_eq9_descriptor():
    rep = get_representation("cat.eq9")
    assert rep.domain == (-1.0, 1.0)
    assert rep.singularities == frozenset({Singularity.SMOOTH})
    sub = rep.substitution
    assert (sub.kind, sub.degree(7)) == (2, 14)
    assert verify(rep, 7).rule == "gauss-chebyshev-2[N=8]"


def test_eq6_descriptor():
    rep = get_representation("cat.eq6")
    assert rep.domain[0] == 0.0 and math.isinf(rep.domain[1])
    assert rep.semi_infinite


def test_conc2_minimum_n():
    rep = get_representation("cat.conc2")
    assert rep.n_min == 1
    assert all(r.n_min == 0 for r in list_representations() if r.id != "cat.conc2")


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        get_representation("cat.eq99")


def test_prefactors_are_exact_rationals():
    rep = get_representation("cat.eq2")
    rational, pi_power = rep.prefactor(30)
    assert rational.numerator == 4**30 and rational.denominator == 31
    assert pi_power == -1
    rep = get_representation("cat.eq7")
    assert rep.prefactor(9) == (1, 0)


def test_integrand_point_values():
    assert get_representation("cat.eq10").integrand(0, 0.0) == 2.0
    assert get_representation("cat.eq7").integrand(1, 0.25) == pytest.approx(2.0, rel=1e-15)
    assert get_representation("mot.12f").integrand(2, 1.0) == pytest.approx(
        4.0 * math.sqrt(3.0), rel=1e-15
    )


def test_verify_point_examples():
    row = verify(get_representation("cat.eq2"), 0)
    assert row.exact == 1 and row.passed
    assert row.estimate == pytest.approx(1.0, rel=1e-9)

    row = verify(get_representation("cat.eq5"), 3)
    assert row.exact == 5 and row.rel_err <= 1e-9 and row.passed

    row = verify(get_representation("mot.12c"), 10)
    assert row.exact == 2188 and row.rel_err <= 1e-9 and row.passed


def test_verify_row_contract():
    row = verify(get_representation("cat.eq8"), 7, tol=1e-10)
    assert row.rel_err == abs(row.estimate - float(row.exact)) / float(row.exact)
    assert row.passed == (row.converged and row.rel_err <= 1e-10)
    assert row.evaluations > 0


def test_even_integrands():
    for rid in ("cat.eq2", "cat.eq9", "cat.eq10"):
        rep = get_representation(rid)
        half = rep.domain[1]
        for n in (0, 1, 4):
            for x in (0.1 * half, 0.45 * half, 0.9 * half):
                assert rep.at(n)(x) == rep.at(n)(-x)


def test_eq4_eq5_estimates_agree():
    # eq5 is eq4 after rescaling the domain by 4; their verified estimates
    # must coincide, not just both be close to the exact value
    for n in (0, 2, 9, 15):
        e4 = verify(get_representation("cat.eq4"), n).estimate
        e5 = verify(get_representation("cat.eq5"), n).estimate
        assert abs(e4 - e5) / float(catalan(n)) <= 1e-12


def test_symmetrized_forms_match_two_term_average():
    # the one-sided integrands of mot.12e / mot.12f integrate to the same
    # value as the two-term average (1/2)((1+f)^n + (1-f)^n) g
    from catmot.quadrature import chebyshev_nodes, chebyshev_sum_second

    def integral(h, n_nodes):  # of h(x) sqrt(1 - x^2) over (-1, 1), x = cos(theta)
        terms = (h(math.cos(t)) * math.sin(t) ** 2 for t in chebyshev_nodes(2, n_nodes))
        return math.pi * chebyshev_sum_second(terms, n_nodes)

    for n in (0, 1, 5, 10, 17):
        one_sided = integral(lambda t: (1.0 + 2.0 * t) ** n, n + 2)
        averaged = integral(
            lambda t: 0.5 * ((1.0 + 2.0 * t) ** n + (1.0 - 2.0 * t) ** n), n + 2
        )
        assert abs(one_sided - averaged) / abs(one_sided) <= 1e-12

        one_sided = integral(lambda t: (1.0 + t) ** n, n + 2)
        averaged = integral(lambda t: 0.5 * ((1.0 + t) ** n + (1.0 - t) ** n), n + 2)
        assert abs(one_sided - averaged) / abs(one_sided) <= 1e-12


def test_default_tolerance_classes():
    assert default_tolerance(get_representation("cat.eq2")) == 1e-9
    assert default_tolerance(get_representation("cat.eq6")) == 1e-9
    assert default_tolerance(get_representation("mot.13a")) == 1e-9
    assert default_tolerance(get_representation("cat.eq3")) == 1e-11
    assert default_tolerance(get_representation("mot.12e")) == 1e-11


def test_rule_auto_selection_via_rule_field():
    # the default is the Gauss-Chebyshev rule in theta on every entry, with
    # deg // 2 + 1 nodes of the substitution's kind
    for rep in ENTRIES.values():
        for n in (rep.n_min, 3, 8):
            sub = rep.substitution
            expected = f"gauss-chebyshev-{sub.kind}[N={sub.degree(n) // 2 + 1}]"
            assert verify(rep, n).rule == expected, rep.id
    assert verify(get_representation("cat.eq2"), 3).rule.startswith("gauss-chebyshev-1")
    assert verify(get_representation("cat.eq9"), 3).rule.startswith("gauss-chebyshev-2")
    assert verify(get_representation("cat.eq6"), 3).rule.startswith("gauss-chebyshev-1")


def test_rule_override_validation():
    # the theta rule applies to every entry, the infinite domains included
    for rid in ("cat.eq4", "cat.eq6", "mot.12b"):
        row = verify(get_representation(rid), 1, rule="chebyshev")
        assert row.rule.startswith("gauss-chebyshev") and row.passed, rid
    # so does tanh-sinh, through x = u/(1 - u) on the infinite ones
    for rid in ("cat.eq4", "cat.eq6", "mot.12b"):
        row = verify(get_representation(rid), 1, rule="tanh-sinh")
        assert row.rule.startswith("tanh-sinh") and row.passed, rid
    for rule in ("exp-sinh", "simpson", "gauss-kronrod"):
        with pytest.raises(ValueError, match="unknown rule override"):
            verify(get_representation("cat.eq4"), 1, rule=rule)


def test_nonconvergence_is_flagged_not_raised():
    # three levels do not meet rel_tol 1e-12, while the estimate itself is
    # good to an ulp: the row fails on convergence alone
    rep = get_representation("cat.eq9")
    cfg = QuadConfig(rel_tol=1e-12, max_levels=3)
    row = verify(rep, 2, cfg, rule="tanh-sinh")
    assert row.rel_err <= default_tolerance(rep)
    assert not row.converged
    assert not row.passed
    assert row.rule == "tanh-sinh[level=3][non-converged]"


def test_chebyshev_exact_entries_at_minimal_nodes():
    # a degree-n polynomial needs n//2 + 1 nodes
    for rid in ("mot.12e", "mot.12f"):
        rep = get_representation(rid)
        for n in range(0, 26):
            row = verify(rep, n)
            assert row.evaluations == n // 2 + 1
            assert row.rel_err <= 1e-12, (rid, n, row.rel_err)
    # conc1's polynomial factor has degree 2n+2, so it needs n+2 nodes
    rep = get_representation("cat.conc1")
    for n in range(0, 26):
        row = verify(rep, n)
        assert row.evaluations == n + 2
        assert row.rel_err <= 1e-13, (n, row.rel_err)


@pytest.mark.parametrize("rep_id", list(ENTRIES))
def test_chebyshev_rule_integrates_the_stated_integrand(rep_id):
    # a wrong integrand must fail the default check, not just the other rules
    rep = ENTRIES[rep_id]
    f = rep.integrand
    bad = rep._replace(integrand=lambda n, *at: 1.5 * f(n, *at))
    row = verify(bad, 5)
    assert row.rule.startswith("gauss-chebyshev")
    assert not row.passed
    assert row.rel_err == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("rep_id", list(ENTRIES))
def test_default_rule_passes_at_large_n(rep_id):
    # rows that failed on the double-exponential engines' tail cutoff
    rep = ENTRIES[rep_id]
    for n in (45, 60, 71, 78, 85, 100, 300):
        row = verify(rep, n)
        assert row.passed, (rep_id, n, row.rel_err, row.rule)


@pytest.mark.parametrize("rep_id", list(ENTRIES))
def test_theta_rule_agrees_with_the_engine_the_tags_pick(rep_id):
    # forced tanh-sinh is the one cross-check; the tags pick the map it runs
    # through: x = u/(1 - u), the endpoint distances, or x itself
    rep = ENTRIES[rep_id]
    tol = default_tolerance(rep)
    for n in range(rep.n_min, 31):
        theta, forced = verify(rep, n), verify(rep, n, rule="tanh-sinh")
        assert theta.rule.startswith("gauss-chebyshev") and forced.rule.startswith("tanh-sinh")
        assert forced.passed, (rep_id, n, forced.rel_err)
        assert abs(theta.estimate - forced.estimate) <= tol * theta.exact, (rep_id, n)


def test_a_copy_on_another_domain_integrates_that_domain_under_both_rules():
    # the theta map reads the domain from the entry, as the forced engine
    # does, so both rules integrate the copy's (0, 2): 4^n/((n+1) pi) times
    # the integral of x^n/sqrt(x(2 - x)), C(n) 2^n
    wider = get_representation("cat.eq4")._replace(domain=(0.0, 2.0))
    for n in (3, 10):
        theta, forced = verify(wider, n), verify(wider, n, rule="tanh-sinh")
        assert abs(theta.estimate - forced.estimate) <= 1e-12 * abs(forced.estimate), n
        assert theta.estimate == pytest.approx(catalan(n) * 2**n, rel=1e-12), n


def test_a_half_line_copy_integrates_its_own_domain():
    # the forced engine reads the lower end from the entry: cat.eq6 on
    # (1, inf) is its (0, inf) value less the prefactor times (0, 1)
    rep = get_representation("cat.eq6")
    shifted = rep._replace(domain=(1.0, math.inf))
    for n in (3, 10):
        head = rep.prefactor_float(n) * tanh_sinh(rep.at(n), 0.0, 1.0).value
        expected = verify(rep, n, rule="tanh-sinh").estimate - head
        row = verify(shifted, n, rule="tanh-sinh")
        assert row.converged and abs(row.estimate - expected) <= 1e-12 * expected, n


@pytest.mark.parametrize(
    "rep_id, domain",
    [("cat.eq8", (0.0, 2.0)), ("cat.eq6", (1.0, math.inf)), ("cat.eq8", (0.0, math.inf))],
    ids=["cat.eq8-0..2", "cat.eq6-1..inf", "cat.eq8-0..inf"],
)
def test_tangent_copies_map_theta_onto_their_own_domain(rep_id, domain):
    # x = lo + (hi - lo) tan(theta/4) onto (lo, hi), lo + tan(theta/2) onto
    # (lo, inf), whatever the tags say (cat.eq8 has no semi-infinite tag):
    # the nodes rise through the copy's domain towards both ends
    copy = get_representation(rep_id)._replace(domain=domain)
    lo, hi = domain
    thetas = chebyshev_nodes(1, 400)
    [xs], jacobians = copy.substitution.tabulate(copy, thetas)
    assert all(lo < x < hi for x in xs) and xs == sorted(xs)
    assert all(j > 0.0 for j in jacobians)
    assert xs[0] - lo < 1e-2 and (xs[-1] > 100.0 if hi == math.inf else hi - xs[-1] < 1e-2)
    if hi < math.inf:  # the Jacobian integrates to the width
        assert math.pi * sum(jacobians) / len(thetas) == pytest.approx(hi - lo, rel=1e-4)


def test_a_tangent_copy_fails_its_row_instead_of_reading_another_interval():
    # integrand x Jacobian is P(cos theta) only on (0, 1) and (0, inf): on
    # cat.eq8's (0, 2) copy the theta rule is not exact, and no longer reads
    # C(3) = 5 of (0, 1); the forced engine converges to the copy's 5.276
    copy = get_representation("cat.eq8")._replace(domain=(0.0, 2.0))
    theta, forced = verify(copy, 3), verify(copy, 3, rule="tanh-sinh")
    assert not theta.passed and abs(theta.estimate - 5.0) > 1.0
    assert forced.converged and not forced.passed
    assert forced.estimate == pytest.approx(5.276252, rel=1e-6)


def test_the_semi_infinite_tag_describes_the_domain():
    for rep in ENTRIES.values():
        assert (Singularity.SEMI_INFINITE in rep.singularities) == (rep.domain[1] == math.inf), rep.id
        assert rep.semi_infinite == (rep.domain[1] == math.inf), rep.id


def test_substitution_maps_theta_into_the_domain():
    for rep in ENTRIES.values():
        lo, hi = rep.domain
        # every map covers the domain once as theta runs over (0, pi)
        for t in (1e-3, 0.3, 0.25 * math.pi, 0.5 * math.pi, 0.9 * math.pi, math.pi - 1e-3):
            point, jacobian = _at_theta(rep, t)
            assert jacobian > 0.0, (rep.id, t)
            if rep.endpoint_singular:
                da, db = point
                assert da > 0.0 and db > 0.0
                assert da + db == pytest.approx(hi - lo, rel=1e-15), (rep.id, t)
            else:
                [x] = point
                assert lo < x < hi, (rep.id, t)


def test_full_default_sweep_passes():
    for rep in list_representations():
        for n in range(rep.n_min, 21):
            row = verify(rep, n)
            assert row.passed, (rep.id, n, row.rel_err, row.rule)


def test_verify_against_both_families():
    assert verify(get_representation("cat.eq3"), 12).exact == catalan(12)
    assert verify(get_representation("mot.13b"), 12).exact == motzkin(12)


def test_integrands_finite_inside_domain():
    for rep in list_representations():
        lo, hi = rep.domain
        if math.isinf(hi):
            xs = [0.01, 0.5, 1.0, 7.3, 150.0]
        else:
            xs = [lo + (hi - lo) * t for t in (1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6)]
        for n in (rep.n_min, rep.n_min + 5, 20):
            for x in xs:
                value = rep.at(n)(x)
                assert math.isfinite(value), (rep.id, n, x)


def test_prefactors_well_defined():
    for rep in list_representations():
        for n in (rep.n_min, rep.n_min + 7, 30):
            rational, pi_power = rep.prefactor(n)
            assert rational.denominator >= 1 and rational > 0
            assert pi_power in (0, -1)


def _evaluation_totals(n_lo: int, n_hi: int) -> dict[str, int]:
    """Integrand evaluations per rule of ``verify all`` over n_lo..n_hi."""
    totals: dict[str, int] = {}
    for rep in list_representations():
        for n in range(max(n_lo, rep.n_min), n_hi + 1):
            row = verify(rep, n)
            rule = row.rule.split("[", 1)[0]
            totals[rule] = totals.get(rule, 0) + row.evaluations
    return totals


def test_sweep_evaluation_totals_per_rule():
    # integrand evaluations of the default sweep (every entry, n <= 30), per
    # rule; a change to an entry's substitution degree or kind moves these
    totals = _evaluation_totals(0, 30)
    assert totals == {"gauss-chebyshev-1": 3_703, "gauss-chebyshev-2": 2_256}
    assert sum(totals.values()) == 5_959


def test_deep_range_evaluation_total():
    # the same count over the deep workload's range, n in 31..100
    assert sum(_evaluation_totals(31, 100).values()) == 54_110


@pytest.mark.parametrize("rep_id", list(ENTRIES))
def test_stated_degree_is_tight(rep_id):
    # one node fewer than degree // 2 + 1 must miss the class tolerance: a
    # degree stated too high would otherwise only waste nodes, unnoticed
    from catmot.quadrature import chebyshev_nodes, chebyshev_sum_first, chebyshev_sum_second

    rep = ENTRIES[rep_id]
    sub, tol = rep.substitution, default_tolerance(rep)
    node_sum = chebyshev_sum_first if sub.kind == 1 else chebyshev_sum_second
    checked = 0
    for n in range(max(1, rep.n_min), 13):
        n_nodes = sub.degree(n) // 2
        if n_nodes == 0:
            continue  # the exact rule already runs on one node
        terms = map(theta_integrand(rep, n), chebyshev_nodes(sub.kind, n_nodes))
        estimate = rep.prefactor_float(n) * math.pi * node_sum(terms, n_nodes)
        exact = rep.exact_value(n)
        assert abs(estimate - exact) / exact > tol, (rep_id, n, n_nodes)
        checked += 1
    assert checked, rep_id


def test_integrand_takes_endpoint_distances_exactly_on_endpoint_singular_entries():
    entries = tuple(ENTRIES.values())
    assert len(entries) == 28
    singular = [rep for rep in entries if rep.endpoint_singular]
    assert len(singular) == 8 + 3  # three transforms have an endpoint-singular source
    for rep in entries:
        params = inspect.signature(rep.integrand).parameters.values()
        positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert len(positional) == (3 if rep.endpoint_singular else 2), rep.id
    for rep in singular:
        a, b = rep.domain
        for n in (rep.n_min, rep.n_min + 3):
            for x in (a + (b - a) * t for t in (1e-9, 0.2, 0.5, 0.7, 1.0 - 1e-9)):
                assert rep.at(n)(x) == rep.integrand(n, x - a, b - x), (rep.id, n, x)


def test_at_reads_the_integrand_through_the_domain():
    base = dict(
        id="test.entry",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(1), 0),
        domain=(0.0, 1.0),
        statement="",
        substitution=Substitution(
            lambda rep, thetas: ((list(thetas),), [1.0] * len(thetas)), 1, lambda n: n
        ),
    )
    plain = Representation(
        **base, integrand=lambda n, x: n + x, singularities=frozenset({Singularity.SMOOTH})
    )
    assert plain.at(3)(0.25) == 3.25
    rep = Representation(
        **base,
        integrand=lambda n, da, db: da * 10.0 + db,
        singularities=frozenset({Singularity.LEFT_ENDPOINT_ALGEBRAIC}),
    )
    assert rep.at(0)(0.25) == 0.25 * 10.0 + 0.75
    # the distances follow a copy's domain
    wider = rep._replace(domain=(0.0, 2.0))
    assert wider.at(0)(0.25) == 0.25 * 10.0 + 1.75


# -- the tabulated theta rule and the exact values that verify reads ----------

# the largest n of each family under the theta rule (catalog.check_request)
THETA_LIMITS = {Family.CATALAN: 509, Family.MOTZKIN: 645}


def _per_node_sum(rep: Representation, n: int, n_nodes: int) -> float:
    """The theta sum one node at a time, with the nodes written out:
    (2k-1)pi/(2N) for kind 1 over N, k pi/(N+1) for kind 2 over N + 1."""
    kind, g = rep.substitution.kind, theta_integrand(rep, n)
    total = 0.0
    for k in range(1, n_nodes + 1):
        if kind == 1:
            total += g((2 * k - 1) * math.pi / (2 * n_nodes))
        else:
            total += g(k * math.pi / (n_nodes + 1))
    return total / (n_nodes if kind == 1 else n_nodes + 1)


@pytest.mark.parametrize("rep_id", list(ENTRIES))
def test_tabulated_theta_sum_matches_the_per_node_sum_bit_for_bit(rep_id):
    # the map is elementwise, so a table of N nodes holds what it gives one
    # node at a time, and the sum adds the products in node order, one
    # rounding per term, so not even the last bit moves; N - 1 nodes is the
    # count test_stated_degree_is_tight runs
    from catmot.catalog import _theta_sum

    rep = ENTRIES[rep_id]
    sub = rep.substitution
    for n in (*range(rep.n_min, 121), THETA_LIMITS[rep.family]):
        n_nodes = sub.degree(n) // 2 + 1
        for count in (n_nodes, n_nodes - 1):
            if count == 0:
                continue
            tabulated, reference = _theta_sum(rep, n, count), _per_node_sum(rep, n, count)
            assert tabulated.hex() == reference.hex(), (rep_id, n, count)


def _error_grid(rep: Representation) -> tuple[int, ...]:
    """n from n_min to 100, every 7th n above it and the theta limit."""
    limit = THETA_LIMITS[rep.family]
    return (*range(rep.n_min, 101), *range(101, limit, 7), limit)


def test_theta_error_estimate_bounds_the_true_error():
    # the stated estimate, gamma_k |raw|, bounds both the row's rel_err and
    # the exact relative error of its estimate; it gates the estimate, never
    # the verdict.  The count takes the sum of |term| as at most twice |sum|
    from operator import mul

    from catmot.catalog import _ABS_SUM_RATIO, _integrate, _nodes

    rows = 0
    for rep in ENTRIES.values():
        sub = rep.substitution
        for n in _error_grid(rep):
            estimate, result = _integrate(rep, n, QuadConfig(), "chebyshev")
            columns, jacobians = sub.tabulate(rep, _nodes(sub.kind, result.evaluations))
            terms = list(map(mul, map(rep.integrand, repeat(n), *columns), jacobians))
            assert sum(map(abs, terms)) <= _ABS_SUM_RATIO * abs(sum(terms)), (rep.id, n)
            row = verify(rep, n)
            bound = result.error_estimate / abs(result.value)
            true = abs(Fraction(estimate) - row.exact) / row.exact
            assert row.rel_err <= bound and true <= bound, (rep.id, n, row.rel_err, bound)
            rows += 1
    assert rows == 4_830


def test_exact_values_are_the_oracles_up_to_the_theta_limits():
    from catmot.exact import motzkin_oracle

    for family, exact in ((Family.CATALAN, catalan), (Family.MOTZKIN, motzkin)):
        rep = list_representations(family)[0]
        values = [rep.exact_value(n) for n in range(THETA_LIMITS[family] + 1)]
        assert values == [exact(n) for n in range(THETA_LIMITS[family] + 1)], family
    rep = get_representation("mot.12a")
    assert [rep.exact_value(n) for n in range(65)] == [motzkin_oracle(n) for n in range(65)]
    # past the limits, and below 0, the exact functions answer
    assert get_representation("cat.eq2").exact_value(600) == catalan(600)
    with pytest.raises(ValueError):
        rep.exact_value(-1)


def test_rows_from_threads_equal_the_serial_rows(monkeypatch):
    # the exact values and the theta nodes start empty, so four threads race
    # to fill them; every row must still equal the serial run's
    import random
    from concurrent.futures import ThreadPoolExecutor

    import catmot.catalog
    from catmot.catalog import _nodes

    requests = [
        (rep, n) for rep in ENTRIES.values() for n in range(max(rep.n_min, 31), 101)
    ]
    serial = {(rep.id, n): verify(rep, n) for rep, n in requests}
    random.Random(19).shuffle(requests)
    monkeypatch.setattr(catmot.catalog, "_EXACT_VALUES", {})
    _nodes.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda request: verify(*request), requests, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert {(row.rep_id, row.n): row for row in threaded} == serial
    assert _nodes.cache_info().currsize <= 16


def test_node_misses_are_an_lru_replay_of_the_n_by_n_row_order(capsys):
    # verify runs its rows n by n, each entry at one n after the other, and
    # a row reads the nodes of its (kind, N); replaying that order through
    # an LRU of the cache's size gives the node lists the run builds
    from collections import OrderedDict

    from catmot.catalog import _nodes
    from catmot.cli import main

    size = _nodes.cache_info().maxsize
    replay: OrderedDict[tuple[int, int], None] = OrderedDict()
    misses = 0
    for n in range(0, 31):
        for rep in list_representations():
            if n < rep.n_min:
                continue
            key = (rep.substitution.kind, rep.substitution.degree(n) // 2 + 1)
            if key in replay:
                replay.move_to_end(key)
                continue
            misses += 1
            replay[key] = None
            if len(replay) > size:
                replay.popitem(last=False)
    _nodes.cache_clear()
    assert main(["verify", "all", "--n-range", "0..30"]) == 0
    capsys.readouterr()
    assert _nodes.cache_info().misses == misses == 89

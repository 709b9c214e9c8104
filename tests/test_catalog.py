import math
from fractions import Fraction

import pytest

from catmot.catalog import (
    Family,
    Representation,
    Singularity,
    default_tolerance,
    get_representation,
    list_representations,
    verify,
)
from catmot.exact import catalan, motzkin

ALL_IDS = [
    "cat.eq2", "cat.eq3", "cat.eq4", "cat.eq5", "cat.eq6", "cat.eq7",
    "cat.eq8", "cat.eq9", "cat.eq10", "cat.conc1", "cat.conc2",
    "mot.12a", "mot.12b", "mot.12c", "mot.12d", "mot.12e", "mot.12f",
    "mot.13a", "mot.13b",
]


def test_catalog_size_and_order():
    reps = list_representations()
    assert [rep.id for rep in reps] == ALL_IDS
    assert len(list_representations(Family.CATALAN)) == 11
    assert len(list_representations(Family.MOTZKIN)) == 8


def test_eq9_descriptor():
    rep = get_representation("cat.eq9")
    assert rep.domain == (-1.0, 1.0)
    assert rep.singularities == frozenset({Singularity.SMOOTH})
    assert rep.exactness_hint is not None and rep.exactness_hint.kind == 2


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
                assert rep.integrand(n, x) == rep.integrand(n, -x)


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
    from catmot.quadrature import chebyshev_sum_second

    def integral(h, n_nodes):
        return math.pi * chebyshev_sum_second(h, n_nodes)

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
    assert verify(get_representation("cat.eq2"), 3).rule.startswith("gauss-chebyshev-1")
    assert verify(get_representation("cat.eq9"), 3).rule.startswith("gauss-chebyshev-2")
    assert verify(get_representation("cat.eq4"), 3).rule.startswith("tanh-sinh")
    assert verify(get_representation("cat.eq6"), 3).rule.startswith("exp-sinh")
    assert verify(get_representation("cat.eq3"), 3).rule.startswith("gauss-kronrod")


def test_rule_override_validation():
    with pytest.raises(ValueError):
        verify(get_representation("cat.eq6"), 1, rule="tanh-sinh")
    with pytest.raises(ValueError):
        verify(get_representation("cat.eq4"), 1, rule="chebyshev")
    with pytest.raises(ValueError):
        verify(get_representation("cat.eq4"), 1, rule="exp-sinh")
    with pytest.raises(ValueError):
        verify(get_representation("cat.eq4"), 1, rule="simpson")


def test_nonconvergence_is_flagged_not_raised():
    # forcing Gauss-Kronrod onto a 1/sqrt singularity cannot converge
    row = verify(get_representation("cat.eq4"), 0, rule="gauss-kronrod")
    assert not row.converged
    assert not row.passed
    assert "non-converged" in row.rule


def test_chebyshev_exact_entries_at_minimal_nodes():
    for rid in ("mot.12e", "mot.12f"):
        rep = get_representation(rid)
        for n in range(0, 26):
            row = verify(rep, n)
            assert row.evaluations == (n + 1) // 2 + 1
            assert row.rel_err <= 1e-12, (rid, n, row.rel_err)
    # conc1's polynomial factor has degree 2n+2, so it needs n+2 nodes
    rep = get_representation("cat.conc1")
    for n in range(0, 26):
        row = verify(rep, n)
        assert row.evaluations == n + 2
        assert row.rel_err <= 1e-13, (n, row.rel_err)


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
                value = rep.integrand(n, x)
                assert math.isfinite(value), (rep.id, n, x)


def test_prefactors_well_defined():
    for rep in list_representations():
        for n in (rep.n_min, rep.n_min + 7, 30):
            rational, pi_power = rep.prefactor(n)
            assert rational.denominator >= 1 and rational > 0
            assert pi_power in (0, -1)


def test_sweep_evaluation_totals_per_rule():
    # integrand evaluations of the default sweep (every entry, n <= 30), per
    # rule; a change to any engine's node order or stopping rule moves these
    totals: dict[str, int] = {}
    for rep in list_representations():
        for n in range(rep.n_min, 31):
            row = verify(rep, n)
            rule = row.rule.split("[", 1)[0]
            totals[rule] = totals.get(rule, 0) + row.evaluations
    assert totals == {
        "gauss-kronrod": 31_860,
        "tanh-sinh": 23_605,
        "exp-sinh": 7_006,
        "gauss-chebyshev-2": 1_534,
        "gauss-chebyshev-1": 1_023,
    }
    assert sum(totals.values()) == 65_028


def test_representation_takes_exactly_one_integrand_form():
    base = dict(
        id="test.entry",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(1), 0),
        domain=(0.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="",
    )
    with pytest.raises(ValueError):
        Representation(**base)
    with pytest.raises(ValueError):
        Representation(
            **base,
            integrand=lambda n, x: x,
            distance_integrand=lambda n, da, db: da,
        )
    rep = Representation(**base, distance_integrand=lambda n, da, db: da * 10.0 + db)
    assert rep.integrand(0, 0.25) == 0.25 * 10.0 + 0.75
    # copies are validated like new entries; a distance-form copy derives
    # its integrand anew
    plain = Representation(**base, integrand=lambda n, x: x)
    assert plain._replace(n_min=2).n_min == 2
    with pytest.raises(ValueError):
        plain._replace(distance_integrand=lambda n, da, db: da)
    with pytest.raises(ValueError):
        rep._replace(n_min=2)
    wider = rep._replace(integrand=None, domain=(0.0, 2.0))
    assert wider.integrand(0, 0.25) == 0.25 * 10.0 + 1.75

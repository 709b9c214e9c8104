import math

import pytest

from catmot.catalog import get_representation, list_representations, verify
from catmot.exact import motzkin
from catmot.transform import (
    FORMS,
    PAIRS,
    ComparisonMode,
    check_lemma1,
    get_form,
    integrate_transform,
    lemma1_sides,
    motzkin_representation,
    transform_deviation,
)

_PI = math.pi


def test_registry_contents():
    assert set(PAIRS) <= set(FORMS)
    assert len(FORMS) == 9
    assert len(PAIRS) == 8
    assert "cat.eq3" in FORMS and "cat.eq3" not in PAIRS
    phi_ids = {cid for cid, form in FORMS.items() if form.has_inverse_n_plus_1}
    assert phi_ids == {"cat.eq2", "cat.eq3", "cat.eq4"}


def _g(cid, x):
    # g of a form: its source entry at n = 0, where f^(2n) = 1
    rep = get_representation(cid)
    return rep.prefactor_float(0) * rep.integrand(0, x)


def _interior_points(rep, fractions):
    if rep.semi_infinite:
        return [u / (1.0 - u) for u in fractions]
    lo, hi = rep.domain
    return [lo + (hi - lo) * t for t in fractions]


def test_forms_match_their_source_representations():
    # the one registered fact, f: f(x)^(2n) g(x) must reproduce prefactor *
    # integrand (times n+1 for the 1/(n+1) flavor) of the source entry
    for cid, form in FORMS.items():
        assert form.id == cid
        rep = get_representation(cid)
        for n in (0, 3, 8):
            flavor_factor = n + 1 if form.has_inverse_n_plus_1 else 1
            for x in _interior_points(rep, (0.15, 0.5, 0.85)):
                lhs = form.f(x) ** (2 * n) * _g(cid, x)
                rhs = flavor_factor * rep.prefactor_float(n) * rep.integrand(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-12), (cid, n, x)


def test_trivial_order_is_the_source_entry_at_n_0():
    # both kernels are exactly 1 at n = 0, so the generated integrand is g
    # as the catalog computes it, bit for bit
    for cid, form in FORMS.items():
        integrand = motzkin_representation(form).integrand
        rep = get_representation(cid)
        for x in _interior_points(rep, (0.01, 0.15, 0.3, 0.5, 0.62, 0.85, 0.99)):
            assert integrand(0, x) == _g(cid, x), (cid, x)


def test_transform_simple_trivial_order():
    integrand = motzkin_representation(FORMS["cat.eq9"]).integrand
    for x in (-0.6, 0.0, 0.4):
        assert integrand(0, x) == _g("cat.eq9", x)


def test_transform_simple_hand_value():
    # f = 2x, g = (2/pi) sqrt(1-x^2), n = 1, x = 0.5:
    # (1/2)((1+1)^1 + 0^1) g = g = (2/pi) sqrt(0.75)
    integrand = motzkin_representation(FORMS["cat.eq9"]).integrand
    expected = 2.0 / _PI * math.sqrt(0.75)
    assert integrand(1, 0.5) == pytest.approx(expected, rel=1e-15)


def test_transform_phi_trivial_order():
    for cid in ("cat.eq2", "cat.eq4"):
        integrand = motzkin_representation(FORMS[cid]).integrand
        for x in (0.3, 0.62):
            assert integrand(0, x) == pytest.approx(_g(cid, x), rel=1e-15)


def test_transform_phi_hand_value():
    # f = 2x, g = 1/(pi sqrt(1-x^2)), n = 1, x = 0.5: phi_3(1) - phi_2(1) = 1,
    # divided by f^2 = 1, so the integrand equals g = 1/(pi sqrt(0.75))
    integrand = motzkin_representation(FORMS["cat.eq2"]).integrand
    expected = 1.0 / (_PI * math.sqrt(0.75))
    assert integrand(1, 0.5) == pytest.approx(expected, rel=1e-15)


def test_transform_phi_value_at_interior_zero_of_f():
    # the difference polynomial in f^2 has leading coefficient 1, so the
    # integrand equals g exactly where f vanishes
    # f = 2x vanishes at x = 0
    integrand = motzkin_representation(FORMS["cat.eq2"]).integrand
    for n in (1, 6, 19):
        assert integrand(n, 0.0) == _g("cat.eq2", 0.0)
    # f = 2 cos x vanishes at x = pi/2
    integrand = motzkin_representation(FORMS["cat.eq3"]).integrand
    x0 = _PI / 2.0
    for n in (2, 11):
        assert integrand(n, x0) == pytest.approx(_g("cat.eq3", x0), rel=1e-15)


def test_unknown_ids_raise_lookup_errors():
    with pytest.raises(KeyError):
        get_form("cat.conc1")
    with pytest.raises(KeyError):
        transform_deviation("cat.eq5", "mot.99", ComparisonMode.POINTWISE, 1)


def test_transform_integrals_reproduce_motzkin_numbers():
    for cid in FORMS:
        # cat.eq2 runs on tanh-sinh, whose tail cutoff fails it from n = 44
        large = () if cid == "cat.eq2" else (47, 60, 65, 95, 100)
        for n in (*range(0, 21), *large):
            value = integrate_transform(cid, n)
            exact = float(motzkin(n))
            assert abs(value - exact) / exact <= 1e-8, (cid, n)


def test_transform_is_integrated_with_the_catalog_rule():
    # the source's singularity tags pick the engine, as for an entry without
    # an exactness hint; the derived entry stays out of the catalog
    engines = {
        "gauss-kronrod": ("cat.eq3", "cat.eq7", "cat.eq8", "cat.eq9", "cat.eq10"),
        "tanh-sinh": ("cat.eq2", "cat.eq4", "cat.eq5"),
        "exp-sinh": ("cat.eq6",),
    }
    catalog_ids = {rep.id for rep in list_representations()}
    for engine, cids in engines.items():
        for cid in cids:
            derived = motzkin_representation(FORMS[cid])
            assert derived.id not in catalog_ids, cid
            assert verify(derived, 5).rule.startswith(engine), cid


def test_consistency_examples():
    pointwise, value_only = ComparisonMode.POINTWISE, ComparisonMode.VALUE_ONLY
    assert (pointwise.tolerance, value_only.tolerance) == (1e-12, 1e-10)
    assert transform_deviation("cat.eq7", "mot.12c", pointwise, 5) <= pointwise.tolerance
    assert transform_deviation("cat.eq10", "mot.12f", value_only, 7) <= value_only.tolerance
    assert transform_deviation("cat.eq2", "mot.13b", value_only, 4) <= value_only.tolerance


def test_consistency_all_pairs():
    for cid, (mid, mode) in PAIRS.items():
        for n in (0, 1, 5, 10, 20):
            assert transform_deviation(cid, mid, mode, n) <= mode.tolerance, (cid, mid, n)


def test_pointwise_requires_samples():
    with pytest.raises(ValueError):
        transform_deviation("cat.eq5", "mot.12a", ComparisonMode.POINTWISE, 2, 0)


# -- lemma 1 ------------------------------------------------------------------

def test_lemma1_constant_case():
    left, right = lemma1_sides(0, 0, 1.0)
    assert left == pytest.approx(0.5, rel=1e-13)
    assert right == pytest.approx(0.5, rel=1e-13)
    assert check_lemma1(0, 0, 1.0, 1e-10)


def test_lemma1_even_cosine_power():
    # the instance that doubles the half-range cosine-power identity
    assert check_lemma1(2, 0, _PI, 1e-10)


def test_lemma1_odd_case_has_opposite_signs():
    left, right = lemma1_sides(1, 1, 2.0)
    assert left > 0.0 > right
    assert left == pytest.approx(-right, rel=1e-12)
    assert check_lemma1(1, 1, 2.0, 1e-10)


def test_lemma1_grid():
    for r in range(7):
        for s in range(7):
            for a in (1.0, 2.5, _PI):
                assert check_lemma1(r, s, a, 1e-10), (r, s, a)


def test_lemma1_preconditions():
    with pytest.raises(ValueError):
        check_lemma1(-1, 0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        check_lemma1(0, 0, -1.0, 1e-10)
    with pytest.raises(ValueError):
        check_lemma1(0, 0, 1.0, 0.0)

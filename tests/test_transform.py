import math
from fractions import Fraction

import pytest

from catmot.catalog import VerificationRow, get_representation, list_representations, verify
from catmot.exact import catalan, motzkin
from catmot.quadrature import chebyshev_nodes
from catmot.transform import (
    FORMS,
    PAIRS,
    ComparisonMode,
    check_lemma1,
    get_form,
    motzkin_representation,
    transform_deviation,
)
from exact_coeffs import even_binomial_coeffs, phi_diff_coeffs, wallis
from x_form import x_form

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
    return rep.prefactor_float(0) * x_form(rep, 0)(x)


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
                rhs = flavor_factor * rep.prefactor_float(n) * x_form(rep, n)(x)
                assert lhs == pytest.approx(rhs, rel=1e-12), (cid, n, x)


def test_sources_rational_at_n_0_is_a_power_of_two():
    # g carries it, so its float is exact, and g's roundings are the catalog's
    for cid in FORMS:
        rational, _ = get_representation(cid).prefactor(0)
        for part in (rational.numerator, rational.denominator):
            assert part > 0 and part & (part - 1) == 0, (cid, rational)
        assert Fraction(float(rational)) == rational, cid


def test_trivial_order_is_the_source_entry_at_n_0():
    # both kernels are exactly 1 at n = 0, so the generated integrand times
    # its prefactor is g as the catalog computes it, bit for bit
    for cid, form in FORMS.items():
        derived = motzkin_representation(form)
        scale, integrand = derived.prefactor_float(0), x_form(derived, 0)
        rep = get_representation(cid)
        for x in _interior_points(rep, (0.01, 0.15, 0.3, 0.5, 0.62, 0.85, 0.99)):
            assert scale * integrand(x) == _g(cid, x), (cid, x)


def test_transform_simple_trivial_order():
    derived = motzkin_representation(FORMS["cat.eq9"])
    for x in (-0.6, 0.0, 0.4):
        assert derived.prefactor_float(0) * derived.integrand(0, x) == _g("cat.eq9", x)


def test_transform_simple_hand_value():
    # f = 2x, g = (2/pi) sqrt(1-x^2), n = 1, x = 0.5:
    # (1/2)((1+1)^1 + 0^1) g = g = (2/pi) sqrt(0.75)
    derived = motzkin_representation(FORMS["cat.eq9"])
    expected = 2.0 / _PI * math.sqrt(0.75)
    assert derived.prefactor_float(1) * derived.integrand(1, 0.5) == pytest.approx(expected, rel=1e-15)


def test_transform_phi_trivial_order():
    for cid in ("cat.eq2", "cat.eq4"):
        derived = motzkin_representation(FORMS[cid])
        for x in (0.3, 0.62):
            assert derived.prefactor_float(0) * x_form(derived, 0)(x) == pytest.approx(_g(cid, x), rel=1e-15)


def test_transform_phi_hand_value():
    # f = 2x, g = 1/(pi sqrt(1-x^2)), n = 1, x = 0.5: phi_3(1) - phi_2(1) = 1,
    # divided by f^2 = 1, so the integrand times its prefactor equals g = 1/(pi sqrt(0.75))
    derived = motzkin_representation(FORMS["cat.eq2"])
    expected = 1.0 / (_PI * math.sqrt(0.75))
    assert derived.prefactor_float(1) * x_form(derived, 1)(0.5) == pytest.approx(expected, rel=1e-15)


def test_transform_phi_value_at_interior_zero_of_f():
    # the difference polynomial in f^2 has leading coefficient 1, so where f
    # vanishes the kernel is exactly 1/3^n and the integrand g/3^n
    # f = 2x vanishes at x = 0
    rep = motzkin_representation(FORMS["cat.eq2"])
    for n in (1, 6, 19):
        assert x_form(rep, n)(0.0) == (1 / 3**n) * x_form(rep, 0)(0.0)
    # f = 2 cos x vanishes at x = pi/2, where its float is 1.2e-16
    derived = motzkin_representation(FORMS["cat.eq3"])
    x0 = _PI / 2.0
    for n in (2, 11):
        got = derived.prefactor_float(n) * derived.integrand(n, x0)
        assert got == pytest.approx(_g("cat.eq3", x0), rel=1e-15)


def test_unknown_ids_raise_lookup_errors():
    with pytest.raises(KeyError):
        get_form("cat.conc1")
    with pytest.raises(KeyError):
        transform_deviation("cat.eq5", "mot.99", ComparisonMode.POINTWISE, 1)


def test_transform_integrals_reproduce_motzkin_numbers():
    for cid, form in FORMS.items():
        derived = motzkin_representation(form)
        for n in (*range(0, 21), 47, 60, 65, 95, 100):
            value = verify(derived, n).estimate
            exact = float(motzkin(n))
            assert abs(value - exact) / exact <= 1e-8, (cid, n)


def test_both_flavors_are_one_integer_identity():
    # with the kernel written as sum_k c_k f^(2k), a simple source integrates
    # f^(2k) g to C(k) and a phi source to (k + 1) C(k); either way the sum is
    # M(n) = sum_k C(n, 2k) C(k), in exact arithmetic, with no quadrature
    for n in range(0, 301):
        simple = sum(c * catalan(k) for k, c in enumerate(even_binomial_coeffs(n)))
        phi = sum(d * j * catalan(j - 1) for j, d in enumerate(phi_diff_coeffs(n), start=1))
        assert simple == phi == motzkin(n), n


def test_transform_is_integrated_with_the_catalog_rule():
    # the derived entry runs the source's substitution at the degree of its
    # kernel, a polynomial of degree n // 2 in f^2; it stays out of the catalog
    catalog_ids = {rep.id for rep in list_representations()}
    for cid, form in FORMS.items():
        source = get_representation(cid).substitution
        derived = motzkin_representation(form)
        assert derived.id not in catalog_ids, cid
        for n in (0, 5, 8, 13):
            nodes = source.degree(n // 2) // 2 + 1
            assert verify(derived, n).rule == f"gauss-chebyshev-{source.kind}[N={nodes}]", cid


def test_value_only_mode_fails_a_non_converged_side(monkeypatch):
    # two integrals that agree count only when both converged
    import catmot.transform

    for stalled in ({"transform", "entry"}, {"transform"}, {"entry"}):
        def agreeing(rep, n, *args):
            side = "transform" if rep.id.endswith("->motzkin") else "entry"
            ok = side not in stalled
            return VerificationRow(rep.id, n, 21, 20.0, 1 / 21, 99, "tanh-sinh", False, ok)

        monkeypatch.setattr(catmot.transform, "verify", agreeing)
        for cid, (mid, mode) in PAIRS.items():
            if mode is ComparisonMode.VALUE_ONLY:
                assert transform_deviation(cid, mid, mode, 5) == math.inf, (cid, stalled)


def test_consistency_examples():
    pointwise, value_only = ComparisonMode.POINTWISE, ComparisonMode.VALUE_ONLY
    assert (pointwise.tolerance, value_only.tolerance) == (1e-12, 1e-10)
    assert transform_deviation("cat.eq7", "mot.12c", pointwise, 5) <= pointwise.tolerance
    assert transform_deviation("cat.eq10", "mot.12f", value_only, 7) <= value_only.tolerance
    assert transform_deviation("cat.eq2", "mot.13b", value_only, 4) <= value_only.tolerance


def test_consistency_all_pairs():
    for cid, (mid, mode) in PAIRS.items():
        # up to the Motzkin limit, near which the pointwise readings peak (cat.eq5: 1.34e-13 at 642)
        for n in (0, 1, 5, 10, 20, 100, 322, 642, 645):
            assert transform_deviation(cid, mid, mode, n) <= mode.tolerance, (cid, mid, n)


def test_pointwise_requires_samples():
    with pytest.raises(ValueError):
        transform_deviation("cat.eq5", "mot.12a", ComparisonMode.POINTWISE, 2, 0)


@pytest.mark.parametrize("points", [0, -5, 100_001, 10**9])
def test_check_points_outside_the_cap_refused_in_every_mode(monkeypatch, points):
    # the command line's rule: refused up front, before any node is tabulated
    # or any integral taken
    import catmot.quadrature
    import catmot.transform

    def unreachable(*args):
        raise AssertionError("integrated a refused request")

    monkeypatch.setattr(catmot.transform, "verify", unreachable)
    monkeypatch.setattr(catmot.quadrature, "chebyshev_nodes", unreachable)
    for cid, (mid, mode) in (("cat.eq5", PAIRS["cat.eq5"]), ("cat.eq2", PAIRS["cat.eq2"])):
        with pytest.raises(ValueError) as refused:
            transform_deviation(cid, mid, mode, 2, points)
        assert str(refused.value) == f"check_points must be at least 1 and at most 100000, got {points}"


# each pointwise form's theta map, written out: the endpoint distances
# 4 cos^2(theta/2) and 4 sin^2(theta/2) on (0, 4), and so on; x elsewhere
THETA_MAPS = {
    "cat.eq4": lambda t: (math.cos(t / 2) ** 2, math.sin(t / 2) ** 2),
    "cat.eq5": lambda t: (4 * math.cos(t / 2) ** 2, 4 * math.sin(t / 2) ** 2),
    "cat.eq6": lambda t: (math.tan(t / 2),),
    "cat.eq7": lambda t: (t / _PI,),
    "cat.eq8": lambda t: (math.tan(t / 4),),
}


def test_pointwise_samples_are_the_theta_map_columns(monkeypatch):
    # both integrands take, in node order, the arguments that the derived
    # entry's own theta map gives at the first-kind nodes: the endpoint
    # distances on cat.eq4 and cat.eq5, x on the others
    import catmot.transform

    def recording(side, rep):
        def integrand(n, *args):
            calls[side].append((n, args))
            return rep.integrand(n, *args)
        return rep._replace(integrand=integrand)

    pointwise = {cid for cid, (_, mode) in PAIRS.items() if mode is ComparisonMode.POINTWISE}
    assert pointwise == set(THETA_MAPS)
    # built before the patches below, which the derived entries' sources would read
    derived_entries = {cid: motzkin_representation(get_form(cid)) for cid in THETA_MAPS}
    monkeypatch.setattr(catmot.transform, "motzkin_representation",
                        lambda form: recording("transform", derived_entries[form.id]))
    monkeypatch.setattr(catmot.transform, "get_representation",
                        lambda rep_id: recording("entry", get_representation(rep_id)))
    for catalan_id, theta_map in THETA_MAPS.items():
        motzkin_id, mode = PAIRS[catalan_id]
        derived = derived_entries[catalan_id]
        for points in (1, 4, 64):
            calls = {"transform": [], "entry": []}
            transform_deviation(catalan_id, motzkin_id, mode, 7, points)
            thetas = chebyshev_nodes(1, points)
            columns, _ = derived.substitution.tabulate(derived, thetas)
            expected = [(7, args) for args in zip(*columns)]
            assert calls["transform"] == calls["entry"] == expected, (catalan_id, points)
            for (_, args), theta in zip(expected, thetas):
                assert args == pytest.approx(theta_map(theta), rel=1e-15, abs=1e-300), catalan_id


def test_pointwise_pair_on_another_domain_or_endpoint_form_is_refused(monkeypatch):
    # cat.eq5 lives on (0, 4) with endpoint distances, mot.12c on (0, 1) with
    # x; compared pointwise they are refused before any node is tabulated
    import catmot.quadrature

    def unreachable(*args):
        raise AssertionError("tabulated a refused pair")

    monkeypatch.setattr(catmot.quadrature, "chebyshev_nodes", unreachable)
    for cid, mid in (("cat.eq5", "mot.12c"), ("cat.eq7", "mot.13a"), ("cat.eq4", "mot.12c")):
        with pytest.raises(ValueError) as refused:
            transform_deviation(cid, mid, ComparisonMode.POINTWISE, 5)
        derived, rep = motzkin_representation(get_form(cid)), get_representation(mid)
        assert str(refused.value) == (
            f"{cid}->motzkin and {mid} differ in domain or endpoint form: "
            f"{derived.domain} and {rep.domain}; compare them by value"
        )
    # by value the same pair is two integrals of M(n) and agrees
    assert transform_deviation("cat.eq5", "mot.12c", ComparisonMode.VALUE_ONLY, 5) <= 1e-10


@pytest.mark.parametrize("catalan_id, motzkin_id", [
    ("cat.eq5", "mot.12a"),  # simple kernel
    ("cat.eq4", "mot.13a"),  # phi kernel
])
def test_transform_refuses_n_past_the_motzkin_limit(monkeypatch, catalan_id, motzkin_id):
    import catmot.polys

    def no_coefficients(builder, n):
        raise AssertionError(f"coefficients built for n={n}")

    monkeypatch.setattr(catmot.polys, "_float_coeffs", no_coefficients)
    derived = motzkin_representation(get_form(catalan_id))
    # the patch sees the kernel's coefficient build at the limit ...
    with pytest.raises(AssertionError, match="n=645$"):
        verify(derived, 645)
    # ... and none is attempted past it
    for mode in ComparisonMode:
        with pytest.raises(ValueError, match="n <= 645"):
            transform_deviation(catalan_id, motzkin_id, mode, 646)
    with pytest.raises(ValueError, match="n <= 645"):
        verify(derived, 646)


# -- lemma 1 ------------------------------------------------------------------

def test_lemma1_constant_case():
    check = check_lemma1(0, 0, 1.0, 1e-10)
    assert check.exact == 0.5
    assert check.left.value == pytest.approx(0.5, rel=1e-13)
    assert check.right.value == pytest.approx(0.5, rel=1e-13)
    # a check is true exactly when it holds, so `not check` finds a mismatch
    assert check.holds and check and not check._replace(holds=False)


def test_lemma1_even_cosine_power():
    # the instance that doubles the half-range cosine-power identity
    assert check_lemma1(2, 0, _PI, 1e-10)


def test_lemma1_odd_case_has_opposite_signs():
    check = check_lemma1(1, 1, 2.0, 1e-10)
    left, right = check.left.value, check.right.value
    assert left > 0.0 > right
    assert left == pytest.approx(-right, rel=1e-12)
    assert check


def test_lemma1_grid(monkeypatch):
    # criterion 6's grid, with the Gauss-Kronrod engine out of reach
    import catmot.quadrature
    import catmot.transform

    def unreachable(*args):
        raise AssertionError("lemma1 ran adaptive_gk")

    monkeypatch.setattr(catmot.quadrature, "adaptive_gk", unreachable)
    monkeypatch.setattr(catmot.transform, "adaptive_gk", unreachable, raising=False)
    for r in range(7):
        for s in range(7):
            for a in (1.0, 2.5, _PI):
                assert check_lemma1(r, s, a, 1e-10), (r, s, a)


@pytest.mark.parametrize("r, s", [
    (0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (6, 5), (50, 50),
    # at the limit r + s = 20000, where W still is a normal float
    (0, 20000), (3, 19997), (19996, 4),
])
def test_lemma1_matches_the_wallis_integral(r, s):
    for a in (1.0, 2.5, _PI):
        check = check_lemma1(r, s, a, 1e-10)
        exact = a / _PI * wallis(r, s)
        assert check.exact == pytest.approx(exact, rel=1e-15)
        sides = (check.left, check.right)
        mirrored = (1, 1 if r % 2 == 0 else -1)
        for side, sign, rel_err in zip(sides, mirrored, check.rel_errors):
            assert side.converged and abs(side.value - sign * exact) <= 1e-12 * exact
            assert rel_err == pytest.approx(abs(side.value - sign * check.exact) / check.exact)
        assert check.mirrored == abs(check.left.value - mirrored[1] * check.right.value) / check.exact
        assert check.holds


@pytest.mark.parametrize("left, right, converged, holds", [
    (1.0, 1.0, (True, True), True),
    # each side within tol of its exact value, the two 1.8 tol apart
    (1.0 + 9e-11, 1.0 - 9e-11, (True, True), False),
    # exact sides, one not converged
    (1.0, 1.0, (False, True), False),
    (1.0, 1.0, (True, False), False),
])
def test_lemma1_verdict(monkeypatch, left, right, converged, holds):
    import catmot.quadrature
    from catmot.quadrature import QuadratureResult

    exact = check_lemma1(2, 0, 1.0, 1e-10).exact
    sides = iter(zip((left, right), converged))

    def engine(*args, **kwargs):
        scale, ok = next(sides)
        return QuadratureResult(scale * exact, 0.0, 1, "stub", ok)

    monkeypatch.setattr(catmot.quadrature, "tanh_sinh", engine)
    assert check_lemma1(2, 0, 1.0, 1e-10).holds is holds


def test_lemma1_preconditions():
    with pytest.raises(ValueError):
        check_lemma1(-1, 0, 1.0, 1e-10)
    # a/2 underflows to 0 at the smallest subnormal, and pi*a overflows above
    # ~5.72e307, while 5.7e307 still runs; at 1e-323 the exact side, 4e-325,
    # underflows, and tanh-sinh would return a converged 0.0 for it
    for a in (-1.0, 5e-324, 5.8e307):
        with pytest.raises(ValueError, match="a must"):
            check_lemma1(0, 0, a, 1e-10)
    with pytest.raises(ValueError, match="is not a normal float"):
        check_lemma1(3, 2, 1e-323, 1e-10)
    assert check_lemma1(3, 2, 5.7e307, 1e-10)
    # past r + s = 20000 the 1e-13 engine test fails on correct sides
    with pytest.raises(ValueError, match="r \\+ s <= 20000, got 1 and 20000"):
        check_lemma1(1, 20000, 1.0, 1e-10)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            check_lemma1(0, 0, 1.0, tol)

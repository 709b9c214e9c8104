from fractions import Fraction
from math import comb

import pytest

from catmot import polys
from catmot.polys import (
    PhiEvaluator,
    half_power_sum_3n,
    phi_diff_over_square_3n,
    psi_difference,
    psi_difference_over_square_3n,
)
from exact_coeffs import even_binomial_coeffs, phi_diff_coeffs, psi_diff_coeffs


def phi_direct(m, t):
    return ((1.0 + t) ** m + (1.0 - t) ** m - 2.0) / m


def psi_difference_naive(n, x):
    """Two-term closed form of the psi difference, which cancels near x = 0."""
    u = 1.0 + 2.0 * x
    return (u ** (n + 2) - 1.0) / (n + 2) - (u ** (n + 1) - 1.0) / (n + 1)


def test_phi_matches_closed_form():
    # the direct form is stable for these t, so it serves as the oracle
    for m in range(1, 41):
        phi = PhiEvaluator(m)
        for t in (0.25, 0.5, 1.0, 1.5):
            direct = phi_direct(m, t)
            if direct == 0.0:
                assert phi(t) == 0.0
            else:
                assert abs(phi(t) - direct) / abs(direct) <= 1e-12


def test_phi_small_orders():
    phi1 = PhiEvaluator(1)
    phi2 = PhiEvaluator(2)
    for t in (-2.0, -0.3, 0.0, 0.7, 1.9):
        assert phi1(t) == 0.0
        assert phi2(t) == pytest.approx(t * t, rel=1e-15, abs=0.0)


def test_phi_coefficients_are_exact_rationals():
    phi = PhiEvaluator(7)
    assert phi.coefficients == tuple(
        Fraction(2 * comb(7, 2 * j), 7) for j in (1, 2, 3)
    )


def test_phi_diff_leading_coefficient_is_one():
    for n in range(0, 40):
        coeffs = phi_diff_coeffs(n)
        assert coeffs[0] == 1
        assert all(c >= 0 for c in coeffs)


def test_phi_diff_over_square_limit():
    # value at s = 0 is the analytic limit over 3^n, exactly
    for n in (0, 3, 11, 25):
        assert phi_diff_over_square_3n(n, 0.0) == 1 / 3**n


def test_phi_diff_over_square_matches_rationals():
    for n in (0, 2, 9):
        s = Fraction(3, 7)
        exact = sum(d * s**j for j, d in enumerate(phi_diff_coeffs(n), start=1)) / s
        got = phi_diff_over_square_3n(n, float(s)) * 3**n
        assert got == pytest.approx(float(exact), rel=1e-14)


def test_phi_diff_over_square_matches_closed_form():
    # checked against phi_direct, not against the coefficients it is built from
    for n in range(41):
        for t in (0.25, 0.5, 1.0, 1.5):
            direct = phi_direct(n + 2, t) - phi_direct(n + 1, t)
            got = phi_diff_over_square_3n(n, t * t) * 3**n * t * t
            assert abs(got - direct) <= 1e-12 * abs(direct), (n, t)


def test_float_coefficients_are_the_correctly_rounded_rationals():
    # one integer division per coefficient gives, bit for bit, float() of the
    # exact reference: the unscaled psi builder that criterion 7's
    # psi_difference reads over its whole float range, up to n = 1038, far
    # past the n that verify takes (645), and the builders over 3^n that
    # every Motzkin kernel reads, float(c / 3^n), for every n they take
    for n in range(1038 + 1):
        reference = [float(c).hex() for c in psi_diff_coeffs(n)]
        assert [c.hex() for c in polys._psi_diff_floats(n)] == reference, n
    # both paths overflow at the same n
    with pytest.raises(OverflowError):
        [float(c) for c in psi_diff_coeffs(1039)]
    with pytest.raises(OverflowError):
        polys._psi_diff_floats(1039)
    for exact, floats_3n in (
        (phi_diff_coeffs, polys._phi_diff_floats_3n),
        (psi_diff_coeffs, polys._psi_diff_floats_3n),
        (even_binomial_coeffs, polys._half_power_floats_3n),
    ):
        for n in range(645 + 1):
            reference = [float(Fraction(c) / 3**n).hex() for c in exact(n)]
            assert [c.hex() for c in floats_3n(n)] == reference, (floats_3n.__name__, n)


def test_half_power_sum_matches_direct():
    for n in (0, 1, 2, 7, 16):
        for t in (0.0, 0.3, 1.0, 1.7):
            direct = 0.5 * ((1.0 + t) ** n + (1.0 - t) ** n)
            assert half_power_sum_3n(n, t * t) * 3**n == pytest.approx(direct, rel=1e-13)


def test_psi_diff_linear_coefficient_dropped():
    for n in range(0, 30):
        coeffs = psi_diff_coeffs(n)
        assert len(coeffs) == n + 1  # j = 2 .. n+2
        assert coeffs[0] == Fraction(1, 2)
        assert all(c >= 0 for c in coeffs)
        # the dropped j = 1 coefficient really is zero
        assert Fraction(comb(n + 2, 1), n + 2) == Fraction(comb(n + 1, 1), n + 1)


def test_psi_difference_examples():
    for x in (-0.7, 0.0, 0.3, 2.0):
        assert psi_difference(0, x) == pytest.approx(2.0 * x * x, rel=1e-15, abs=0.0)
    assert psi_difference(2, 0.5) == pytest.approx(17.0 / 12.0, rel=1e-15)


def exact_psi_over_square(n, x):
    x = Fraction(x)
    total = sum(e * (2 * x) ** j for j, e in enumerate(psi_diff_coeffs(n), start=2))
    return total / x**2


def test_psi_over_square_tracks_exact_value():
    # float evaluation agrees with exact rational arithmetic at tiny x,
    # which is precisely where the two-term closed form collapses
    for n in (0, 5, 10, 20):
        for x in (1e-4, 1e-6, 1e-8):
            exact = exact_psi_over_square(n, x)
            got = psi_difference_over_square_3n(n, x)
            assert abs(got - float(exact / 3**n)) / float(exact / 3**n) <= 1e-13
            ratio_form = psi_difference(n, x) / x**2
            assert abs(ratio_form - float(exact)) / float(exact) <= 1e-13


def test_psi_deviation_from_limit_shrinks():
    # |psi_diff/x^2 - 2| ~ (8n/3) x: strictly decreasing in x for n >= 1
    for n in (1, 5, 10, 20):
        devs = [abs(psi_difference(n, x) / x**2 - 2.0) for x in (1e-4, 1e-6, 1e-8)]
        assert devs[0] > devs[1] > devs[2]
    # n = 0: the difference is exactly 2x^2, so every deviation is zero
    assert [psi_difference(0, x) / x**2 for x in (1e-4, 1e-6, 1e-8)] == [2.0, 2.0, 2.0]


def test_naive_psi_fails_at_small_x():
    # catastrophic cancellation: at x = 1e-8 the naive form is wrong in the
    # leading digits while the polynomial path stays at ~1e-13 of the truth
    for n in (5, 10, 20):
        x = 1e-8
        exact = float(exact_psi_over_square(n, x))
        naive = psi_difference_naive(n, x) / x**2
        stable = psi_difference_over_square_3n(n, x) * 3**n
        assert abs(naive - exact) / exact > 1e-4
        assert abs(stable - exact) / exact <= 1e-13


def test_psi_difference_rejects_negative_n():
    with pytest.raises(ValueError):
        psi_difference(-1, 0.5)


def test_coefficient_cache_builds_each_rows_key_once(capsys):
    # verify runs its rows n by n, so the mot.13a and mot.13b rows of one n
    # are the two live keys: each (builder, n) is built once, 2 x 101 tuples
    from catmot.cli import main

    polys._float_coeffs.cache_clear()
    assert main(["verify", "all", "--n-range", "0..100", "--n-max", "100"]) == 0
    capsys.readouterr()
    assert polys._float_coeffs.cache_info().misses == 202

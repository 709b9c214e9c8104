import math
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmot.exact
from catmot.exact import catalan, catalan_numbers, motzkin, motzkin_numbers, motzkin_oracle


def test_catalan_examples():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796
    assert catalan(30) == 3814986502092304


def test_catalan_divisibility():
    for n in range(65):
        assert (n + 1) * catalan(n) == comb(2 * n, n)


def test_catalan_rejects_inexact_division(monkeypatch):
    # catalan checks the remainder of C(2n, n) / (n + 1) instead of trusting it
    true_comb = math.comb
    monkeypatch.setattr(catmot.exact.math, "comb", lambda a, b: true_comb(a, b) + 1)
    with pytest.raises(ArithmeticError):
        catalan(1)


def test_motzkin_examples():
    assert motzkin(0) == 1
    assert motzkin(4) == 9
    assert motzkin(10) == 2188
    terms = motzkin_numbers()
    assert [next(terms) for _ in range(11)] == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_motzkin_oracle_examples():
    assert motzkin_oracle(1) == 1
    assert motzkin_oracle(5) == 21
    assert motzkin_oracle(12) == 15511


def test_motzkin_sum_agrees_with_convolution_recurrence():
    # motzkin(n) runs the three-term recurrence; check it against the
    # even-binomial sum definition and against the convolution oracle
    for n in range(301):
        assert motzkin(n) == sum(comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))
    for n in range(121):
        assert motzkin(n) == motzkin_oracle(n)


def test_catalan_numbers_match_catalan():
    # the stepped ratio recurrence against the binomial form
    terms = catalan_numbers()
    assert [next(terms) for _ in range(1001)] == [catalan(n) for n in range(1001)]


def test_catalan_numbers_reject_inexact_division(monkeypatch):
    # each step checks its remainder instead of trusting it
    monkeypatch.setattr(catmot.exact, "divmod", lambda a, b: (a // b, 1), raising=False)
    terms = catalan_numbers()
    assert next(terms) == 1
    with pytest.raises(ArithmeticError):
        next(terms)


def test_catalan_ratio_identity():
    for n in range(301):
        assert (n + 2) * catalan(n + 1) == 2 * (2 * n + 1) * catalan(n)


def test_float_conversion_is_exact_below_2_53():
    # float conversion is lossless for every exact value up to n = 30;
    # C(31) already exceeds 2**53
    for n in range(31):
        c = catalan(n)
        assert c < 2**53
        assert int(float(c)) == c
        m = motzkin(n)
        assert int(float(m)) == m
    assert catalan(31) > 2**53


def test_float_conversion_correctly_rounded_above_2_53():
    # beyond the exact window the conversion is still round-to-nearest
    from fractions import Fraction

    for n in (35, 40, 64):
        c = catalan(n)
        err = abs(Fraction(float(c)) - c)
        assert err <= Fraction(c, 2**53)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        catalan(-1)
    with pytest.raises(ValueError):
        motzkin(-2)
    with pytest.raises(ValueError):
        motzkin_oracle(-1)


@given(st.integers(0, 200))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_divisibility_property(n):
    assert (n + 1) * catalan(n) == comb(2 * n, n)

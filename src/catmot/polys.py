"""Cancellation-safe polynomial building blocks.

The Motzkin-from-Catalan transforms repeatedly need

    (1/2) * ((1 + t)^n + (1 - t)^n)            even-binomial sum in t^2
    phi_m(t) = ((1+t)^m + (1-t)^m - 2) / m     even powers only, j >= 1
    psi_m(x) = ((1+2x)^m - 1) / m              all powers, j >= 1

near t = 0 (or x = 0) the closed forms subtract nearly equal quantities;
here every one of them is evaluated as a polynomial, each float coefficient
one correctly rounded integer division (the tests hold the exact Fraction
references), so small arguments accumulate same-sign terms only.  Every
Motzkin kernel, of a transform or of the entries 13a and 13b, is read over
3^n, its growth where |t| = 2 (|x| = 1): the exact prefactor holds the 3^n,
so each kernel stays finite wherever a float holds that prefactor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def horner(coeffs: tuple[float, ...], s: float) -> float:
    """Evaluate sum(coeffs[i] * s**i) by Horner's scheme."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@lru_cache(maxsize=2)
def _float_coeffs(builder, n: int) -> tuple[float, ...]:
    """The coefficients ``builder(n)`` as floats, built once per n.  Rows run
    n by n, so two keys hold what the mot.13a and mot.13b rows of an n read."""
    return tuple(map(float, builder(n)))


def _binomials(m: int) -> tuple[int, ...]:
    """C(m, 0), ..., C(m, m) by the ratio recurrence (``comb`` starts afresh for each)."""
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return tuple(row)


def _half_power_floats_3n(n: int) -> tuple[float, ...]:
    """The coefficients of (1/2)*((1+t)^n + (1-t)^n) in s = t^2, over 3^n:
    C(n, 0)/3^n, C(n, 2)/3^n, ..., each one correctly rounded division."""
    scale = 3**n
    return tuple(c / scale for c in _binomials(n)[::2])


def half_power_sum_3n(n: int, s: float) -> float:
    """(1/2)*((1+t)^n + (1-t)^n) / 3^n as a function of s = t^2 (s >= 0),
    at most 1 for s <= 4 whatever n."""
    return horner(_float_coeffs(_half_power_floats_3n, n), s)


class PhiEvaluator:
    """phi_m(t) = ((1+t)^m + (1-t)^m - 2)/m as an even polynomial in t.

    ``coefficients`` holds the exact rationals 2*C(m, 2j)/m for j >= 1;
    evaluation sums same-sign terms in s = t^2, so there is no cancellation
    for real t.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("phi_m is defined for m >= 1")
        self.m = m
        self.coefficients: tuple[Fraction, ...] = tuple(
            Fraction(2 * comb(m, 2 * j), m) for j in range(1, m // 2 + 1)
        )
        self._float_coeffs = tuple(float(c) for c in self.coefficients)

    def __call__(self, t: float) -> float:
        s = t * t
        # s * (c_1 + c_2 s + ...) keeps the j >= 1 offset explicit
        return s * horner(self._float_coeffs, s)


def _phi_diff_floats_3n(n: int) -> tuple[float, ...]:
    """The coefficients d_j, j >= 1, of phi_{n+2} - phi_{n+1} in s = t^2,
    over 3^n, as floats: d_j = 2*C(n+2,2j)/(n+2) - 2*C(n+1,2j)/(n+1)
    reduces, by C(m, i)/m = C(m-1, i-1)/i and Pascal's rule, to C(n, 2j-2)/j,
    so each is one correctly rounded integer division C(n, 2j-2)/(j*3^n).
    All d_j >= 0, and d_1 == 1."""
    scale = 3**n
    return tuple(c / (j * scale) for j, c in enumerate(_binomials(n)[::2], start=1))


def _psi_diff_floats(n: int, scale: int = 1) -> tuple[float, ...]:
    """The coefficients e_j, j = 2 .. n+2, of psi_{n+2} - psi_{n+1} in u = 2x,
    over ``scale``, as floats: e_j = C(n+2,j)/(n+2) - C(n+1,j)/(n+1) reduces
    to C(n, j-2)/j as d_j does.  e_1 is identically zero; dropping it removes
    the catastrophic cancellation of the two-term closed form at small x."""
    return tuple(c / (j * scale) for j, c in enumerate(_binomials(n), start=2))


def _psi_diff_floats_3n(n: int) -> tuple[float, ...]:
    """e_j / 3^n: mot.13b's kernel, whose growth 3^n its exact prefactor holds."""
    return _psi_diff_floats(n, 3**n)


def psi_difference(n: int, x: float) -> float:
    """psi_{n+2}(x) - psi_{n+1}(x) with psi_m(x) = ((1+2x)^m - 1)/m,
    evaluated as u^2 * (e_2 + e_3 u + ...) with u = 2x."""
    if n < 0:
        raise ValueError("psi_difference requires n >= 0")
    u = 2.0 * x
    return (u * u) * horner(_float_coeffs(_psi_diff_floats, n), u)


def phi_diff_over_square_3n(n: int, s: float) -> float:
    """(phi_{n+2} - phi_{n+1}) / (t^2 3^n) evaluated at s = t^2, at most 1
    for 0 <= s <= 4 whatever n (the coefficients sum C(n, k) 2^k over even k
    there).  Continuous at s = 0 with value 1/3^n (the d_1 coefficient), the
    analytic limit used when the transform's f vanishes."""
    return horner(_float_coeffs(_phi_diff_floats_3n, n), s)


def psi_difference_over_square_3n(n: int, x: float) -> float:
    """(psi_{n+2}(x) - psi_{n+1}(x)) / (x^2 3^n), continuous at x = 0 (value 2/3^n)."""
    # u^2 / x^2 == 4 exactly in binary arithmetic, so divide it out up front
    return 4.0 * horner(_float_coeffs(_psi_diff_floats_3n, n), 2.0 * x)

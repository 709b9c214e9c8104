"""Exact references that the runtime's floats are checked against: the
coefficients of the transform kernels' polynomials, whose floats over 3^n
``catmot.polys`` evaluates, and the Wallis integral behind ``lemma1``."""

import math
from fractions import Fraction


def _binomial_row(m: int) -> list[int]:
    """C(m, 0), ..., C(m, m), then C(m, m + 1) = 0."""
    row = [1]
    for k in range(m + 1):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def even_binomial_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of (1/2)*((1+t)^n + (1-t)^n) as a polynomial in s = t^2:
    C(n, 0), C(n, 2), ..., C(n, 2*floor(n/2))."""
    return tuple(_binomial_row(n)[: n + 1 : 2])


def phi_diff_coeffs(n: int) -> tuple[Fraction, ...]:
    """Exact coefficients d_j of phi_{n+2} - phi_{n+1} as a polynomial in
    s = t^2, j running from 1:  d_j = 2*C(n+2,2j)/(n+2) - 2*C(n+1,2j)/(n+1).

    All d_j are nonnegative and d_1 == 1, which makes
    (phi_{n+2} - phi_{n+1}) / t^2  -> 1 as t -> 0.
    """
    a, b = n + 1, n + 2
    hi, lo = _binomial_row(b), _binomial_row(a)
    return tuple(
        Fraction(2 * (a * hi[2 * j] - b * lo[2 * j]), a * b) for j in range(1, b // 2 + 1)
    )


def psi_diff_coeffs(n: int) -> tuple[Fraction, ...]:
    """Exact coefficients e_j of psi_{n+2} - psi_{n+1} in u = 2x, for
    j = 2 .. n+2:  e_j = C(n+2,j)/(n+2) - C(n+1,j)/(n+1).

    The j = 1 coefficient is identically zero and is dropped.
    """
    a, b = n + 1, n + 2
    hi, lo = _binomial_row(b), _binomial_row(a)
    return tuple(Fraction(a * hi[j] - b * lo[j], a * b) for j in range(2, b + 1))


def wallis(r: int, s: int) -> float:
    """The integral of cos^r sin^s over (0, pi/2) from its double factorials,
    (r-1)!!(s-1)!!/(r+s)!!, times pi/2 when r and s are both even."""
    ratio = math.prod(range(r - 1, 0, -2)) * math.prod(range(s - 1, 0, -2)) / math.prod(
        range(r + s, 0, -2))
    return ratio * math.pi / 2 if r % 2 == 0 and s % 2 == 0 else ratio

"""Exact integer sequences: Catalan numbers and Motzkin numbers.

Everything here is computed in arbitrary-precision integer arithmetic and
serves as ground truth for the numerical verification of the integral
representations in :mod:`catmot.catalog`.  The functions keep no state.
"""

from __future__ import annotations

import math


def catalan(n: int) -> int:
    """Catalan number C(2n, n) / (n + 1); the division is always exact."""
    if n < 0:
        raise ValueError("catalan requires a nonnegative argument")
    quotient, remainder = divmod(math.comb(2 * n, n), n + 1)
    if remainder:
        raise ArithmeticError(f"(n+1) does not divide C(2n,n) at n={n}")
    return quotient


def motzkin(n: int) -> int:
    """Motzkin number via the three-term recurrence (OEIS A001006)
    M(0) = M(1) = 1, (m+2) M(m) = (2m+1) M(m-1) + 3(m-1) M(m-2)."""
    if n < 0:
        raise ValueError("motzkin requires a nonnegative argument")
    prev, cur = 1, 1
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m + 1) * cur + 3 * (m - 1) * prev) // (m + 2)
    return cur


def motzkin_oracle(n: int) -> int:
    """Motzkin number via the integer convolution recurrence
    M(0) = 1, M(n+1) = M(n) + sum_{k<n} M(k) * M(n-1-k).

    Independent of :func:`motzkin`; used to cross-check it.
    """
    if n < 0:
        raise ValueError("motzkin_oracle requires a nonnegative argument")
    table = [1]
    for m in range(n):
        nxt = table[m] + sum(table[k] * table[m - 1 - k] for k in range(m))
        table.append(nxt)
    return table[n]

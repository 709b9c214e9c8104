"""Exact integer sequences: Catalan numbers and Motzkin numbers.

Everything here is computed in arbitrary-precision integer arithmetic and
serves as ground truth for the numerical verification of the integral
representations in :mod:`catmot.catalog`.  Nothing is cached between calls.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator


def catalan(n: int) -> int:
    """Catalan number C(2n, n) / (n + 1); the division is always exact."""
    if n < 0:
        raise ValueError("catalan requires a nonnegative argument")
    quotient, remainder = divmod(math.comb(2 * n, n), n + 1)
    if remainder:
        raise ArithmeticError(f"(n+1) does not divide C(2n,n) at n={n}")
    return quotient


def catalan_numbers() -> Iterator[int]:
    """C(0), C(1), C(2), ... by the ratio recurrence (n+2) C(n+1) =
    2(2n+1) C(n) from C(0) = 1, independent of :func:`catalan`."""
    c = 1
    for n in itertools.count():
        yield c
        c, remainder = divmod(2 * (2 * n + 1) * c, n + 2)
        if remainder:
            raise ArithmeticError(f"(n+2) does not divide 2(2n+1)C(n) at n={n}")


def motzkin_numbers() -> Iterator[int]:
    """M(0), M(1), M(2), ... by the three-term recurrence (OEIS A001006)
    (m+2) M(m) = (2m+1) M(m-1) + 3(m-1) M(m-2), from M(0) = M(1) = 1."""
    prev, cur = 0, 1  # the 3(m-1) factor drops prev at m = 1
    for m in itertools.count(1):
        yield cur
        prev, cur = cur, ((2 * m + 1) * cur + 3 * (m - 1) * prev) // (m + 2)


def motzkin(n: int) -> int:
    """The n-th term of :func:`motzkin_numbers`."""
    if n < 0:
        raise ValueError("motzkin requires a nonnegative argument")
    return next(itertools.islice(motzkin_numbers(), n, None))


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

"""Generic Catalan-to-Motzkin transforms.

Whenever the Catalan numbers are written as

    C(n) = int_a^b f(x)^(2n) g(x) dx                     (simple flavor)
    C(n) = 1/(n+1) int_a^b f(x)^(2n) g(x) dx             (phi flavor)

the corresponding Motzkin integrand is

    simple:  (1/2) ((1+f)^n + (1-f)^n) g
    phi:     (phi_{n+2}(f) - phi_{n+1}(f)) / f^2 * g

with phi_m(t) = ((1+t)^m + (1-t)^m - 2)/m.  Both kernels are evaluated as
even-power polynomial sums in s = f(x)^2 (each float coefficient the exact
one correctly rounded), so they stay accurate where f vanishes.  Each grows
like 3^n where |f| = 2, so, as for mot.13a and mot.13b, it is read over 3^n
with the 3^n in the exact prefactor; at a zero of f the phi kernel is 1/3^n
exactly, because the difference polynomial in f^2 leads with 1.

A registration table gives f and the flavor of each eligible Catalan
catalog entry.  A transform is a Motzkin entry derived from the source
entry (g is its prefactor times its integrand at n = 0, since f^0 = 1) that
``verify`` integrates with the source's substitution in theta.
Consistency checks confirm that the generated integrands reproduce the
Motzkin catalog entries: pointwise where the catalog entry is the direct
transform output, at the first-kind nodes of the source's own theta map,
and in integral value where it was derived with an extra u = -x
symmetrization.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .catalog import Family, Representation, check_request, get_representation, verify
from .polys import half_power_sum_3n, phi_diff_over_square_3n
from . import quadrature

_PI = math.pi


class CatalanForm(NamedTuple):
    """What a Catalan catalog entry does not state about its (f, g)
    factorization: f, and the transform flavor.

    ``has_inverse_n_plus_1`` tells which flavor applies: False means the
    plain form (simple transform), True means the form carries a 1/(n+1)
    prefactor (phi transform).  Everything else comes from the catalog
    entry ``id``.
    """

    id: str
    f: Callable[[float], float]
    has_inverse_n_plus_1: bool


class ComparisonMode(Enum):
    POINTWISE = "pointwise"
    VALUE_ONLY = "value-only"

    @property
    def tolerance(self) -> float:
        """Largest relative deviation that counts as agreement."""
        return 1e-12 if self is ComparisonMode.POINTWISE else 1e-10


def motzkin_representation(form: CatalanForm) -> Representation:
    """The transform of a form as a Motzkin entry with prefactor 3^n times
    the source's power of pi, whose integrand (the kernel over 3^n, times g)
    takes what the source entry's integrand takes: x, or the endpoint
    distances.  Its id is not a catalog id."""
    kernel = phi_diff_over_square_3n if form.has_inverse_n_plus_1 else half_power_sum_3n
    source = get_representation(form.id)
    # g keeps the source's rational at n = 0, a power of two and so an exact
    # float: times 3^n in the prefactor, cat.eq6's 4 overflows at 645, cat.eq8's 32 from 643
    rational, pi_power = source.prefactor(0)
    g_scale = float(rational)
    lo, hi = source.domain
    if source.endpoint_singular:
        def integrand(n: int, da: float, db: float) -> float:
            # g from full-precision distances, f at the point they measure
            fx = form.f(lo + da if da <= db else hi - db)
            return kernel(n, fx * fx) * (g_scale * source.integrand(0, da, db))
    else:
        def integrand(n: int, x: float) -> float:
            fx = form.f(x)
            return kernel(n, fx * fx) * (g_scale * source.integrand(0, x))

    # both kernels are polynomials of degree n // 2 in f^2, and f^(2k) g is
    # the source's integrand at k: the source's substitution, at that degree
    source_degree = source.substitution.degree
    return source._replace(
        id=f"{form.id}->motzkin",
        family=Family.MOTZKIN,
        prefactor=lambda n: (Fraction(3**n), pi_power),
        integrand=integrand,
        substitution=source.substitution._replace(degree=lambda n: source_degree(n // 2)),
    )


# ---------------------------------------------------------------------------
# registered forms: f^(2n) is the n-dependent factor of the source statement
# ---------------------------------------------------------------------------

FORMS: dict[str, CatalanForm] = {
    form.id: form
    for form in (
        CatalanForm("cat.eq2", lambda x: 2.0 * x, True),  # 4^n x^(2n)
        CatalanForm("cat.eq3", lambda x: 2.0 * math.cos(x), True),  # 4^n cos(x)^(2n)
        CatalanForm("cat.eq4", lambda x: 2.0 * math.sqrt(x), True),  # 4^n x^n
        CatalanForm("cat.eq5", math.sqrt, False),  # x^n
        # 2^(2n) / (1+x^2)^n
        CatalanForm("cat.eq6", lambda x: 2.0 * math.sqrt(1.0 / (1.0 + x * x)), False),
        CatalanForm("cat.eq7", lambda x: 2.0 * math.cos(_PI * x), False),  # (2 cos(pi x))^(2n)
        # 2^(2n) (1-x^2)^(2n) / (1+x^2)^(2n)
        CatalanForm("cat.eq8", lambda x: 2.0 * (1.0 - x * x) / (1.0 + x * x), False),
        CatalanForm("cat.eq9", lambda x: 2.0 * x, False),  # 2^(2n) x^(2n)
        CatalanForm("cat.eq10", lambda x: x, False),  # x^(2n)
    )
}

# Motzkin catalog entry generated by each form, and how to compare against
# it: pointwise where the catalog display is the literal transform output,
# value-only where it was symmetrized with u = -x first.
PAIRS: dict[str, tuple[str, ComparisonMode]] = {
    "cat.eq5": ("mot.12a", ComparisonMode.POINTWISE),
    "cat.eq6": ("mot.12b", ComparisonMode.POINTWISE),
    "cat.eq7": ("mot.12c", ComparisonMode.POINTWISE),
    "cat.eq8": ("mot.12d", ComparisonMode.POINTWISE),
    "cat.eq9": ("mot.12e", ComparisonMode.VALUE_ONLY),
    "cat.eq10": ("mot.12f", ComparisonMode.VALUE_ONLY),
    "cat.eq4": ("mot.13a", ComparisonMode.POINTWISE),
    "cat.eq2": ("mot.13b", ComparisonMode.VALUE_ONLY),
}

def get_form(catalan_id: str) -> CatalanForm:
    try:
        return FORMS[catalan_id]
    except KeyError:
        raise KeyError(
            f"no registered Catalan form for {catalan_id!r}; "
            f"registered: {', '.join(FORMS)}"
        ) from None


# the command line's pointwise samples, and the most that the library takes:
# 10**5 points take 0.3 s at n = 5 and 2 s at n = 645
CHECK_POINTS, _MAX_CHECK_POINTS = 64, 100_000


def transform_deviation(
    catalan_id: str,
    motzkin_id: str,
    mode: ComparisonMode,
    n: int,
    check_points: int = CHECK_POINTS,
) -> float:
    """Relative deviation between the transform of the registered form and
    the Motzkin catalog entry: maximum over the arguments (x, or the endpoint
    distances) that the derived entry's theta map gives at ``check_points``
    first-kind nodes, for a pair that shares domain and endpoint form
    (pointwise mode), or between integral values (value-only mode, inf when
    either integral did not converge, since two wrong values may agree).
    ``check_points`` must be in 1..100,000 in either mode."""
    if not 1 <= check_points <= _MAX_CHECK_POINTS:
        raise ValueError(
            f"check_points must be at least 1 and at most {_MAX_CHECK_POINTS}, got {check_points}"
        )
    derived = motzkin_representation(get_form(catalan_id))
    check_request(derived, n)  # refuses an n past the Motzkin limit up front
    rep = get_representation(motzkin_id)
    if mode is ComparisonMode.POINTWISE:
        if (derived.domain, derived.endpoint_singular) != (rep.domain, rep.endpoint_singular):
            raise ValueError(
                f"{derived.id} and {motzkin_id} differ in domain or endpoint form: "
                f"{derived.domain} and {rep.domain}; compare them by value"
            )
        columns, _ = derived.substitution.tabulate(derived, quadrature.chebyshev_nodes(1, check_points))
        lhs_scale, rhs_scale = derived.prefactor_float(n), rep.prefactor_float(n)
        worst = 0.0
        for args in zip(*columns):
            lhs = lhs_scale * derived.integrand(n, *args)
            rhs = rhs_scale * rep.integrand(n, *args)
            denom = max(abs(lhs), abs(rhs))
            if denom > 0.0:
                worst = max(worst, abs(lhs - rhs) / denom)
        return worst
    row_t, row_c = verify(derived, n), verify(rep, n)
    if not (row_t.converged and row_c.converged):
        return math.inf
    return abs(row_t.estimate - row_c.estimate) / max(abs(row_t.estimate), abs(row_c.estimate))


class Lemma1Check(NamedTuple):
    """Lemma 1's sides, the first's exact value, their relative errors, the
    relative mirrored difference |left - (-1)^r right| / exact and the verdict."""
    left: quadrature.QuadratureResult
    right: quadrature.QuadratureResult
    exact: float
    rel_errors: tuple[float, float]
    mirrored: float
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def check_lemma1(r: int, s: int, a: float, tol: float) -> Lemma1Check:
    """Lemma 1 on tanh-sinh: int_0^(a/2) cos^r(pi x/a) sin^s(pi x/a) dx is (-1)^r times
    the integral over (a/2, a), and (a/pi) W(r, s).  The check is true when both sides
    converged and lie within ``tol`` of their exact values and of each other, all relative."""
    # past r + s = 20000 the powers' rounding defeats the 1e-13 test on correct
    # sides: all 3,180 requests run at 19999 and 20000 held, 39 of 402 at 50000 not
    if r < 0 or s < 0 or r + s > 20_000:
        raise ValueError(f"r and s must be nonnegative with r + s <= 20000, got {r} and {s}")
    if not 0.0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    # the split point a/2 must be above 0, and pi * x / a finite up to x = a
    if a / 2.0 == 0.0 or _PI * a == math.inf:
        raise ValueError(f"a must have a/2 > 0 and pi*a finite, got {a!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    # the Wallis integral W = (r-1)!!(s-1)!!/(r+s)!!, times pi/2 if r and s are both
    # even (A&S 6.2), in binomials; a and pi are their floats' exact values: one rounding
    (p, i), (q, j) = divmod(r, 2), divmod(s, 2)
    k = p + q
    num = (1 << 2 * p if i else math.comb(2 * p, p)) * (1 << 2 * q if j else math.comb(2 * q, q))
    den = ((k + 1 if i else 1) << 2 * k + i) if i == j else (2 * k + 1) * math.comb(2 * k, k)
    exact = float(Fraction(a) * num / (den * math.comb(k, p) * (2 if i == j == 0 else Fraction(_PI))))
    if exact < quadrature._UFLOW:  # tanh-sinh returns a converged 0.0 for a side that underflows
        raise ValueError(f"the exact side (a/pi)*W({r}, {s}) = {exact!r} is not a normal float")
    def integrand(x: float) -> float:
        return math.cos(_PI * x / a) ** r * math.sin(_PI * x / a) ** s

    sign = 1 if r % 2 == 0 else -1
    halves = ((0.0, a / 2), (a / 2, a))
    left, right = (quadrature.tanh_sinh(integrand, lo, hi, rel_tol=1e-13) for lo, hi in halves)
    rel_errors = (abs(left.value - exact) / exact, abs(sign * right.value - exact) / exact)
    mirrored = abs(left.value - sign * right.value) / exact
    holds = left.converged and right.converged and max(*rel_errors, mirrored) <= tol
    return Lemma1Check(left, right, exact, rel_errors, mirrored, holds)


__all__ = [
    "CHECK_POINTS",
    "CatalanForm",
    "ComparisonMode",
    "FORMS",
    "Lemma1Check",
    "PAIRS",
    "check_lemma1",
    "get_form",
    "motzkin_representation",
    "transform_deviation",
]

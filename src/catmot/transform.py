"""Generic Catalan-to-Motzkin transforms.

Whenever the Catalan numbers are written as

    C(n) = int_a^b f(x)^(2n) g(x) dx                     (simple flavor)
    C(n) = 1/(n+1) int_a^b f(x)^(2n) g(x) dx             (phi flavor)

the corresponding Motzkin integrand is

    simple:  (1/2) ((1+f)^n + (1-f)^n) g
    phi:     (phi_{n+2}(f) - phi_{n+1}(f)) / f^2 * g

with phi_m(t) = ((1+t)^m + (1-t)^m - 2)/m.  Both kernels are evaluated as
even-power polynomial sums in s = f(x)^2 (each float coefficient the exact
one correctly rounded), so they stay accurate where f vanishes; at a zero
of f the phi kernel equals its analytic limit g(x) exactly, because the
leading coefficient of the difference polynomial in f^2 is 1.

A registration table gives f and the flavor of each eligible Catalan
catalog entry.  A transform is a Motzkin entry derived from the source
entry (g is its prefactor times its integrand at n = 0, since f^0 = 1) that
``verify`` integrates with the source's substitution in theta.
Consistency checks confirm that the generated integrands reproduce the
Motzkin catalog entries, pointwise where the catalog entry is the direct
transform output and in integral value where it was derived with an extra
u = -x symmetrization.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .catalog import Family, Representation, check_request, get_representation, verify
from .polys import half_power_sum, phi_diff_over_square
from .quadrature import QuadConfig, adaptive_gk

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
    """The transform of a form as a Motzkin entry with prefactor 1, whose
    integrand takes what the source entry's integrand takes: x, or the
    endpoint distances.  Its id is not a catalog id."""
    kernel = phi_diff_over_square if form.has_inverse_n_plus_1 else half_power_sum
    source = get_representation(form.id)
    g_scale = source.prefactor_float(0)
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
        prefactor=lambda n: (Fraction(1), 0),
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


def _sample_points(source: Representation, count: int) -> list[float]:
    lo, hi = source.domain
    if source.semi_infinite:
        # map (0,1) midpoints through lo + u/(1-u) to cover (lo, inf)
        return [lo + u / (1.0 - u) for u in ((i + 0.5) / count for i in range(count))]
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def transform_deviation(
    catalan_id: str,
    motzkin_id: str,
    mode: ComparisonMode,
    n: int,
    check_points: int = 64,
) -> float:
    """Relative deviation between the transform of the registered form and
    the Motzkin catalog entry: maximum over sample points (pointwise mode)
    or between integral values (value-only mode, inf when either integral
    did not converge, since two wrong values may agree)."""
    derived = motzkin_representation(get_form(catalan_id))
    check_request(derived, n)  # refuses an n past the Motzkin limit up front
    rep = get_representation(motzkin_id)
    if mode is ComparisonMode.POINTWISE:
        if check_points < 1:
            raise ValueError("need at least one sample point")
        scale = rep.prefactor_float(n)
        derived_at, rep_at = derived.at(n), rep.at(n)
        worst = 0.0
        for x in _sample_points(derived, check_points):
            lhs = derived_at(x)
            rhs = scale * rep_at(x)
            denom = max(abs(lhs), abs(rhs))
            if denom > 0.0:
                worst = max(worst, abs(lhs - rhs) / denom)
        return worst
    row_t, row_c = verify(derived, n), verify(rep, n)
    if not (row_t.converged and row_c.converged):
        return math.inf
    return abs(row_t.estimate - row_c.estimate) / max(abs(row_t.estimate), abs(row_c.estimate))


def check_lemma1(r: int, s: int, a: float, tol: float) -> bool:
    """Half-range reflection identity for powers of cosine and sine:

        int_0^(a/2) cos^r(pi x/a) sin^s(pi x/a) dx
            == (-1)^r int_(a/2)^a cos^r(pi x/a) sin^s(pi x/a) dx

    checked numerically, relative to the larger side (absolute when both
    sides are below tol).
    """
    left, right = lemma1_sides(r, s, a)
    return _lemma1_holds(r, left, right, tol)


def _lemma1_holds(r: int, left: float, right: float, tol: float) -> bool:
    """The comparison of :func:`check_lemma1` on precomputed sides."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    mirrored = right if r % 2 == 0 else -right
    scale = max(abs(left), abs(mirrored))
    if scale < tol:
        return abs(left - mirrored) <= tol
    return abs(left - mirrored) <= tol * scale


def lemma1_sides(r: int, s: int, a: float) -> tuple[float, float]:
    """The two half-range integrals of cos^r(pi x/a) sin^s(pi x/a)."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative integers")
    if not 0.0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    # the split point a/2 must be above 0, and pi * x / a finite up to x = a
    if a / 2.0 == 0.0 or _PI * a == math.inf:
        raise ValueError(f"a must have a/2 > 0 and pi*a finite, got {a!r}")

    def integrand(x: float) -> float:
        theta = _PI * x / a
        return math.cos(theta) ** r * math.sin(theta) ** s

    cfg = QuadConfig(rel_tol=1e-13, abs_tol=1e-16)
    left = adaptive_gk(integrand, 0.0, a / 2.0, cfg).value
    right = adaptive_gk(integrand, a / 2.0, a, cfg).value
    return left, right


__all__ = [
    "CatalanForm",
    "ComparisonMode",
    "FORMS",
    "PAIRS",
    "check_lemma1",
    "get_form",
    "lemma1_sides",
    "motzkin_representation",
    "transform_deviation",
]

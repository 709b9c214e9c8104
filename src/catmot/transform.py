"""Generic Catalan-to-Motzkin transforms.

Whenever the Catalan numbers are written as

    C(n) = int_a^b f(x)^(2n) g(x) dx                     (simple flavor)
    C(n) = 1/(n+1) int_a^b f(x)^(2n) g(x) dx             (phi flavor)

the corresponding Motzkin integrand is

    simple:  (1/2) ((1+f)^n + (1-f)^n) g
    phi:     (phi_{n+2}(f) - phi_{n+1}(f)) / f^2 * g

with phi_m(t) = ((1+t)^m + (1-t)^m - 2)/m.  Both kernels are evaluated as
even-power polynomial sums in s = f(x)^2 (exact rational coefficients,
converted to float once), so they stay accurate where f vanishes; at a zero
of f the phi kernel equals its analytic limit g(x) exactly, because the
leading coefficient of the difference polynomial in f^2 is 1.

A registration table pairs each eligible Catalan catalog entry with its
(f, g) factorization, and consistency checks confirm that the generated
integrands reproduce the Motzkin catalog entries, pointwise where the
catalog entry is the direct transform output and in integral value where it
was derived with an extra u = -x symmetrization.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .catalog import get_representation, verify
from .exact import motzkin
from .polys import half_power_sum, phi_diff_over_square
from .quadrature import QuadConfig, adaptive_gk, integrate_semi_infinite, tanh_sinh

_PI = math.pi


class CatalanForm(NamedTuple):
    """(f, g) factorization of a Catalan integral representation.

    ``has_inverse_n_plus_1`` tells which transform flavor applies: False
    means the plain form (simple transform), True means the form carries a
    1/(n+1) prefactor (phi transform).

    ``g_distance`` optionally evaluates g from full-precision endpoint
    distances, for weights that blow up at an endpoint (same mechanism as
    the catalog's distance integrands); f is then evaluated at the point
    measured from the nearer endpoint.
    """

    f: Callable[[float], float]
    g: Callable[[float], float]
    domain: tuple[float, float]
    has_inverse_n_plus_1: bool
    g_distance: Optional[Callable[[float, float], float]] = None

    @property
    def semi_infinite(self) -> bool:
        return math.isinf(self.domain[1])


class ComparisonMode(Enum):
    POINTWISE = "pointwise"
    VALUE_ONLY = "value-only"

    @property
    def tolerance(self) -> float:
        """Largest relative deviation that counts as agreement."""
        return 1e-12 if self is ComparisonMode.POINTWISE else 1e-10


def _kernel(form: CatalanForm) -> Callable[[int, float], float]:
    """The transform kernel of the form's flavor, as a function of (n, f^2)."""
    return phi_diff_over_square if form.has_inverse_n_plus_1 else half_power_sum


def motzkin_integrand(form: CatalanForm) -> Callable[[int, float], float]:
    """Motzkin integrand of a form: (1/2)((1+f)^n + (1-f)^n) g for a plain
    form, (phi_{n+2} - phi_{n+1})/f^2 * g for a form with 1/(n+1)."""
    kernel = _kernel(form)

    def integrand(n: int, x: float) -> float:
        fx = form.f(x)
        return kernel(n, fx * fx) * form.g(x)

    return integrand


# ---------------------------------------------------------------------------
# registered forms, read off the source representations
# ---------------------------------------------------------------------------

def _sqrt_prod_weight(scale: float) -> Callable[[float, float], float]:
    def g_distance(da: float, db: float) -> float:
        return scale / math.sqrt(da * db)

    return g_distance


FORMS: dict[str, CatalanForm] = {
    # C(n) = 1/(n+1) int (2x)^(2n) / (pi sqrt(1-x^2)) dx on (-1, 1)
    "cat.eq2": CatalanForm(
        f=lambda x: 2.0 * x,
        g=lambda x: 1.0 / (_PI * math.sqrt((1.0 - x) * (1.0 + x))),
        domain=(-1.0, 1.0),
        has_inverse_n_plus_1=True,
        g_distance=_sqrt_prod_weight(1.0 / _PI),
    ),
    # C(n) = 1/(n+1) int (2 cos x)^(2n) / pi dx on (0, pi)
    "cat.eq3": CatalanForm(
        f=lambda x: 2.0 * math.cos(x),
        g=lambda x: 1.0 / _PI,
        domain=(0.0, _PI),
        has_inverse_n_plus_1=True,
    ),
    # C(n) = 1/(n+1) int (2 sqrt(x))^(2n) / (pi sqrt(x-x^2)) dx on (0, 1)
    "cat.eq4": CatalanForm(
        f=lambda x: 2.0 * math.sqrt(x),
        g=lambda x: 1.0 / (_PI * math.sqrt(x * (1.0 - x))),
        domain=(0.0, 1.0),
        has_inverse_n_plus_1=True,
        g_distance=_sqrt_prod_weight(1.0 / _PI),
    ),
    # C(n) = int (sqrt(x))^(2n) * sqrt((4-x)/x)/(2 pi) dx on (0, 4)
    "cat.eq5": CatalanForm(
        f=math.sqrt,
        g=lambda x: math.sqrt(4.0 - x) / math.sqrt(x) / (2.0 * _PI),
        domain=(0.0, 4.0),
        has_inverse_n_plus_1=False,
        g_distance=lambda da, db: math.sqrt(db) / math.sqrt(da) / (2.0 * _PI),
    ),
    # C(n) = int (2/sqrt(1+x^2))^(2n) * 4x^2/(pi (1+x^2)^2) dx on (0, inf)
    "cat.eq6": CatalanForm(
        f=lambda x: 2.0 * math.sqrt(1.0 / (1.0 + x * x)),
        g=lambda x: 4.0 * (x / (1.0 + x * x)) ** 2 / _PI,
        domain=(0.0, math.inf),
        has_inverse_n_plus_1=False,
    ),
    # C(n) = int (2 cos(pi x))^(2n) * 2 sin(pi x)^2 dx on (0, 1)
    "cat.eq7": CatalanForm(
        f=lambda x: 2.0 * math.cos(_PI * x),
        g=lambda x: 2.0 * math.sin(_PI * x) ** 2,
        domain=(0.0, 1.0),
        has_inverse_n_plus_1=False,
    ),
    # C(n) = int (2(1-x^2)/(1+x^2))^(2n) * 32x^2/(pi (1+x^2)^3) dx on (0, 1)
    "cat.eq8": CatalanForm(
        f=lambda x: 2.0 * (1.0 - x * x) / (1.0 + x * x),
        g=lambda x: 32.0 * x * x / (_PI * (1.0 + x * x) ** 3),
        domain=(0.0, 1.0),
        has_inverse_n_plus_1=False,
    ),
    # C(n) = int (2x)^(2n) * 2 sqrt(1-x^2)/pi dx on (-1, 1)
    "cat.eq9": CatalanForm(
        f=lambda x: 2.0 * x,
        g=lambda x: 2.0 * math.sqrt((1.0 - x) * (1.0 + x)) / _PI,
        domain=(-1.0, 1.0),
        has_inverse_n_plus_1=False,
    ),
    # C(n) = int x^(2n) * sqrt(4-x^2)/(2 pi) dx on (-2, 2)
    "cat.eq10": CatalanForm(
        f=lambda x: x,
        g=lambda x: math.sqrt((2.0 - x) * (2.0 + x)) / (2.0 * _PI),
        domain=(-2.0, 2.0),
        has_inverse_n_plus_1=False,
    ),
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

_TIGHT = QuadConfig(rel_tol=1e-12)


def get_form(catalan_id: str) -> CatalanForm:
    try:
        return FORMS[catalan_id]
    except KeyError:
        raise KeyError(
            f"no registered Catalan form for {catalan_id!r}; "
            f"registered: {', '.join(FORMS)}"
        ) from None


def integrate_transform(catalan_id: str, n: int, cfg: QuadConfig = _TIGHT) -> float:
    """Integral of the transformed Motzkin integrand over the form's domain
    (should equal the exact Motzkin number)."""
    form = get_form(catalan_id)
    integrand = motzkin_integrand(form)
    if form.semi_infinite:
        return integrate_semi_infinite(lambda x: integrand(n, x), cfg).value
    lo, hi = form.domain
    if form.g_distance is not None:
        kernel = _kernel(form)

        def singular(da: float, db: float) -> float:
            fx = form.f(lo + da if da <= db else hi - db)
            return kernel(n, fx * fx) * form.g_distance(da, db)

        return tanh_sinh(None, lo, hi, cfg, singular=singular).value
    return tanh_sinh(lambda x: integrand(n, x), lo, hi, cfg).value


def _sample_points(domain: tuple[float, float], count: int) -> list[float]:
    lo, hi = domain
    if math.isinf(hi):
        # map (0,1) midpoints through u/(1-u) to cover (0, inf)
        return [u / (1.0 - u) for u in ((i + 0.5) / count for i in range(count))]
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
    or between integral values (value-only mode)."""
    form = get_form(catalan_id)
    rep = get_representation(motzkin_id)
    integrand = motzkin_integrand(form)
    if mode is ComparisonMode.POINTWISE:
        if check_points < 1:
            raise ValueError("need at least one sample point")
        scale = rep.prefactor_float(n)
        worst = 0.0
        for x in _sample_points(form.domain, check_points):
            lhs = integrand(n, x)
            rhs = scale * rep.integrand(n, x)
            denom = max(abs(lhs), abs(rhs))
            if denom > 0.0:
                worst = max(worst, abs(lhs - rhs) / denom)
        return worst
    value_t = integrate_transform(catalan_id, n)
    value_c = verify(rep, n, _TIGHT).estimate
    return abs(value_t - value_c) / max(abs(value_t), abs(value_c))


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
    if not tol > 0.0:
        raise ValueError("tol must be positive")
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
    "integrate_transform",
    "lemma1_sides",
    "motzkin_integrand",
    "transform_deviation",
]

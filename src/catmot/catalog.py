"""Catalog of integral representations of the Catalan and Motzkin numbers.

Every entry is a self-describing descriptor: an exact-rational prefactor
(times an optional 1/pi), the integrand, the integration domain, endpoint
singularity tags that drive automatic rule selection, and — where the
integrand is a polynomial against a Chebyshev weight — an exactness hint
that makes an N-point Gauss-Chebyshev rule reproduce the value to machine
precision.

The defining, testable contract of this module: for every entry and every
valid n, integrating the integrand over the domain and applying the
prefactor reproduces the exact Catalan or Motzkin number.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .exact import catalan, motzkin
from .polys import phi_diff_over_square, psi_difference_over_square
from .quadrature import (
    _EPS,
    QuadConfig,
    QuadratureResult,
    adaptive_gk,
    chebyshev_sum_first,
    chebyshev_sum_second,
    integrate_semi_infinite,
    tanh_sinh,
)

_PI = math.pi


class Family(Enum):
    CATALAN = "catalan"
    MOTZKIN = "motzkin"


class Singularity(Enum):
    LEFT_ENDPOINT_ALGEBRAIC = "left-endpoint-algebraic"
    RIGHT_ENDPOINT_ALGEBRAIC = "right-endpoint-algebraic"
    SEMI_INFINITE = "semi-infinite"
    REMOVABLE_INTERIOR = "removable-interior"
    SMOOTH = "smooth"


_ENDPOINT_TAGS = frozenset(
    {Singularity.LEFT_ENDPOINT_ALGEBRAIC, Singularity.RIGHT_ENDPOINT_ALGEBRAIC}
)


class ChebyshevHint(NamedTuple):
    """Marks an integrand as polynomial x Chebyshev weight after an affine
    rescale of the domain onto (-1, 1).

    ``poly(n, t)`` is that polynomial including the rescale Jacobian;
    ``nodes(n)`` is the smallest node count whose Gauss rule is exact for
    its degree.
    """

    kind: int  # 1 = weight 1/sqrt(1-t^2), 2 = weight sqrt(1-t^2)
    poly: Callable[[int, float], float]
    nodes: Callable[[int], int]


class _RepresentationFields(NamedTuple):
    id: str
    family: Family
    n_min: int
    prefactor: Callable[[int], tuple[Fraction, int]]  # n -> (rational, pi power)
    domain: tuple[float, float]
    singularities: frozenset[Singularity]
    statement: str
    exactness_hint: Optional[ChebyshevHint] = None
    split_points: tuple[float, ...] = ()
    # exactly one of the two integrand forms is given; for an entry with a
    # distance form, integrand(n, x) is derived from it
    integrand: Optional[Callable[[int, float], float]] = None
    # endpoint-distance form of the integrand for entries that blow up at an
    # endpoint; receives (x - a, b - x) with the near distance exact
    distance_integrand: Optional[Callable[[int, float, float], float]] = None


class Representation(_RepresentationFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.integrand is None) == (self.distance_integrand is None):
            raise ValueError(
                f"{self.id}: give exactly one of integrand and distance_integrand"
            )
        if self.distance_integrand is not None:
            a, b = self.domain
            dist = self.distance_integrand
            # the inherited _replace builds its copy without calling __new__
            self = _RepresentationFields._replace(
                self, integrand=lambda n, x: dist(n, x - a, b - x)
            )
        return self

    def _replace(self, **changes) -> Representation:
        # validated like a new entry: a distance-form entry copies with integrand=None
        return type(self)(*super()._replace(**changes))

    def prefactor_float(self, n: int) -> float:
        rational, pi_power = self.prefactor(n)
        value = float(rational)
        if pi_power == -1:
            value /= _PI
        elif pi_power != 0:
            value *= _PI ** pi_power
        return value

    def exact_value(self, n: int) -> int:
        return catalan(n) if self.family is Family.CATALAN else motzkin(n)

    @property
    def semi_infinite(self) -> bool:
        return Singularity.SEMI_INFINITE in self.singularities

    @property
    def endpoint_singular(self) -> bool:
        return bool(self.singularities & _ENDPOINT_TAGS)


class VerificationRow(NamedTuple):
    rep_id: str
    n: int
    exact: int
    estimate: float
    rel_err: float
    evaluations: int
    rule: str
    passed: bool
    converged: bool


# ---------------------------------------------------------------------------
# entry construction helpers
# ---------------------------------------------------------------------------

def _eq2_distance(n, da, db):
    s = da if da <= db else db
    return (1.0 - s) ** (2 * n) / math.sqrt(da * db)


def _eq3_integrand(n, x):
    return math.cos(x) ** (2 * n)


def _eq4_distance(n, da, db):
    return da**n / math.sqrt(da * db)


def _eq5_distance(n, da, db):
    return da**n * math.sqrt(db) / math.sqrt(da)


def _eq6_integrand(n, x):
    inv = 1.0 / (1.0 + x * x)
    t = x * inv
    return t * t * inv**n


def _eq7_integrand(n, x):
    s = math.sin(_PI * x)
    return (2.0 * math.cos(_PI * x)) ** (2 * n) * 2.0 * s * s


def _eq8_integrand(n, x):
    t = x * x
    inv = 1.0 / (1.0 + t)
    return ((1.0 - t) * inv) ** (2 * n) * t * inv * inv * inv


def _eq9_integrand(n, x):
    return x ** (2 * n) * math.sqrt((1.0 - x) * (1.0 + x))


def _eq10_integrand(n, x):
    return x ** (2 * n) * math.sqrt((2.0 - x) * (2.0 + x))


def _conc1_distance(n, da, db):
    s = da if da <= db else db
    return (1.0 - s) ** (2 * n + 2) / math.sqrt(da * db)


def _conc2_distance(n, da, db):
    return da**n * (2.0 * da - 1.0) / math.sqrt(da * db)


def _12a_distance(n, da, db):
    u = math.sqrt(da)
    return ((1.0 + u) ** n + (1.0 - u) ** n) * math.sqrt(db) / u


def _12b_integrand(n, x):
    inv = 1.0 / (1.0 + x * x)
    c = 2.0 * math.sqrt(inv)
    t = x * inv
    return ((1.0 + c) ** n + (1.0 - c) ** n) * t * t


def _12c_integrand(n, x):
    c = 2.0 * math.cos(_PI * x)
    s = math.sin(_PI * x)
    return ((1.0 + c) ** n + (1.0 - c) ** n) * s * s


def _12d_integrand(n, x):
    t = x * x
    inv = 1.0 / (1.0 + t)
    return (((3.0 - t) * inv) ** n + ((3.0 * t - 1.0) * inv) ** n) * t * inv * inv * inv


def _12e_integrand(n, x):
    return (1.0 + 2.0 * x) ** n * math.sqrt((1.0 - x) * (1.0 + x))


def _12f_integrand(n, x):
    return (1.0 + x) ** n * math.sqrt((2.0 - x) * (2.0 + x))


def _13a_distance(n, da, db):
    # (phi_{n+2} - phi_{n+1})(2 sqrt(x)) / x == 4 * phi_diff_over_square(n, 4x);
    # scaling by powers of two keeps every Horner step bitwise the same
    return 4.0 * phi_diff_over_square(n, 4.0 * da) / math.sqrt(da * db)


def _13b_distance(n, da, db):
    x = da - 1.0 if da <= db else 1.0 - db
    return psi_difference_over_square(n, x) / math.sqrt(da * db)


def _ceil_half_plus_one(n: int) -> int:
    return (n + 1) // 2 + 1


_CATALOG: tuple[Representation, ...] = (
    Representation(
        id="cat.eq2",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(4**n, n + 1), -1),
        domain=(-1.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 4^n/((n+1) pi) int_{-1}^{1} x^(2n)/sqrt(1-x^2) dx",
        exactness_hint=ChebyshevHint(1, lambda n, t: t ** (2 * n), lambda n: n + 1),
        distance_integrand=_eq2_distance,
    ),
    Representation(
        id="cat.eq3",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(4**n, n + 1), -1),
        integrand=_eq3_integrand,
        domain=(0.0, _PI),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="C(n) = 4^n/((n+1) pi) int_{0}^{pi} cos(x)^(2n) dx",
    ),
    Representation(
        id="cat.eq4",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(4**n, n + 1), -1),
        domain=(0.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 4^n/((n+1) pi) int_{0}^{1} x^n/sqrt(x-x^2) dx",
        distance_integrand=_eq4_distance,
    ),
    Representation(
        id="cat.eq5",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 2), -1),
        domain=(0.0, 4.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 1/(2 pi) int_{0}^{4} x^n sqrt((4-x)/x) dx",
        distance_integrand=_eq5_distance,
    ),
    Representation(
        id="cat.eq6",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(2 ** (2 * n + 2)), -1),
        integrand=_eq6_integrand,
        domain=(0.0, math.inf),
        singularities=frozenset({Singularity.SEMI_INFINITE}),
        statement="C(n) = 2^(2n+2)/pi int_{0}^{inf} x^2/(1+x^2)^(n+2) dx",
    ),
    Representation(
        id="cat.eq7",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(1), 0),
        integrand=_eq7_integrand,
        domain=(0.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="C(n) = int_{0}^{1} (2 cos(pi x))^(2n) 2 sin(pi x)^2 dx",
    ),
    Representation(
        id="cat.eq8",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(2 ** (2 * n + 5)), -1),
        integrand=_eq8_integrand,
        domain=(0.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="C(n) = 2^(2n+5)/pi int_{0}^{1} x^2 (1-x^2)^(2n)/(1+x^2)^(2n+3) dx",
    ),
    Representation(
        id="cat.eq9",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(2 ** (2 * n + 1)), -1),
        integrand=_eq9_integrand,
        domain=(-1.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="C(n) = 2^(2n+1)/pi int_{-1}^{1} x^(2n) sqrt(1-x^2) dx",
        exactness_hint=ChebyshevHint(2, lambda n, t: t ** (2 * n), lambda n: n + 1),
    ),
    Representation(
        id="cat.eq10",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 2), -1),
        integrand=_eq10_integrand,
        domain=(-2.0, 2.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="C(n) = 1/(2 pi) int_{-2}^{2} x^(2n) sqrt(4-x^2) dx",
        # affine map x = 2t: jacobian 2 times weight rescale 2
        exactness_hint=ChebyshevHint(
            2, lambda n, t: 4.0 * (2.0 * t) ** (2 * n), lambda n: n + 1
        ),
    ),
    Representation(
        id="cat.conc1",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(2 ** (2 * n + 1), 2 * n + 1), -1),
        domain=(-1.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 2^(2n+1)/((2n+1) pi) int_{-1}^{1} x^(2n+2)/sqrt(1-x^2) dx",
        exactness_hint=ChebyshevHint(1, lambda n, t: t ** (2 * n + 2), lambda n: n + 2),
        distance_integrand=_conc1_distance,
    ),
    Representation(
        id="cat.conc2",
        family=Family.CATALAN,
        n_min=1,  # the prefactor divides by n
        prefactor=lambda n: (Fraction(4**n, n), -1),
        domain=(0.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 4^n/(n pi) int_{0}^{1} (2x^(n+1)-x^n)/sqrt(x-x^2) dx  (n >= 1)",
        distance_integrand=_conc2_distance,
    ),
    Representation(
        id="mot.12a",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 4), -1),
        domain=(0.0, 4.0),
        singularities=_ENDPOINT_TAGS,
        statement="M(n) = 1/(4 pi) int_{0}^{4} ((1+sqrt(x))^n+(1-sqrt(x))^n) sqrt((4-x)/x) dx",
        distance_integrand=_12a_distance,
    ),
    Representation(
        id="mot.12b",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(2), -1),
        integrand=_12b_integrand,
        domain=(0.0, math.inf),
        singularities=frozenset({Singularity.SEMI_INFINITE}),
        statement=(
            "M(n) = 2/pi int_{0}^{inf} ((1+2/sqrt(1+x^2))^n+(1-2/sqrt(1+x^2))^n)"
            " x^2/(1+x^2)^2 dx"
        ),
    ),
    Representation(
        id="mot.12c",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(1), 0),
        integrand=_12c_integrand,
        domain=(0.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="M(n) = int_{0}^{1} ((1+2 cos(pi x))^n+(1-2 cos(pi x))^n) sin(pi x)^2 dx",
        # sign changes of 1 -/+ 2 cos(pi x) seed the adaptive subdivision
        split_points=(1.0 / 3.0, 2.0 / 3.0),
    ),
    Representation(
        id="mot.12d",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(16), -1),
        integrand=_12d_integrand,
        domain=(0.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="M(n) = 16/pi int_{0}^{1} x^2 ((3-x^2)^n+(3x^2-1)^n)/(1+x^2)^(n+3) dx",
        split_points=(1.0 / math.sqrt(3.0),),  # zero of 3x^2-1
    ),
    Representation(
        id="mot.12e",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(2), -1),
        integrand=_12e_integrand,
        domain=(-1.0, 1.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="M(n) = 2/pi int_{-1}^{1} (1+2x)^n sqrt(1-x^2) dx",
        exactness_hint=ChebyshevHint(
            2, lambda n, t: (1.0 + 2.0 * t) ** n, _ceil_half_plus_one
        ),
    ),
    Representation(
        id="mot.12f",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 2), -1),
        integrand=_12f_integrand,
        domain=(-2.0, 2.0),
        singularities=frozenset({Singularity.SMOOTH}),
        statement="M(n) = 1/(2 pi) int_{-2}^{2} (1+x)^n sqrt(4-x^2) dx",
        exactness_hint=ChebyshevHint(
            2, lambda n, t: 4.0 * (1.0 + 2.0 * t) ** n, _ceil_half_plus_one
        ),
    ),
    Representation(
        id="mot.13a",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 4), -1),
        domain=(0.0, 1.0),
        singularities=_ENDPOINT_TAGS,  # behaves like 1/sqrt(x) at 0: integrable, not removable
        statement=(
            "M(n) = 1/(4 pi) int_{0}^{1} (phi(n+2,x)-phi(n+1,x))/(x sqrt(x-x^2)) dx,"
            " phi(m,x) = ((1+2 sqrt(x))^m+(1-2 sqrt(x))^m-2)/m"
        ),
        distance_integrand=_13a_distance,
    ),
    Representation(
        id="mot.13b",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 2), -1),
        domain=(-1.0, 1.0),
        singularities=frozenset(
            {
                Singularity.LEFT_ENDPOINT_ALGEBRAIC,
                Singularity.RIGHT_ENDPOINT_ALGEBRAIC,
                Singularity.REMOVABLE_INTERIOR,  # 0/0 at x = 0, limit 2/sqrt(1-x^2)
            }
        ),
        statement=(
            "M(n) = 1/(2 pi) int_{-1}^{1} (psi(n+2,x)-psi(n+1,x))/(x^2 sqrt(1-x^2)) dx,"
            " psi(m,x) = ((1+2x)^m-1)/m"
        ),
        distance_integrand=_13b_distance,
    ),
)

_BY_ID = {rep.id: rep for rep in _CATALOG}


def list_representations(family: Optional[Family] = None) -> tuple[Representation, ...]:
    """All catalog entries in canonical order, optionally filtered by family."""
    if family is None:
        return _CATALOG
    return tuple(rep for rep in _CATALOG if rep.family is family)


def get_representation(rep_id: str) -> Representation:
    try:
        return _BY_ID[rep_id]
    except KeyError:
        raise KeyError(
            f"unknown representation {rep_id!r}; valid ids: {', '.join(_BY_ID)}"
        ) from None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_RULE_CHEBYSHEV = "chebyshev"
_RULE_TANH_SINH = "tanh-sinh"
_RULE_EXP_SINH = "exp-sinh"
_RULE_GK = "gauss-kronrod"

VALID_RULE_OVERRIDES = (_RULE_CHEBYSHEV, _RULE_TANH_SINH, _RULE_EXP_SINH, _RULE_GK)


def default_tolerance(rep: Representation) -> float:
    """Default pass tolerance by singularity class."""
    if rep.semi_infinite or rep.endpoint_singular:
        return 1e-9
    return 1e-11


def _select_rule(rep: Representation, override: Optional[str]) -> str:
    if override is None:
        if rep.exactness_hint is not None:
            return _RULE_CHEBYSHEV
        if rep.semi_infinite:
            return _RULE_EXP_SINH
        if rep.endpoint_singular:
            return _RULE_TANH_SINH
        return _RULE_GK
    if override not in VALID_RULE_OVERRIDES:
        raise ValueError(f"unknown rule override {override!r}")
    if override == _RULE_CHEBYSHEV and rep.exactness_hint is None:
        raise ValueError(f"{rep.id} has no Chebyshev exactness hint")
    if rep.semi_infinite and override != _RULE_EXP_SINH:
        raise ValueError(f"{rep.id} has an infinite domain; only exp-sinh applies")
    if not rep.semi_infinite and override == _RULE_EXP_SINH:
        raise ValueError(f"{rep.id} has a finite domain; exp-sinh does not apply")
    return override


def _integrate(
    rep: Representation, n: int, cfg: QuadConfig, override: Optional[str]
) -> tuple[float, QuadratureResult]:
    """Estimate of prefactor * integral, plus the raw engine result."""
    rational, pi_power = rep.prefactor(n)
    rule = _select_rule(rep, override)
    if rule == _RULE_CHEBYSHEV:
        hint = rep.exactness_hint
        n_nodes = hint.nodes(n)
        sum_fn = chebyshev_sum_first if hint.kind == 1 else chebyshev_sum_second
        raw = sum_fn(lambda t: hint.poly(n, t), n_nodes)
        # the rule supplies a factor pi that cancels the 1/pi prefactor exactly
        if pi_power != -1:
            raise AssertionError("exactness hints assume a 1/pi prefactor")
        estimate = float(rational) * raw
        rule = f"gauss-chebyshev-{hint.kind}[N={n_nodes}]"
        return estimate, QuadratureResult(raw, 4.0 * _EPS * abs(raw), n_nodes, rule, True)
    if rule == _RULE_EXP_SINH:
        result = integrate_semi_infinite(lambda x: rep.integrand(n, x), cfg)
    elif rule == _RULE_TANH_SINH:
        lo, hi = rep.domain
        if rep.distance_integrand is not None:
            result = tanh_sinh(
                None, lo, hi, cfg,
                singular=lambda da, db: rep.distance_integrand(n, da, db),
            )
        else:
            result = tanh_sinh(lambda x: rep.integrand(n, x), lo, hi, cfg)
    else:
        lo, hi = rep.domain
        result = adaptive_gk(
            lambda x: rep.integrand(n, x), lo, hi, cfg, split_points=rep.split_points
        )
    estimate = rep.prefactor_float(n) * result.value
    return estimate, result


def verify(
    rep: Representation,
    n: int,
    cfg: QuadConfig = QuadConfig(),
    tol: Optional[float] = None,
    rule: Optional[str] = None,
) -> VerificationRow:
    """Numerically check one (representation, n) pair against the exact value.

    ``rule`` forces one of ``VALID_RULE_OVERRIDES``; by default the rule
    comes from the entry's singularity tags and exactness hint.  ``cfg``
    holds the engine tolerances.  ``tol`` defaults to the singularity-class
    tolerance; a given one must be positive and finite.
    """
    if n < rep.n_min:
        raise ValueError(f"{rep.id} requires n >= {rep.n_min}, got {n}")
    if tol is None:
        tol = default_tolerance(rep)
    elif not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    estimate, result = _integrate(rep, n, cfg, rule)
    exact = rep.exact_value(n)
    rel_err = abs(estimate - float(exact)) / float(exact)
    label = result.rule if result.converged else result.rule + "[non-converged]"
    return VerificationRow(
        rep_id=rep.id,
        n=n,
        exact=exact,
        estimate=estimate,
        rel_err=rel_err,
        evaluations=result.evaluations,
        rule=label,
        passed=result.converged and rel_err <= tol,
        converged=result.converged,
    )

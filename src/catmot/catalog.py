"""Catalog of integral representations of the Catalan and Motzkin numbers.

Every entry is a self-describing descriptor: an exact-rational prefactor
(times an optional 1/pi), one integrand, the integration domain,
singularity tags and a substitution x(theta).  The domain and the endpoint
tags set the tolerance class; under either rule the endpoint tags also say
whether the integrand takes x or the endpoint distances (x - a, b - x),
which keep full precision where it blows up.  Under the substitution,
integrand times Jacobian is a polynomial in cos(theta) of known degree, on
some entries times sin(theta)^2, which the default Gauss-Chebyshev rule in
theta integrates exactly.

The defining, testable contract of this module: for every entry and every
valid n, integrating the integrand over the domain and applying the
prefactor reproduces the exact Catalan or Motzkin number.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import catalan_numbers, motzkin_numbers
from .polys import phi_diff_over_square_3n, psi_difference_over_square_3n
from .quadrature import (
    _EPS,
    QuadratureResult,
    chebyshev_nodes,
    chebyshev_sum_first,
    chebyshev_sum_second,
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


# the argument columns of an integrand and the Jacobians at a list of nodes
NodeTable = tuple[tuple[Sequence[float], ...], Sequence[float]]


class Substitution(NamedTuple):
    """A change of variable x(theta), theta in (0, pi) covering the domain
    once, under which integrand times Jacobian is P(cos theta), times
    sin(theta)^2 on kind 2, with deg P = degree(n)."""

    # (rep, thetas) -> the integrand's arguments after n at every node, one
    # column per argument: x, or the endpoint distances x - a and b - x on an
    # endpoint-singular entry; and |dx/dtheta| at every node.  The domain and
    # the tags are read from rep; check_request refuses the theta rule on a
    # copy on another domain, which the forced rule integrates if not a transform
    tabulate: Callable[[Representation, Sequence[float]], NodeTable]
    kind: int  # 1: midpoint nodes; 2: interior nodes, for the sin^2 forms
    degree: Callable[[int], int]


def _cosine(rep: Representation, thetas: Sequence[float]) -> NodeTable:
    """x = mid + hw cos(theta).  The endpoint distances 2 hw cos^2(theta/2)
    and 2 hw sin^2(theta/2) carry no 1 - cos cancellation."""
    lo, hi = rep.domain
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    cos, sin = math.cos, math.sin
    if rep.endpoint_singular:
        width = 2.0 * hw
        columns = (
            [width * c * c for c in [cos(0.5 * t) for t in thetas]],
            [width * s * s for s in [sin(0.5 * t) for t in thetas]],
        )
    else:
        columns = ([mid + hw * cos(t) for t in thetas],)
    return columns, [hw * sin(t) for t in thetas]


def _linear(rep: Representation, thetas: Sequence[float]) -> NodeTable:
    """theta = pi (x - lo)/(hi - lo)."""
    lo, hi = rep.domain
    scale = (hi - lo) / _PI
    return ([lo + scale * t for t in thetas],), [scale] * len(thetas)


def _tangent(rep: Representation, thetas: Sequence[float]) -> NodeTable:
    """x = lo + s tan(m theta): m = 1/2, s = 1 onto (lo, inf), m = 1/4,
    s = hi - lo onto (lo, hi).  P(cos theta) only where lo = 0 and s = 1."""
    lo, hi = rep.domain
    m, s = (0.5, 1.0) if rep.semi_infinite else (0.25, hi - lo)
    cos, tan = math.cos, math.tan
    columns = ([lo + s * tan(m * t) for t in thetas],)
    return columns, [s * m / (c * c) for c in [cos(m * t) for t in thetas]]


class Representation(NamedTuple):
    id: str
    family: Family
    n_min: int
    prefactor: Callable[[int], tuple[Fraction, int]]  # n -> (rational, pi power -1 or 0)
    # f(n, x), or f(n, x - a, b - x) on an endpoint-singular entry, whose
    # endpoint distances keep full precision where the integrand blows up
    integrand: Callable[..., float]
    domain: tuple[float, float]
    singularities: frozenset[Singularity]
    statement: str
    substitution: Substitution

    def prefactor_float(self, n: int) -> float:
        rational, pi_power = self.prefactor(n)
        return float(rational) / _PI if pi_power == -1 else float(rational)

    def exact_value(self, n: int) -> int:
        limit = _N_LIMIT[self.family]
        if not 0 <= n <= limit:
            raise ValueError(f"{self.family.value} values are tabulated for n in 0..{limit}, got {n}")
        values = _EXACT_VALUES.get(self.family)
        if values is None:
            sequence = catalan_numbers() if self.family is Family.CATALAN else motzkin_numbers()
            values = list(islice(sequence, limit + 1))
            # published whole: a thread that reads it never sees a partial list
            _EXACT_VALUES[self.family] = values
        return values[n]

    @property
    def semi_infinite(self) -> bool:
        return self.domain[1] == math.inf

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
    # (phi_{n+2} - phi_{n+1})(t) / x == 4 (phi_{n+2} - phi_{n+1})(t) / t^2 with
    # t = 2 sqrt(x), read over the 3^n that the prefactor holds
    return 4.0 * phi_diff_over_square_3n(n, 4.0 * da) / math.sqrt(da * db)


def _13b_distance(n, da, db):
    x = da - 1.0 if da <= db else 1.0 - db
    return psi_difference_over_square_3n(n, x) / math.sqrt(da * db)


_CATALOG: tuple[Representation, ...] = (
    Representation(
        id="cat.eq2",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(4**n, n + 1), -1),
        domain=(-1.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 4^n/((n+1) pi) int_{-1}^{1} x^(2n)/sqrt(1-x^2) dx",
        integrand=_eq2_distance,
        substitution=Substitution(_cosine, 1, lambda n: 2 * n),
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
        substitution=Substitution(_linear, 1, lambda n: 2 * n),
    ),
    Representation(
        id="cat.eq4",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(4**n, n + 1), -1),
        domain=(0.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 4^n/((n+1) pi) int_{0}^{1} x^n/sqrt(x-x^2) dx",
        integrand=_eq4_distance,
        substitution=Substitution(_cosine, 1, lambda n: n),
    ),
    Representation(
        id="cat.eq5",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 2), -1),
        domain=(0.0, 4.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 1/(2 pi) int_{0}^{4} x^n sqrt((4-x)/x) dx",
        integrand=_eq5_distance,
        substitution=Substitution(_cosine, 1, lambda n: n + 1),
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
        substitution=Substitution(_tangent, 1, lambda n: n + 1),
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
        substitution=Substitution(_linear, 2, lambda n: 2 * n),
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
        substitution=Substitution(_tangent, 1, lambda n: n + 1),
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
        substitution=Substitution(_cosine, 2, lambda n: 2 * n),
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
        substitution=Substitution(_cosine, 2, lambda n: 2 * n),
    ),
    Representation(
        id="cat.conc1",
        family=Family.CATALAN,
        n_min=0,
        prefactor=lambda n: (Fraction(2 ** (2 * n + 1), 2 * n + 1), -1),
        domain=(-1.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 2^(2n+1)/((2n+1) pi) int_{-1}^{1} x^(2n+2)/sqrt(1-x^2) dx",
        integrand=_conc1_distance,
        substitution=Substitution(_cosine, 1, lambda n: 2 * n + 2),
    ),
    Representation(
        id="cat.conc2",
        family=Family.CATALAN,
        n_min=1,  # the prefactor divides by n
        prefactor=lambda n: (Fraction(4**n, n), -1),
        domain=(0.0, 1.0),
        singularities=_ENDPOINT_TAGS,
        statement="C(n) = 4^n/(n pi) int_{0}^{1} (2x^(n+1)-x^n)/sqrt(x-x^2) dx  (n >= 1)",
        integrand=_conc2_distance,
        substitution=Substitution(_cosine, 1, lambda n: n + 1),
    ),
    Representation(
        id="mot.12a",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(1, 4), -1),
        domain=(0.0, 4.0),
        singularities=_ENDPOINT_TAGS,
        statement="M(n) = 1/(4 pi) int_{0}^{4} ((1+sqrt(x))^n+(1-sqrt(x))^n) sqrt((4-x)/x) dx",
        integrand=_12a_distance,
        substitution=Substitution(_cosine, 1, lambda n: n // 2 + 1),
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
        substitution=Substitution(_tangent, 1, lambda n: n // 2 + 1),
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
        substitution=Substitution(_linear, 2, lambda n: n),
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
        substitution=Substitution(_tangent, 1, lambda n: n // 2 + 1),
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
        substitution=Substitution(_cosine, 2, lambda n: n),
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
        substitution=Substitution(_cosine, 2, lambda n: n),
    ),
    Representation(
        id="mot.13a",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(3**n, 4), -1),  # the integrand is over 3^n
        domain=(0.0, 1.0),
        singularities=_ENDPOINT_TAGS,  # behaves like 1/sqrt(x) at 0: integrable, not removable
        statement=(
            "M(n) = 1/(4 pi) int_{0}^{1} (phi(n+2,x)-phi(n+1,x))/(x sqrt(x-x^2)) dx,"
            " phi(m,x) = ((1+2 sqrt(x))^m+(1-2 sqrt(x))^m-2)/m"
        ),
        integrand=_13a_distance,
        substitution=Substitution(_cosine, 1, lambda n: n // 2),
    ),
    Representation(
        id="mot.13b",
        family=Family.MOTZKIN,
        n_min=0,
        prefactor=lambda n: (Fraction(3**n, 2), -1),  # the integrand is over 3^n
        domain=(-1.0, 1.0),
        # 0/0 at x = 0, limit 2/sqrt(1-x^2)
        singularities=_ENDPOINT_TAGS | {Singularity.REMOVABLE_INTERIOR},
        statement=(
            "M(n) = 1/(2 pi) int_{-1}^{1} (psi(n+2,x)-psi(n+1,x))/(x^2 sqrt(1-x^2)) dx,"
            " psi(m,x) = ((1+2x)^m-1)/m"
        ),
        integrand=_13b_distance,
        substitution=Substitution(_cosine, 1, lambda n: n),
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

VALID_RULE_OVERRIDES = (_RULE_CHEBYSHEV, _RULE_TANH_SINH)


def default_tolerance(rep: Representation) -> float:
    """Default pass tolerance by singularity class."""
    if rep.semi_infinite or rep.endpoint_singular:
        return 1e-9
    return 1e-11


# The largest n every entry of a family takes under either rule, measured on
# the 19 entries and the 9 transforms: cat.eq8's prefactor 2^(2n+5) overflows
# at 510; the Motzkin entries overflow from 647, and 645 stays as published
_N_LIMIT = {Family.CATALAN: 509, Family.MOTZKIN: 645}

# family -> its exact values for n up to its limit, which bounds every n
# that verify takes; filled by one pass of the exact recurrence
_EXACT_VALUES: dict[Family, list[int]] = {}


@lru_cache(maxsize=16)
def _nodes(kind: int, n_nodes: int) -> tuple[float, ...]:
    """The N theta nodes of a kind, shared by the rows that read them.  At one
    n the 19 entries need at most 8 node lists, so 16 slots hold two n's."""
    return tuple(chebyshev_nodes(kind, n_nodes))


def check_request(rep: Representation, n: int, rule: Optional[str] = None) -> str:
    """The rule that ``verify`` runs for (rep, n, rule).  Refuses with
    ValueError, before anything is integrated, an unknown rule, an n
    outside n_min..the family's limit, the theta rule on a copy of an entry
    on another domain, and a copy of a transform on another domain."""
    if rule is None:
        rule = _RULE_CHEBYSHEV
    elif rule not in VALID_RULE_OVERRIDES:
        raise ValueError(f"unknown rule override {rule!r}")
    # the sum is exact only where the entry states its substitution; elsewhere
    # it is off with an ulp-sized estimate.  A transform's source precedes
    # "->", and its integrand reads f at the ends of the source's domain
    source_id, arrow, _ = rep.id.partition("->")
    entry = _BY_ID.get(source_id)
    if entry is not None and rep.domain != entry.domain and (arrow or rule == _RULE_CHEBYSHEV):
        why = ("a transform is defined on its source's domain" if arrow
               else "the chebyshev rule is exact only on the catalog domain")
        raise ValueError(f"{rep.id} has domain {rep.domain}, not the catalog's {entry.domain}: {why}")
    limit = _N_LIMIT[rep.family]
    if not rep.n_min <= n <= limit:
        raise ValueError(
            f"{rep.id} takes n >= {rep.n_min} and n <= {limit} with the {rule} rule, got {n}"
        )
    return rule


def _theta_sum(rep: Representation, n: int, n_nodes: int) -> float:
    """The Gauss-Chebyshev sum in theta of the entry at n on N nodes of its
    substitution's kind: its integral over the domain, over pi."""
    sub = rep.substitution
    columns, jacobians = sub.tabulate(rep, _nodes(sub.kind, n_nodes))
    # integrand times Jacobian at each node, in node order
    terms = map(mul, map(rep.integrand, repeat(n), *columns), jacobians)
    node_sum = chebyshev_sum_first if sub.kind == 1 else chebyshev_sum_second
    return node_sum(terms, n_nodes)


# A theta row's error estimate is gamma_k |raw|, gamma_k = k u/(1 - k u) with
# u = 2^-53: a bound on its rel_err from a first-order count k of its
# roundings (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# 2002, sections 3.1 and 4.2).  A term is P(cos theta), deg P = d, and each
# degree costs at most 24 roundings: two factors of a base built from the
# node in at most 10 (cat.eq8's (1 - t)/(1 + t), t = tan(theta/4)^2), their
# product and a Horner step's two; one more degree covers the endpoint
# weight and the Jacobian.  The N - 1 additions add N - 1.  Both counts scale
# with the sum of |term|, at most twice |sum| (cat.conc2's 2x^(n+1) - x^n
# reaches sqrt(2)).  The division by N, float(rational), pi, the products
# with them and float(exact) add 6.
_ROUNDINGS_PER_DEGREE, _ABS_SUM_RATIO, _ROUNDINGS_PER_ROW = 24, 2, 6


def _integrate(rep: Representation, n: int, rule: str) -> tuple[float, QuadratureResult]:
    """Estimate of prefactor * integral, plus the raw engine result."""
    if rule == _RULE_CHEBYSHEV:
        sub = rep.substitution
        n_nodes = sub.degree(n) // 2 + 1
        raw = _theta_sum(rep, n, n_nodes)  # integral / pi
        # the rule's factor pi cancels a 1/pi prefactor and otherwise multiplies
        rational, pi_power = rep.prefactor(n)
        estimate = float(rational) * raw
        if pi_power == 0:
            estimate *= _PI
        label = f"gauss-chebyshev-{sub.kind}[N={n_nodes}]"
        summed = _ROUNDINGS_PER_DEGREE * (sub.degree(n) + 1) + n_nodes - 1  # scale with sum |term|
        ku = (_ABS_SUM_RATIO * summed + _ROUNDINGS_PER_ROW) * 0.5 * _EPS
        return estimate, QuadratureResult(raw, ku / (1.0 - ku) * abs(raw), n_nodes, label, True)
    lo, hi = rep.domain
    if rep.endpoint_singular:
        result = tanh_sinh(None, lo, hi, singular=lambda da, db: rep.integrand(n, da, db))
    else:
        result = tanh_sinh(lambda x: rep.integrand(n, x), lo, hi)
    estimate = rep.prefactor_float(n) * result.value
    return estimate, result


def verify(
    rep: Representation,
    n: int,
    tol: Optional[float] = None,
    rule: Optional[str] = None,
) -> VerificationRow:
    """Numerically check one (representation, n) pair against the exact value.

    ``rule`` forces one of ``VALID_RULE_OVERRIDES``; by default the entry's
    substitution runs the exact Gauss-Chebyshev rule in theta, and
    :func:`check_request` refuses an n past the family's limit.  A forced
    tanh-sinh runs at its defaults.  ``tol`` defaults to the
    singularity-class tolerance; a given one must be positive and finite.
    """
    rule = check_request(rep, n, rule)
    if tol is None:
        tol = default_tolerance(rep)
    elif not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    estimate, result = _integrate(rep, n, rule)
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

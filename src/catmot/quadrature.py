"""Numerical integration engines.

Three rules cover every integrand class that appears in the representation
catalog:

* Gauss-Chebyshev (first and second kind) in theta: N-node midpoint and
  interior trapezoid sums over (0, pi), exact for P(cos theta), and for
  P(cos theta) sin(theta)^2, when deg P <= 2N-1.
* tanh-sinh: double-exponential transformation for finite intervals with
  integrable algebraic endpoint singularities, and for (a, +inf) through
  x = a + u/(1 - u) on u in (0, 1).
* adaptive Gauss-Kronrod 7/15 for smooth integrands on finite intervals: no
  command runs it; it stays while the benchmark's tracer wraps it (ROADMAP item 1a).

The two adaptive rules take one setting, ``rel_tol`` (finite, at least
1e-15): they converge when error_estimate <= rel_tol * |value|.  tanh-sinh
refines up to a fixed cap of 12 levels.

All rules report the true number of integrand evaluations and are
deterministic: identical inputs produce bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

_EPS = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
_HALF_PI = math.pi / 2.0
# the double-exponential level cap: level L runs to t_max, about 6.2 * 2**L
# evaluations, so a sum that never converges stops after about 50k of them
_MAX_LEVELS = 12
# the smallest rel_tol: near the double epsilon no level difference meets it.
# Of the 10,777 forced catalog rows (n_min..the family limits, 12 levels), all
# with n <= 310 converge at 1e-15 and 5e-16; over all n, 112 do not at 1e-15
# (cat.eq6 and cat.eq8 from n = 401), 352 at 5e-16, 454 at 4e-16, 7 at 2e-15
# and none at 4e-15.  verify's forced rows run at the default 1e-11
_MIN_REL_TOL = 1e-15
# the Gauss-Kronrod subdivision budget, in intervals
_MAX_SUBDIVISIONS = 2000


def _check_rel_tol(rel_tol: float) -> None:
    # relative only: no absolute floor suits integrals that span many orders of magnitude
    if not _MIN_REL_TOL <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and at least {_MIN_REL_TOL:g}, got {rel_tol!r}")


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    rule: str
    converged: bool


# ---------------------------------------------------------------------------
# Gauss-Chebyshev rules
# ---------------------------------------------------------------------------

def chebyshev_nodes(kind: int, n_nodes: int) -> list[float]:
    """The N nodes in theta of a Gauss-Chebyshev rule: the midpoints
    theta_k = (2k-1)pi/(2N) of kind 1, the interior points k pi/(N+1) of
    kind 2, k = 1..N in increasing order."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    pi = math.pi
    if kind == 1:
        double = 2 * n_nodes  # (2k - 1) pi/(2N) as an odd j over 2N
        return [j * pi / double for j in range(1, double, 2)]
    return [k * pi / (n_nodes + 1) for k in range(1, n_nodes + 1)]


def _node_sum(terms: Iterable[float]) -> float:
    # in node order, one rounding per term: the builtin sum compensates
    # from Python 3.12 on, which would change the last bits
    total = 0.0
    for term in terms:
        total += term
    return total


def chebyshev_sum_first(terms: Iterable[float], n_nodes: int) -> float:
    """(1/N) * sum g(theta_k) over the N terms g(theta_k), in the order of
    the midpoint nodes ``chebyshev_nodes(1, N)``.

    Multiplied by pi this is the N-point midpoint rule for the integral of
    g over (0, pi), exact for g = P(cos theta) with deg P <= 2N-1: after
    x = cos(theta) it is Gauss-Chebyshev of the first kind.  Keeping pi out
    lets callers with a 1/pi prefactor cancel it analytically.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return _node_sum(terms) / n_nodes


def chebyshev_sum_second(terms: Iterable[float], n_nodes: int) -> float:
    """(1/(N+1)) * sum g(theta_k) over the N terms g(theta_k), in the order
    of the interior nodes ``chebyshev_nodes(2, N)``.

    Multiplied by pi this is the trapezoid rule for the integral of g over
    (0, pi) with g vanishing at both ends, exact for
    g = P(cos theta) sin(theta)^2 with deg P <= 2N-1: after x = cos(theta)
    it is Gauss-Chebyshev of the second kind.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return _node_sum(terms) / (n_nodes + 1)


# ---------------------------------------------------------------------------
# double-exponential rule: tanh-sinh on (a, b), and on (a, +inf) via x = a + u/(1-u)
# ---------------------------------------------------------------------------
#
# x = mid + halfwidth*tanh((pi/2) sinh t) has a derivative that decays
# double-exponentially, which turns the integral into a trapezoid sum over
# t.  Each refinement level halves the spacing in t and runs out to the
# last usable node (Takahasi & Mori, 1974): the terms of an endpoint-heavy
# integrand may look negligible near t = 0 and grow further out, so no
# level stops at its first small terms.  Node positions are stored as
# distances d = 1 - tanh((pi/2) sinh t) from the interval ends, computed
# without cancellation, so endpoint neighborhoods are resolved down to the
# last representable point and the integrand is never evaluated exactly at
# a or b.


def _de_node(t: float) -> tuple[float, float]:
    u = _HALF_PI * math.sinh(t)
    # 1 - tanh(u) without cancellation; exp(-2u) underflows harmlessly to 0
    e = math.exp(-2.0 * u)
    d = 2.0 * e / (1.0 + e)
    sech = 1.0 / math.cosh(u)
    w = _HALF_PI * math.cosh(t) * sech * sech
    return d, w


# past t = 6.2 the distance d underflows to 0
_T_MAX = 6.2


@lru_cache(maxsize=_MAX_LEVELS + 1)
def _de_level(level: int) -> tuple[tuple[float, float], ...]:
    """The nodes (d, w) that a level adds below t_max, in increasing t:
    t = 1, 2, ... at level 0, the odd multiples of 2**-L at level L (each a
    dyadic below 8 with odd part below 2**53, so exact in float64)."""
    if level == 0:
        return tuple(_de_node(float(t)) for t in range(1, int(_T_MAX) + 1))
    spacing = 2.0 ** (-level)
    size = math.ceil((_T_MAX / spacing - 1.0) / 2.0)  # the count of (2i + 1) * spacing < t_max
    return tuple(_de_node((2 * i + 1) * spacing) for i in range(size))


def _tanh_sinh(
    f: Callable[[float, float], Optional[float]], a: float, b: float, rel_tol: float
) -> QuadratureResult:
    """Level-doubling tanh-sinh sums of ``f(x - a, b - x)`` over (a, b).

    ``f`` returns the integrand at the two endpoint distances, or None for
    a point it does not evaluate, which adds 0 and is not counted.
    """
    halfwidth = 0.5 * (b - a)
    width = b - a
    evals = 0

    def sample(da: float, db: float) -> float:
        nonlocal evals
        y = f(da, db)
        if y is None:
            return 0.0
        evals += 1
        return y

    # at t = 0: x = mid, dx/dt = halfwidth * pi/2; the spacing h = 1 at
    # level 0 and the Jacobian factor halfwidth are folded in later
    raw = _HALF_PI * sample(halfwidth, halfwidth)
    comp = 0.0  # Kahan compensation keeps the refinement plateau at a few ulps
    for level in range(_MAX_LEVELS + 1):
        for d, w in _de_level(level):
            near = halfwidth * d
            if near == 0.0 or w == 0.0:
                break  # past the last usable node
            far = width - near
            y = w * (sample(far, near) + sample(near, far)) - comp
            s = raw + y
            comp = (s - raw) - y
            raw = s
        weighted = 2.0 ** (-level) * raw
        if not math.isfinite(weighted):
            # an overflowed sum cannot refine; inf <= rel_tol * inf must not pass
            err, converged = math.inf, False
            break
        if level:
            err = abs(weighted - prev) * halfwidth
            # two refinements minimum guards against accidental level-0/1 agreement
            converged = level >= 2 and err <= rel_tol * abs(weighted * halfwidth)
            if converged:
                break
        prev = weighted
    return QuadratureResult(halfwidth * weighted, err, evals, f"tanh-sinh[level={level}]", converged)


def tanh_sinh(
    h: Optional[Callable[[float], float]],
    a: float,
    b: float,
    rel_tol: float = 1e-11,
    singular: Optional[Callable[[float, float], float]] = None,
) -> QuadratureResult:
    """Integrate h over (a, b), a finite and b finite or +inf.

    Handles integrable algebraic endpoint singularities milder than
    1/(x - a).  Convergence is declared when successive level sums agree to
    ``rel_tol`` relative to the value; each level halves the trapezoid
    spacing in t, up to ``_MAX_LEVELS``.  A level whose sum is not finite
    ends the loop, non-converged.

    A plain ``h(x)`` cannot see distances to an endpoint below about
    sqrt(eps), because ``b - tiny`` rounds; integrands that blow up at an
    endpoint then stall near 1e-8 relative accuracy.  For those, pass
    ``singular(dist_a, dist_b)``: it receives the distances to both
    endpoints, the nearer one exact to full relative precision, and is used
    instead of ``h`` at every node.

    On (a, +inf) the sum runs in u over (0, 1), dx = du/(1 - u)**2 and
    x = a + u/(1 - u) from the exact distances u and 1 - u; a node whose x
    overflows or rounds onto a adds 0 and is not evaluated.  Needs decay
    faster than 1/x at infinity, and no ``singular``.
    """
    if not a < b or math.isinf(a):
        raise ValueError("tanh_sinh requires a finite a < b")
    _check_rel_tol(rel_tol)
    if b == math.inf:
        if singular is not None:
            raise ValueError("tanh_sinh takes singular only on a finite interval")
        def semi_infinite(u: float, v: float) -> Optional[float]:
            x, inv = a + u / v, 1.0 / v
            return None if x == a or x == math.inf else h(x) * inv * inv

        return _tanh_sinh(semi_infinite, 0.0, 1.0, rel_tol)
    if singular is None:
        def singular(da: float, db: float) -> Optional[float]:
            x = a + da if da <= db else b - db
            return None if x == a or x == b else h(x)
    return _tanh_sinh(singular, a, b, rel_tol)


def integrate_semi_infinite(
    h: Callable[[float], float], rel_tol: float = 1e-11
) -> QuadratureResult:
    """:func:`tanh_sinh` over (0, +inf), a name the benchmark's tracer wraps."""
    return tanh_sinh(h, 0.0, math.inf, rel_tol)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod 7/15
# ---------------------------------------------------------------------------
#
# Abscissas and weights of the 7-point Gauss / 15-point Kronrod pair,
# embedded as hexadecimal-exact constants so results are bit-reproducible
# across platforms.  Decimal values in the trailing comments.

_XGK = (
    float.fromhex("0x1.fba009d4d09b1p-1"),  # 0.9914553711208126392068547
    float.fromhex("0x1.e5f178e7c6229p-1"),  # 0.9491079123427585245261897
    float.fromhex("0x1.bacf827b9bb3ep-1"),  # 0.8648644233597690727897128
    float.fromhex("0x1.7ba9f9be3a1d6p-1"),  # 0.7415311855993944398638648
    float.fromhex("0x1.2c13a049dfa24p-1"),  # 0.5860872354676911302941448
    float.fromhex("0x1.9f95df119fd62p-2"),  # 0.4058451513773971669066064
    float.fromhex("0x1.a98b2892e0c77p-3"),  # 0.2077849550078984676006894
)
_WGK = (
    float.fromhex("0x1.77c5b67d57470p-6"),  # 0.02293532201052922496373200
    float.fromhex("0x1.026cdaa7b61c4p-4"),  # 0.06309209262997855329070066
    float.fromhex("0x1.ad384a34814c6p-4"),  # 0.1047900103222501838398763
    float.fromhex("0x1.200ed0f46e8c1p-3"),  # 0.1406532597155259187451896
    float.fromhex("0x1.5a1f266e47d5cp-3"),  # 0.1690047266392679028265834
    float.fromhex("0x1.85d6861c80eb1p-3"),  # 0.1903505780647854099132564
    float.fromhex("0x1.a2adbcbec9cd8p-3"),  # 0.2044329400752988924141620
)
_WGK_CENTER = float.fromhex("0x1.ad04f9087090fp-3")  # 0.2094821410847278280129992
_WG = (
    float.fromhex("0x1.092f69f826d57p-3"),  # 0.1294849661688696932706114
    float.fromhex("0x1.1e6b1713d8644p-2"),  # 0.2797053914892766679014678
    float.fromhex("0x1.86fe74ee32b3dp-2"),  # 0.3818300505051189449503698
)
_WG_CENTER = float.fromhex("0x1.abfd7e03c2fa6p-2")  # 0.4179591836734693877551020


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 application on [a, b]: (value, error estimate).

    The error estimate follows the standard practice of sharpening the raw
    |K15 - G7| difference by the integrand's deviation from its mean.
    """
    xm = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    fc = f(xm)
    fvals_lo = []
    fvals_hi = []
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    for j, xi in enumerate(_XGK):
        dx = hl * xi
        f_lo = f(xm - dx)
        f_hi = f(xm + dx)
        fvals_lo.append(f_lo)
        fvals_hi.append(f_hi)
        fsum = f_lo + f_hi
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f_lo) + abs(f_hi))
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * fsum
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fvals_lo[j] - reskh) + abs(fvals_hi[j] - reskh))
    value = resk * hl
    resasc *= abs(hl)
    resabs *= abs(hl)
    err = abs((resk - resg) * hl)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return value, err


def adaptive_gk(
    h: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-11,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of h over finite [a, b].

    Starting from the whole interval, the subinterval with the largest error
    estimate is bisected until the summed error meets tolerance or the
    budget of ``_MAX_SUBDIVISIONS`` intervals runs out.
    The returned value is summed over subintervals ordered by position, so
    the result does not depend on processing order.
    """
    if not (a < b) or math.isinf(a) or math.isinf(b):
        raise ValueError("adaptive_gk requires finite a < b")
    _check_rel_tol(rel_tol)
    evals = 0

    def sample(x: float) -> float:
        nonlocal evals
        evals += 1
        return h(x)

    total_val, total_err = _gk15(sample, a, b)
    heap = [(-total_err, 0, a, b, total_val, total_err)]
    frozen = []  # intervals too narrow to bisect further (unresolvable error)
    counter = 1
    min_width = 200.0 * _EPS * max(1.0, abs(a), abs(b))

    converged = total_err <= rel_tol * abs(total_val)
    while not converged and heap and len(heap) + len(frozen) < _MAX_SUBDIVISIONS:
        _, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo < min_width:
            frozen.append((lo, hi, val, err))
            continue
        mid = 0.5 * (lo + hi)
        val_l, err_l = _gk15(sample, lo, mid)
        val_r, err_r = _gk15(sample, mid, hi)
        heapq.heappush(heap, (-err_l, counter, lo, mid, val_l, err_l))
        counter += 1
        heapq.heappush(heap, (-err_r, counter, mid, hi, val_r, err_r))
        counter += 1
        total_val += val_l + val_r - val
        total_err += err_l + err_r - err
        converged = total_err <= rel_tol * abs(total_val)

    # deterministic final summation, ordered by interval position
    intervals = sorted(
        [(item[2], item[3], item[4], item[5]) for item in heap] + frozen
    )
    value = 0.0
    error = 0.0
    for _, _, val, err in intervals:
        value += val
        error += err
    rule = f"gauss-kronrod[intervals={len(intervals)}]"
    return QuadratureResult(value, error, evals, rule, error <= rel_tol * abs(value))

"""Numerical integration engines.

Four rules cover every integrand class that appears in the representation
catalog:

* Gauss-Chebyshev (first and second kind): N-point rules that are exact for
  polynomial factors of degree <= 2N-1 against the corresponding weight.
* tanh-sinh: double-exponential transformation for finite intervals with
  integrable algebraic endpoint singularities.
* exp-sinh: double-exponential transformation for (0, +inf).
* adaptive Gauss-Kronrod 7/15: work-queue bisection for smooth (possibly
  sign-oscillating) integrands on finite intervals.

All rules report the true number of integrand evaluations and are
deterministic: identical inputs produce bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Optional, Sequence

_EPS = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
_HALF_PI = math.pi / 2.0
# deepest double-exponential level: up to it, every node abscissa
# t = (2i + 1) 2**-L below 8 has 2i + 1 < 2**53, so t is exact in float64
_MAX_DE_LEVEL = 50


class _QuadConfigFields(NamedTuple):
    rel_tol: float = 1e-11
    abs_tol: float = 1e-300
    max_levels: int = 12
    max_subdivisions: int = 2000


class QuadConfig(_QuadConfigFields):
    """Engine tolerances and caps shared by all adaptive rules; which rule
    runs is the caller's choice (``catalog.verify`` picks it per entry).

    Convergence everywhere means: error_estimate <= max(rel_tol * |value|,
    abs_tol).  The defaults suit integrands whose values span many orders of
    magnitude, which is the normal case here.  Every instance is validated,
    copies made with ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError("abs_tol must be nonnegative and finite")
        if not 3 <= self.max_levels <= _MAX_DE_LEVEL:
            raise ValueError(f"max_levels must be in 3..{_MAX_DE_LEVEL}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        return self

    def _replace(self, **changes) -> QuadConfig:
        # the inherited _replace builds its copy without calling __new__
        return type(self)(*super()._replace(**changes))


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    rule: str
    converged: bool


def _tolerance(cfg: QuadConfig, value: float) -> float:
    return max(cfg.rel_tol * abs(value), cfg.abs_tol)


# ---------------------------------------------------------------------------
# Gauss-Chebyshev rules
# ---------------------------------------------------------------------------

def chebyshev_sum_first(h: Callable[[float], float], n_nodes: int) -> float:
    """(1/N) * sum h(x_k) at the first-kind nodes x_k = cos((2k-1)pi/(2N)).

    Multiplied by pi this is the N-point Gauss-Chebyshev approximation to
    integral of h(x)/sqrt(1-x^2) over (-1, 1); keeping pi out lets callers
    with a 1/pi prefactor cancel it analytically.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    total = 0.0
    for k in range(1, n_nodes + 1):
        total += h(math.cos((2 * k - 1) * math.pi / (2 * n_nodes)))
    return total / n_nodes


def chebyshev_sum_second(h: Callable[[float], float], n_nodes: int) -> float:
    """(1/(N+1)) * sum sin^2(k pi/(N+1)) * h(cos(k pi/(N+1))).

    Multiplied by pi this approximates integral of h(x)*sqrt(1-x^2) over
    (-1, 1), exactly so for polynomial h of degree <= 2N-1.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    total = 0.0
    for k in range(1, n_nodes + 1):
        theta = k * math.pi / (n_nodes + 1)
        s = math.sin(theta)
        total += s * s * h(math.cos(theta))
    return total / (n_nodes + 1)


# ---------------------------------------------------------------------------
# double-exponential rules: tanh-sinh on (a, b), exp-sinh on (0, +inf)
# ---------------------------------------------------------------------------
#
# Both substitute x = phi(t) with a map whose derivative decays
# double-exponentially, which turns the integral into a trapezoid sum over
# t.  Each refinement level halves the spacing in t; one driver runs the
# level loop for both maps, fed by a per-node sampler.
#
# tanh-sinh uses x = mid + halfwidth*tanh((pi/2) sinh t).  Node positions
# are stored as distances d = 1 - tanh((pi/2) sinh t) from the interval
# ends, computed without cancellation, so endpoint neighborhoods are
# resolved down to the last representable point and the integrand is never
# evaluated exactly at a or b.  exp-sinh uses x = exp((pi/2) sinh t).


def _ts_node(t: float) -> tuple[float, float]:
    u = _HALF_PI * math.sinh(t)
    # 1 - tanh(u) without cancellation; exp(-2u) underflows harmlessly to 0
    e = math.exp(-2.0 * u)
    d = 2.0 * e / (1.0 + e)
    sech = 1.0 / math.cosh(u)
    w = _HALF_PI * math.cosh(t) * sech * sech
    return d, w


def _es_node(t: float) -> tuple[float, float, float, float]:
    u = _HALF_PI * math.sinh(t)
    ch = _HALF_PI * math.cosh(t)
    x_plus = math.exp(u)
    x_minus = math.exp(-u)
    return x_plus, ch * x_plus, x_minus, ch * x_minus


# rule name -> (t beyond which the nodes are unusable in float64, node map):
# the tanh-sinh distance d underflows after 6.2, exp((pi/2) sinh t)
# overflows shortly after 6.8
_DE_MAPS = {
    "tanh-sinh": (6.2, _ts_node),
    "exp-sinh": (6.8, _es_node),
}

# (rule name, level) -> {i: node at the level's i-th t > 0}, with t = i + 1
# at level 0 and t = (2i + 1) 2**-L at level L; a node is stored when a level
# loop first reaches it.  A node is a pure function of (rule, level, i):
# threads that race to fill a slot store equal values under the same key.
_DE_TABLES: dict[tuple[str, int], dict[int, tuple[float, ...]]] = {}


def _de_levels(
    kind: str,
    center: float,
    scale: float,
    term: Callable[..., Optional[tuple[float, float]]],
    cfg: QuadConfig,
) -> tuple[float, float, int, bool]:
    """Level-doubling trapezoid sums over the ``kind`` node tables.

    ``center`` is the weighted t = 0 term, ``scale`` the Jacobian factor
    kept out of the sum, and ``term(*node)`` returns the weighted
    ``(hi, lo)`` pair of one node, or None past the last usable node.
    Returns (value, error estimate, last level, converged).
    """
    raw = center  # running trapezoid sum, spacing folded in later
    comp = 0.0  # Kahan compensation keeps the refinement plateau at a few ulps
    prev_weighted = None
    weighted = raw  # h = 1 at level 0
    level = 0
    err = math.inf
    t_max, node_map = _DE_MAPS[kind]
    for level in range(cfg.max_levels + 1):
        spacing = 2.0 ** (-level)
        table = _DE_TABLES.setdefault((kind, level), {})
        # the count of t < t_max; (2i + 1) * spacing < t_max above level 0
        size = int(t_max) if level == 0 else math.ceil((t_max / spacing - 1.0) / 2.0)
        quiet = 0
        for i in range(size):
            node = table.get(i)
            if node is None:
                # every such t is a dyadic below 8, exact up to _MAX_DE_LEVEL
                node = table[i] = node_map(i + 1.0 if level == 0 else (2 * i + 1) * spacing)
            pair = term(*node)
            if pair is None:
                break
            hi, lo = pair
            y = (hi + lo) - comp
            t = raw + y
            comp = (t - raw) - y
            raw = t
            # tail cutoff: terms decay double-exponentially once negligible
            if max(abs(hi), abs(lo)) <= 0.25 * _EPS * abs(raw):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
        weighted = spacing * raw
        if prev_weighted is not None:
            err = abs(weighted - prev_weighted) * scale
            # two refinements minimum guards against accidental level-0/1 agreement
            if level >= 2 and err <= _tolerance(cfg, weighted * scale):
                return scale * weighted, err, level, True
        prev_weighted = weighted
    return scale * weighted, err, level, False


def tanh_sinh(
    h: Optional[Callable[[float], float]],
    a: float,
    b: float,
    cfg: QuadConfig = QuadConfig(),
    singular: Optional[Callable[[float, float], float]] = None,
) -> QuadratureResult:
    """Integrate h over the finite interval (a, b).

    Handles integrable algebraic endpoint singularities milder than
    1/(x - a).  Convergence is declared when successive level sums agree to
    the configured tolerance; each level halves the trapezoid spacing in t.

    A plain ``h(x)`` cannot see distances to an endpoint below about
    sqrt(eps), because ``b - tiny`` rounds; integrands that blow up at an
    endpoint then stall near 1e-8 relative accuracy.  For those, pass
    ``singular(dist_a, dist_b)``: it receives the distances to both
    endpoints, the nearer one exact to full relative precision, and is used
    instead of ``h`` at every node.
    """
    if not (a < b) or math.isinf(a) or math.isinf(b):
        raise ValueError("tanh_sinh requires finite a < b")
    halfwidth = 0.5 * (b - a)
    width = b - a
    evals = 1  # the center node

    if singular is None:
        center = h(0.5 * (a + b))

        def term(d: float, w: float) -> Optional[tuple[float, float]]:
            nonlocal evals
            near = halfwidth * d
            if near == 0.0 or w == 0.0:
                return None
            x_hi = b - near
            x_lo = a + near
            hi = lo = 0.0
            if x_hi != b:
                evals += 1
                hi = w * h(x_hi)
            if x_lo != a:
                evals += 1
                lo = w * h(x_lo)
            return hi, lo
    else:
        center = singular(halfwidth, halfwidth)

        def term(d: float, w: float) -> Optional[tuple[float, float]]:
            nonlocal evals
            near = halfwidth * d
            if near == 0.0 or w == 0.0:
                return None
            far = width - near
            evals += 2
            return w * singular(far, near), w * singular(near, far)

    # at t = 0: x = mid, dx/dt = halfwidth * pi/2
    value, err, level, converged = _de_levels(
        "tanh-sinh", _HALF_PI * center, halfwidth, term, cfg
    )
    return QuadratureResult(value, err, evals, f"tanh-sinh[level={level}]", converged)


def integrate_semi_infinite(
    h: Callable[[float], float],
    cfg: QuadConfig = QuadConfig(),
) -> QuadratureResult:
    """Integrate h over (0, +inf) via x = exp((pi/2) sinh t).

    Requires algebraic decay at least as fast as x**-2 at infinity and an
    integrable origin.  Same level-doubling convergence contract as
    :func:`tanh_sinh`.
    """
    evals = 1  # the center node

    def term(x_plus: float, w_plus: float, x_minus: float, w_minus: float) -> tuple[float, float]:
        nonlocal evals
        hi = lo = 0.0
        if math.isfinite(x_plus) and math.isfinite(w_plus):
            evals += 1
            hi = w_plus * h(x_plus)
        if x_minus > 0.0:
            evals += 1
            lo = w_minus * h(x_minus)
        return hi, lo

    # t = 0 node: x = 1, weight pi/2
    value, err, level, converged = _de_levels("exp-sinh", _HALF_PI * h(1.0), 1.0, term, cfg)
    return QuadratureResult(value, err, evals, f"exp-sinh[level={level}]", converged)


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
    cfg: QuadConfig = QuadConfig(),
    split_points: Sequence[float] = (),
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of h over finite [a, b].

    The work queue is seeded with the subintervals delimited by
    ``split_points`` (strictly interior, e.g. known sign-change locations),
    then the subinterval with the largest error estimate is bisected until
    the summed error meets tolerance or the subdivision budget runs out.
    The returned value is summed over subintervals ordered by position, so
    the result does not depend on processing order.
    """
    if not (a < b) or math.isinf(a) or math.isinf(b):
        raise ValueError("adaptive_gk requires finite a < b")
    splits = sorted(set(float(s) for s in split_points))
    if any(not (a < s < b) for s in splits):
        raise ValueError("split points must lie strictly inside (a, b)")
    evals = 0

    def sample(x: float) -> float:
        nonlocal evals
        evals += 1
        return h(x)

    edges = [a, *splits, b]
    heap = []
    frozen = []  # intervals too narrow to bisect further (unresolvable error)
    counter = 0
    total_val = 0.0
    total_err = 0.0
    min_width = 200.0 * _EPS * max(1.0, abs(a), abs(b))
    for lo, hi in zip(edges, edges[1:]):
        val, err = _gk15(sample, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
        total_val += val
        total_err += err

    converged = total_err <= _tolerance(cfg, total_val)
    while not converged and heap and len(heap) + len(frozen) < cfg.max_subdivisions:
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
        converged = total_err <= _tolerance(cfg, total_val)

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
    return QuadratureResult(value, error, evals, rule, error <= _tolerance(cfg, value))

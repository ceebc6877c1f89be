"""Direct error exponents of testing a bipartite state against product states.

The exponent of the type-I error, under an exponential constraint e^(-nR) on
the type-II error against all (iid) product alternatives, is

    E(R) = sup over s in (1/2, 1) of ((1-s)/s) (I_s - R),

where I_s is the doubly minimized Renyi mutual information. The formula is an
equality for rates above a threshold R_(1/2) and E(R) > 0 exactly when R is
below the mutual information. dI_s/ds is one formula up to s = 1, from the
minimizers (`divergences._centered`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import _centered, _product_terms
from .errors import DomainError
from .prmi import PrmiSolution, _solve_dd, _stacked, prmi_closed_form, prmi_down_down
from .states import BipartiteState

R_HALF_STEP = 1e-3  # r_half_threshold extrapolates from s = 1/2 + h and 1/2 + 2h
ROOT_WIDTH = 1e-9  # direct_exponent's root search stops at a bracket this narrow
# direct_exponent's opening nodes: the interior Chebyshev extreme points of [lo, hi]
_NODES = tuple(0.75 + 0.2499 * math.cos(k * math.pi / 7) for k in range(1, 7))


@dataclass(frozen=True)
class ExponentReport:
    """Direct exponent at a given type-II rate.

    guaranteed_exact is set when the rate exceeds the threshold R_(1/2), above
    which the variational formula is known to equal the true exponent.
    certified is set when the I_s solves the report reads are certified: R_(1/2)'s
    two orders and, below I(A:B), s*, lo, hi and the ends of the final bracket.
    """

    rate: float
    exponent: float
    s_star: float | None
    mutual_information: float
    r_half: float
    guaranteed_exact: bool
    certified: bool


@dataclass(frozen=True)
class RateCurvePoint:
    s: float
    rate: float
    exponent: float
    certified: bool  # its I_s solve is certified


def alpha_derivative(alpha: float, rho: BipartiteState,
                     solution: PrmiSolution | None = None) -> float:
    """d/d alpha of the doubly minimized Renyi mutual information.

    By the envelope theorem the minimizers may be held fixed: this is the
    one-row case of `_derivatives`, at alpha = 1 half the relative-entropy
    variance to the product of the marginals. Below 1/2 the value rests on an
    uncertified minimizer (`prmi_down_down`), and where the closed form has
    none (pure and perfectly correlated states) DomainError is raised.
    """
    if solution is None:
        solution = prmi_down_down(alpha, rho)
    if solution.sigma_a is None:
        raise DomainError(f"alpha_derivative at alpha = {alpha!r} has no minimizers to hold "
                          "fixed: the closed form answers without them")
    return float(_derivatives(rho, np.array([alpha]), [solution])[0])


def _derivatives(rho: BipartiteState, alphas: np.ndarray, solutions) -> np.ndarray:
    """dI/d alpha at a stack of k orders: dD_alpha(rho || sigma* x tau*)/d alpha
    at each solution's minimizers (`divergences._centered`), from the factors'
    eigensystems as one stack (`divergences._product_terms`)."""
    lam, mu, w = _product_terms(rho, _stacked([s.sigma_a for s in solutions]),
                                _stacked([s.tau_b for s in solutions]))
    return _centered(alphas - 1.0, lam, mu, w, derivative=True)[1]


class _PrmiCache:
    """Memoized I_s evaluations of one state at orders s in (1/2, 1). The new
    orders of a request are solved as one stack by `prmi._solve_dd`, which
    picks each order's route and start: each cached solve is the one
    `prmi_down_down(s)` makes. The derivatives dI/ds are memoized likewise."""

    def __init__(self, rho: BipartiteState):
        self.rho = rho
        self._values: dict[float, PrmiSolution] = {}
        self._derivatives: dict[float, float] = {}

    def solve(self, s_values) -> None:
        """Solve the orders of s_values that are not cached yet, as one stack."""
        missing = [s for s in dict.fromkeys(s_values) if s not in self._values]
        if not missing:
            return
        self._values.update(zip(missing, _solve_dd(missing, self.rho)))

    def solution(self, s: float) -> PrmiSolution:
        self.solve([s])
        return self._values[s]

    def value(self, s: float) -> float:
        return self.solution(s).as_float()

    def derivatives(self, s_values) -> list[float]:
        """dI/ds at each order of s_values. The orders not held yet are solved,
        and differentiated as one stack (`_derivatives`)."""
        self.solve(s_values)
        missing = [s for s in dict.fromkeys(s_values) if s not in self._derivatives]
        if missing:
            d = _derivatives(self.rho, np.array(missing), [self._values[s] for s in missing])
            self._derivatives.update(zip(missing, d.tolist()))
        return [self._derivatives[s] for s in s_values]

    def optimal_rate(self, s: float) -> tuple[float, float]:
        """The rate psi(s) = I_s - s(1-s) dI/ds at which s is the optimal
        parameter, and the derivative dI/ds it was formed from."""
        d = self.derivatives([s])[0]
        return self.value(s) - s * (1.0 - s) * d, d


def r_half_threshold(rho: BipartiteState, cache: _PrmiCache) -> float:
    """The rate threshold R_(1/2) = I_(1/2) - (1/4) d/ds I_s at s = 1/2+.

    Both the value and the one-sided derivative are extrapolated to s = 1/2 from
    the right with a two-point Richardson step, then clamped into [a known lower
    bound of I_0, I_(1/2)]: the closed form of I_0 on pure and perfectly
    correlated states, else 0. A search for I_0 is not used: it returns an
    estimate from above, which is no lower bound.
    """
    s1, s2 = 0.5 + R_HALF_STEP, 0.5 + 2 * R_HALF_STEP
    i_half = 2 * cache.value(s1) - cache.value(s2)
    d1, d2 = cache.derivatives([s1, s2])
    r = i_half - 0.25 * (2 * d1 - d2)
    return float(min(max(r, prmi_closed_form(0.0, rho, "dd") or 0.0), i_half))


def direct_exponent(rho: BipartiteState, rate: float) -> ExponentReport:
    """sup over s in (1/2, 1) of ((1-s)/s)(I_s - rate).

    The objective's derivative is (rate - psi(s))/s^2, where
    psi(s) = I_s - s(1-s) dI/ds is the rate at which s is optimal and is
    increasing in s. So the maximizer s* is the root of g(s) = psi(s) - rate,
    searched on [1/2 + 1e-4, 1 - 1e-4]: s* is the left end when g >= 0 there,
    the right end when g <= 0 there, and otherwise the root, found by
    `_stacked_root`. Each g(s) costs one solve, as dI/ds comes from the
    minimizers at s by the envelope theorem. The opening stack solves and
    differentiates the two orders of `r_half_threshold` and, below I(A:B), the
    ends lo and hi and the nodes _NODES between them, whose signs of g give the
    first bracket. The exponent is the largest objective at s* and at the two
    ends, and never below 0; it is zero exactly when the rate is at least the
    mutual information.
    """
    if not rate >= 0:  # also rejects nan
        raise DomainError(f"rate must be nonnegative, got {rate!r}")
    i_one = prmi_down_down(1.0, rho).value
    cache = _PrmiCache(rho)
    lo, hi = 0.5 + 1e-4, 1.0 - 1e-4
    read = [0.5 + R_HALF_STEP, 0.5 + 2 * R_HALF_STEP]
    opening = read + [lo, hi, *_NODES] if rate < i_one else read
    cache.derivatives(opening)
    r_half = r_half_threshold(rho, cache)
    guaranteed = rate > r_half
    if rate >= i_one:
        return ExponentReport(
            rate=rate, exponent=0.0, s_star=None, mutual_information=i_one, r_half=r_half,
            guaranteed_exact=guaranteed, certified=all(cache.solution(s).certified for s in read),
        )

    def g(s_values) -> list[float]:
        cache.derivatives(s_values)
        return [float(cache.optimal_rate(s)[0] - rate) for s in s_values]

    def objective(s: float) -> float:
        return ((1.0 - s) / s) * (cache.value(s) - rate)

    known = dict(zip(opening, g(opening)))
    if known[lo] >= 0:
        s_star = lo
    elif known[hi] <= 0:
        s_star = hi
    else:
        s_star, a, b = _stacked_root(g, known)
        read += [a, b]
    s_star = max((s_star, lo, hi), key=objective)
    return ExponentReport(
        rate=rate, exponent=max(objective(s_star), 0.0), s_star=s_star,
        mutual_information=i_one, r_half=r_half, guaranteed_exact=guaranteed,
        certified=all(cache.solution(s).certified for s in read + [s_star, lo, hi]),
    )


def _stacked_root(g, known: dict) -> tuple[float, float, float]:
    """Root of an increasing g from its values known = {s: g(s)}, which change
    sign; g maps a list of points to their values, solved as one stack. Returns
    (s*, a, b): s* the evaluated point with the smallest |g|, and a < b the first
    sign change, g(a) < 0 <= g(b), once b - a <= ROOT_WIDTH or g(b) = 0. Each
    stack holds an estimate c and a guard on each side of it at c's distance
    from the estimate one order lower (at least ROOT_WIDTH / 2, at most halfway
    to the bracket's end); c is the highest-order estimate inside the bracket.
    Where none is, or the bracket kept over a quarter of its width of two
    stacks before, c is the midpoint and the guards its quarter points.
    """
    widths = [math.inf, math.inf]
    while True:
        points = sorted(known)
        j = next(k for k, s in enumerate(points) if known[s] >= 0)
        a, b = points[j - 1], points[j]
        if b - a <= ROOT_WIDTH or known[b] == 0:
            return min(known, key=lambda s: abs(known[s])), a, b
        mid = 0.5 * (a + b)
        near = sorted(points, key=lambda s: abs(s - mid))[:4]
        # the inverse interpolations s(g) at g = 0 through the first 2, 3, 4 of them,
        # by Neville's scheme, until two values of g are equal
        est, p, gs = [], list(near), [known[s] for s in near]
        try:
            for m in range(1, len(near)):
                for i in range(len(near) - m):
                    p[i] = (gs[i + m] * p[i] - gs[i] * p[i + 1]) / (gs[i + m] - gs[i])
                est.append(p[0])
        except ZeroDivisionError:
            pass
        k = max((k for k, c in enumerate(est) if a < c < b), default=None)
        if k is None or b - a > 0.25 * widths[-2]:
            c, delta = mid, math.inf
        else:
            c, delta = est[k], max(abs(est[k] - est[k - 1]) if k else math.inf, 0.5 * ROOT_WIDTH)
        widths.append(b - a)
        new = [c - min(delta, 0.5 * (c - a)), c, c + min(delta, 0.5 * (b - c))]
        known.update(zip(new, g(new)))


def rate_curve(rho: BipartiteState, s_values) -> list[RateCurvePoint]:
    """Parametric (rate, exponent) curve, its s grid solved as one stack and
    differentiated as one Nussbaum-Szkola sum (`_derivatives`), by one formula
    up to s = 1.

    At parameter s the optimizing rate is R(s) = I_s - s(1-s) dI/ds and the
    exponent there is (1-s)^2 dI/ds; the rate increases toward the mutual
    information as s -> 1 while the exponent decays to zero.
    """
    s_values = list(s_values)
    for s in s_values:
        if not 0.5 < s < 1.0:
            raise DomainError(f"curve parameter must lie in (1/2, 1), got {s}")
    cache = _PrmiCache(rho)
    cache.derivatives(s_values)
    points = []
    for s in s_values:
        rate, d = cache.optimal_rate(s)
        points.append(RateCurvePoint(s=float(s), rate=rate, exponent=(1.0 - s) ** 2 * d,
                                     certified=cache.solution(s).certified))
    return points

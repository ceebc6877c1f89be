"""Classical Renyi divergences and Renyi mutual informations of joint pmfs.

These serve both as standalone functionality for classical-classical inputs and
as independent cross-checks for the quantum code paths on commuting states.

For alpha <= 1/2 the doubly minimized value comes from the search of
`oracle._grid_refine`, started on a simplex grid and refined in the coordinates
of the diagonal traceless generators; the reduction is exact, but a grid
solves it, so its value is an estimate from above.
"""

from __future__ import annotations

import math

import numpy as np

from .divergences import ALPHA_ONE_WINDOW, DivergenceValue, _check_order, _one_sided_min
from .errors import DomainError, InvalidInputError, UnsupportedRegimeError
from .oracle import _grid_refine, _traceless_basis
from .states import Pmf

_TOL = 1e-12  # stop of the alternating minimization, on value and on r
_MAX_ITER = 10000


def _as_pmf_vector(p) -> np.ndarray:
    v = np.asarray(p, dtype=float).reshape(-1)
    if np.min(v) < -1e-12:
        raise InvalidInputError("probability vector has negative entries")
    return np.clip(v, 0.0, None)


def classical_divergence(alpha: float, p, q) -> DivergenceValue:
    """Classical Renyi divergence D_alpha(p || q), natural log."""
    _check_order(alpha)
    p = _as_pmf_vector(p)
    q = _as_pmf_vector(q)
    if p.size != q.size:
        raise InvalidInputError("pmf supports must have equal size")
    sp = p > 0
    sq = q > 0
    if alpha < 1:
        if not np.any(sp & sq):
            return DivergenceValue.infinite()
    elif np.any(sp & ~sq):
        return DivergenceValue.infinite()
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        mask = sp
        return DivergenceValue(value=float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))
    mask = sp & sq
    if alpha == 0:
        return DivergenceValue(value=-math.log(float(np.sum(q[sp]))))
    s = float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))
    return DivergenceValue(value=math.log(s) / (alpha - 1.0), q_value=s)


def mutual_information(pmf: Pmf) -> float:
    table = pmf.table
    prod = np.outer(pmf.marginal_x, pmf.marginal_y)
    mask = table > 0
    return float(np.sum(table[mask] * np.log(table[mask] / prod[mask])))


def rmi_up_up(alpha: float, pmf: Pmf) -> DivergenceValue:
    """I_alpha^(up,up): divergence to the product of the true marginals."""
    return classical_divergence(alpha, pmf.table.reshape(-1), np.outer(pmf.marginal_x, pmf.marginal_y).reshape(-1))


def _down_value_and_optimal_q(alpha: float, table: np.ndarray, r: np.ndarray):
    """min_q D_alpha(P || r x q) and its minimizer for one pmf r and alpha > 0:
    with m_y = sum_x P(x,y)^alpha r(x)^(1-alpha), the value is
    (alpha/(alpha-1)) log sum_y m_y^(1/alpha) at q ~ m^(1/alpha). The loop
    for alpha > 1/2 runs on it, and the tests take it as the reference for
    `_down_values`."""
    with np.errstate(divide="ignore"):
        ra = np.where(r > 0, r ** (1.0 - alpha), 0.0)
    m = (table**alpha * ra[:, None]).sum(axis=0)
    s = float(np.sum(m ** (1.0 / alpha)))
    q = m ** (1.0 / alpha) / s
    value = (alpha / (alpha - 1.0)) * math.log(s)
    return value, q


def rmi_down_down(alpha: float, pmf: Pmf):
    """Doubly minimized classical Renyi mutual information
    min_{r, q} D_alpha(P || r x q).

    For alpha > 1/2 this alternates the two closed-form one-sided minimizations,
    which monotonically decreases the objective. For alpha <= 1/2 the objective
    can have non-interior optima; a dense simplex grid with local refinement is
    used instead (alphabets of size <= 3 only), which only estimates it.

    Returns (value, r, q).
    """
    _check_order(alpha)
    table = pmf.table
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return mutual_information(pmf), pmf.marginal_x.copy(), pmf.marginal_y.copy()
    if alpha > 0.5:
        r = pmf.marginal_x.copy()
        prev = math.inf
        for _ in range(_MAX_ITER):
            val, q = _down_value_and_optimal_q(alpha, table, r)
            _, r_new = _down_value_and_optimal_q(alpha, table.T, q)
            if abs(val - prev) <= _TOL and np.max(np.abs(r_new - r)) <= _TOL:
                r = r_new
                break
            prev = val
            r = r_new
        val, q = _down_value_and_optimal_q(alpha, table, r)
        return val, r, q
    return _down_down_small_alpha(alpha, table)


_SIMPLEX_STEPS = 60


def _down_values(alpha: float, table: np.ndarray, sigmas: np.ndarray):
    """min_q D_alpha(P || r_k x q) and the minimizing q for r_k the diagonal of
    each sigma_k: `_one_sided_min` on the diagonal sum_x r(x)^(1-alpha)
    P(x,y)^alpha of M, with P^alpha taken on its support."""
    # the pull toward the uniform pmf can leave rounding-level negative entries
    r = np.clip(np.real(np.diagonal(sigmas, axis1=1, axis2=2)), 0.0, None)
    p_pow = np.power(table, alpha, out=np.zeros_like(table), where=table > 0)
    return _one_sided_min(alpha, r ** (1.0 - alpha) @ p_pow)


def _down_down_small_alpha(alpha: float, table: np.ndarray):
    d = table.shape[0]
    if d > 3:
        raise UnsupportedRegimeError(
            "exhaustive simplex search for alpha <= 1/2 is limited to alphabets of size <= 3"
        )
    # all pmfs on d points with entries i / _SIMPLEX_STEPS, as diagonal matrices
    counts = np.indices((_SIMPLEX_STEPS + 1,) * d).reshape(d, -1).T
    pmfs = counts[counts.sum(axis=1) == _SIMPLEX_STEPS] / _SIMPLEX_STEPS
    best_val, best = _grid_refine(
        pmfs[:, :, None] * np.eye(d),
        lambda sigmas: _down_values(alpha, table, sigmas)[0],
        _traceless_basis(d)[d * d - d:],  # the diagonal generators
    )
    r = np.clip(np.real(np.diag(best)), 0.0, None)
    # q is the same for r and its normalization, which scales M by a constant
    return best_val, r / r.sum(), _down_values(alpha, table, best[None])[1][0]


def rmi_up_down(alpha: float, pmf: Pmf) -> float:
    """I_alpha^(up,down): first marginal fixed to the true one, second minimized."""
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return mutual_information(pmf)
    if alpha <= 0:
        raise DomainError("closed form requires alpha > 0")
    val, _ = _down_value_and_optimal_q(alpha, pmf.table, pmf.marginal_x)
    return val

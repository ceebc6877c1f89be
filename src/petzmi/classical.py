"""The doubly minimized Renyi mutual information of a joint pmf below 1/2.

`prmi_down_down` calls `rmi_down_down` for a diagonal state at alpha <= 1/2
that has no closed form. There min_{r, q} D_alpha(P || r x q) can have
non-interior optima, and it comes from the search of `oracle._grid_refine`,
started on a simplex grid and refined in the coordinates of the diagonal
traceless generators; the reduction is exact, but a grid solves it, so its
value is an estimate from above.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .divergences import _check_order, _one_sided_min, _orders
from .errors import DomainError, UnsupportedRegimeError
from .oracle import _grid_refine, _traceless_basis
from .states import Pmf


_SIMPLEX_STEPS = 60


def _down_values(alpha: float, table: np.ndarray, sigmas: np.ndarray):
    """min_q D_alpha(P || r_k x q) and the minimizing q for r_k the diagonal of
    each sigma_k: `_one_sided_min` on the diagonal sum_x r(x)^(1-alpha)
    P(x,y)^alpha of M, with P^alpha taken on its support."""
    # the pull toward the uniform pmf can leave rounding-level negative entries
    r = np.clip(np.real(np.diagonal(sigmas, axis1=1, axis2=2)), 0.0, None)
    p_pow = np.power(table, alpha, out=np.zeros_like(table), where=table > 0)
    return _one_sided_min(_orders(np.array([alpha])), r ** (1.0 - alpha) @ p_pow)


@functools.lru_cache(maxsize=None)
def _simplex_grid(d: int) -> np.ndarray:
    """All pmfs on d points with entries i / _SIMPLEX_STEPS, in lexicographic
    order, as a read-only stack of diagonal matrices: the counts are the gaps
    between d - 1 bars among _SIMPLEX_STEPS + d - 1 slots."""
    n = _SIMPLEX_STEPS + d - 1
    bars = np.array(list(itertools.combinations(range(n), d - 1)), dtype=int)
    counts = np.diff(bars.reshape(len(bars), d - 1), axis=1, prepend=-1, append=n) - 1
    grid = (counts / _SIMPLEX_STEPS)[:, :, None] * np.eye(d)
    grid.setflags(write=False)
    return grid


def rmi_down_down(alpha: float, pmf: Pmf):
    """Doubly minimized classical Renyi mutual information
    min_{r, q} D_alpha(P || r x q) for 0 <= alpha <= 1/2, by a dense simplex
    grid with local refinement (alphabets of size <= 3 only), which only
    estimates it.

    Returns (value, r, q).
    """
    _check_order(alpha)
    if alpha > 0.5:
        raise DomainError(f"the simplex search needs alpha <= 1/2, got {alpha!r}")
    table = pmf.table
    d = table.shape[0]
    if d > 3:
        raise UnsupportedRegimeError(
            "exhaustive simplex search for alpha <= 1/2 is limited to alphabets of size <= 3"
        )
    best_val, best = _grid_refine(
        _simplex_grid(d),
        lambda sigmas: _down_values(alpha, table, sigmas)[0],
        _traceless_basis(d)[d * d - d:],  # the diagonal generators
    )
    r = np.clip(np.real(np.diag(best)), 0.0, None)
    # q is the same for r and its normalization, which scales M by a constant
    return best_val, r / r.sum(), _down_values(alpha, table, best[None])[1][0]

"""Exhaustive product-state search for the doubly minimized Renyi mutual
information.

This is a slow, independent reference for the tests and the `oracle` command;
the solver does not call it. It takes from `prmi` the value at its minimizer
(`gen_prmi_down`) and the Ginibre states of `_ginibre_grid`, the loop's starts
below 1/2 on non-diagonal states. The A-side state ranges over a dense grid of
density matrices; for each the B-side minimization is exact through its closed
form, so the only approximation is the A-side search.

One routine, `_grid_refine`, does this search and the classical alpha <= 1/2
one: the argmin of a batched objective over a starting grid (a Bloch-ball grid
for a qubit, a seeded Ginibre sample for a qutrit), refined in a shrinking box
in traceless Hermitian coordinates, with candidates pulled toward I/d until PSD.
"""

from __future__ import annotations

import math

import numpy as np

from .divergences import (ALPHA_ONE_WINDOW, SUPPORT_OVERLAP_TOL, _check_order, _one_sided_min,
                          _orders, renyi_entropy)
from .errors import DomainError, ResourceLimitError, UnsupportedRegimeError
from .linalg import power_on_support, spectral_log, spectral_power
from .prmi import _ginibre_grid, gen_prmi_down
from .states import BipartiteState, DensityOperator

DEFAULT_RESOLUTION = 24
# grid points x (d_A^2 + d_B^2), the matrix entries the grid's stacks hold per point;
# at this bound a qutrit A side with d_B = 4 and resolution 99 peaks near 1 GB
MAX_GRID_ENTRIES = 25 * 10**6
_REFINE_WIDTH = 0.15  # half-width of the first box, in Bloch units
_REFINE_POINTS = 7  # stencil points per coordinate
_REFINE_ROUNDS = 8


def _traceless_basis(dim: int) -> np.ndarray:
    """Traceless Hermitian G_i with tr(G_i G_j) = 2 delta_ij (generalized
    Gell-Mann), the dim - 1 diagonal ones last; X, Y, Z at dim = 2. Then
    sigma = I/dim + sum_i n_i G_i / 2 with n_i = tr(sigma G_i)."""
    eye = np.eye(dim)
    off = [c * np.outer(eye[j], eye[k])
           for j in range(dim) for k in range(j + 1, dim) for c in (1, -1j)]
    diag = [np.diag(np.r_[np.ones(n), -n, np.zeros(dim - n - 1)]) * math.sqrt(2 / (n * n + n))
            for n in range(1, dim)]
    return np.array([g + g.conj().T for g in off] + diag, dtype=complex).reshape(-1, dim, dim)


_PAULI_X, _PAULI_Y, _PAULI_Z = _traceless_basis(2)


def _qubit_grid(resolution: int) -> np.ndarray:
    """Bloch-ball grid of single-qubit density matrices, deduplicated at the
    poles and at r = 0: I/2, then for each radius the pole theta = 0, every
    azimuth on each interior polar angle, and the pole theta = pi."""
    if resolution == 1:  # real, as the shell would make the stack complex
        return (np.eye(2) / 2)[None]
    radii = np.linspace(0.0, 1.0, resolution)[1:]
    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2 * math.pi, 2 * resolution, endpoint=False)
    t, p = np.meshgrid(thetas[1:-1], phis, indexing="ij")
    t = np.concatenate([[0.0], t.ravel(), [math.pi]])
    p = np.concatenate([[0.0], p.ravel(), [0.0]])
    directions = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    n = (radii[:, None, None] * directions).reshape(-1, 3, 1, 1)
    shell = (np.eye(2) + n[:, 0] * _PAULI_X + n[:, 1] * _PAULI_Y + n[:, 2] * _PAULI_Z) / 2
    return np.concatenate([(np.eye(2) / 2)[None], shell])


def _grid_refine(grid: np.ndarray, objective, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize a batched objective, mapping a (k, d, d) stack of density
    matrices to k values, and return (value, sigma).

    The argmin over `grid` is refined for _REFINE_ROUNDS rounds around the best
    point so far, on _REFINE_POINTS steps per coordinate of `basis` over a
    half-width that starts at _REFINE_WIDTH and shrinks by 1/4 per round: the
    full box for at most 3 coordinates, one coordinate at a time beyond.
    """
    d = grid.shape[-1]
    vals = objective(grid)
    k = int(np.argmin(vals))
    best_val, best = float(vals[k]), grid[k]
    m = len(basis)
    steps = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    if m <= 3:
        stencil = steps[np.indices((_REFINE_POINTS,) * m).reshape(m, _REFINE_POINTS**m).T]
    else:
        stencil = (np.eye(m)[:, None, :] * steps[None, :, None]).reshape(-1, m)
    width = _REFINE_WIDTH
    for _ in range(_REFINE_ROUNDS):
        coords = np.real(np.einsum("ij,mji->m", best, basis)) + width * stencil
        dev = np.einsum("km,mij->kij", coords, basis) / 2
        # pull I/d + dev toward I/d until PSD: lambda_min(I/d + t dev) = 1/d + t
        # lambda_min(dev); for a qubit, Bloch vectors longer than 1 get length 1
        t = 1.0 / np.maximum(1.0, -d * np.linalg.eigvalsh(dev)[:, 0])
        cands = np.eye(d) / d + t[:, None, None] * dev
        vals = objective(cands)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best = float(vals[k]), cands[k]
        width /= 4
    return best_val, best


def _batched_values(alpha: float, rho: BipartiteState, sigmas: np.ndarray) -> np.ndarray:
    """Objective values min_tau D_alpha(rho || sigma_k x tau) for all sigma_k.

    Vectorized: sigma^(1-alpha) by batched eigendecomposition (sigma at alpha = 0),
    the partial trace by one einsum, tau-minimization by `_one_sided_min`, which
    has no Nussbaum-Szkola form: within ALPHA_ONE_WINDOW of 1 the alpha = 1 one.
    """
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return _batched_values_alpha_one(rho, sigmas)
    s_pow = sigmas
    if alpha != 0:
        vals, vecs = np.linalg.eigh(sigmas)
        s_pow = np.einsum("kij,kj,klj->kil", vecs, spectral_power(vals, 1.0 - alpha), vecs.conj())
    r = power_on_support(rho, alpha).matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    m = np.einsum("ibjd,kji->kbd", r, s_pow)
    m_vals = np.linalg.eigvalsh((m + np.conj(np.swapaxes(m, 1, 2))) / 2)
    out, _ = _one_sided_min(_orders(np.array([alpha])), m_vals)
    if alpha > 1:
        # finite only when supp(rho_A) <= supp(sigma); rank-deficient grid
        # points otherwise yield a meaningless finite number
        _, leak = _weights_and_leak(rho, vals, vecs)
        out[leak > SUPPORT_OVERLAP_TOL] = math.inf
    return out


def _weights_and_leak(rho: BipartiteState, vals: np.ndarray, vecs: np.ndarray):
    """w_kj = <v_kj|rho_A|v_kj> for the eigensystems (vals, vecs) of a stack of
    sigma_k, and the leak tr[rho_A (1 - P_sigma_k)], the w_kj off supp(sigma_k)."""
    w = np.real(np.einsum("kij,il,klj->kj", vecs.conj(), rho.marginal_a.matrix, vecs))
    return w, np.sum(w * (1.0 - spectral_power(vals, 0.0)), axis=1)


def _batched_values_alpha_one(rho: BipartiteState, sigmas: np.ndarray) -> np.ndarray:
    """min_tau D(rho || sigma x tau) = tr[rho log rho] - tr[rho_A log sigma] + H(rho_B)
    minimized at tau = rho_B; infinite when supp(rho_A) exceeds supp(sigma).

    With sigma_k = sum_j lambda_kj |v_kj><v_kj| and w_kj = <v_kj|rho_A|v_kj>,
    tr[rho_A log sigma_k] sums w_kj log lambda_kj over the support of sigma_k,
    and the w_kj off it are the leak.
    """
    vals, vecs = np.linalg.eigh(sigmas)
    w, leak = _weights_and_leak(rho, vals, vecs)
    cross = np.sum(w * spectral_log(vals), axis=1)
    out = -renyi_entropy(1.0, rho) - cross + renyi_entropy(1.0, rho.marginal_b)
    out[leak > SUPPORT_OVERLAP_TOL] = math.inf
    return out


def brute_force_dd(
    alpha: float,
    rho: BipartiteState,
    resolution: int = DEFAULT_RESOLUTION,
) -> tuple[float, DensityOperator | None, DensityOperator | None]:
    """Grid-search value of min_{sigma, tau} D_alpha(rho || sigma x tau).

    Returns (value, sigma_A, tau_B). sigma ranges over a starting grid (the
    Bloch-ball grid of `resolution` radii and polar angles for a qubit,
    resolution**3 Ginibre samples for a qutrit) plus rho_A, refined around
    the best point by `_grid_refine`; tau is exact given sigma, and at alpha != 1
    the value is `gen_prmi_down`'s there, exact through alpha = 1. A grid whose
    points times d_A^2 + d_B^2 exceed MAX_GRID_ENTRIES, counted before it is
    built, raises ResourceLimitError.
    """
    _check_order(alpha)
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    # rho_A, I/d, and for a qubit two poles and 2 r azimuths on r - 2 polar angles per
    # radius, for a qutrit r^3 Ginibre states
    if rho.d_a == 2:
        points = 2 + (resolution - 1) * (2 + 2 * resolution * (resolution - 2))
    elif rho.d_a == 3:
        points = 2 + resolution**3
    else:
        raise UnsupportedRegimeError(
            f"exhaustive search supports local dimension <= 3, got {rho.d_a}"
        )
    if points * (rho.d_a**2 + rho.d_b**2) > MAX_GRID_ENTRIES:
        raise ResourceLimitError(f"resolution {resolution} gives {points} grid points for "
                                 f"d_A = {rho.d_a}, d_B = {rho.d_b}: more than "
                                 f"{MAX_GRID_ENTRIES} matrix entries")
    grid = _qubit_grid(resolution) if rho.d_a == 2 else _ginibre_grid(3, resolution**3)
    # rho_A is where the singly minimized value sits, so the estimate never exceeds it
    grid = np.concatenate([grid, rho.marginal_a.matrix[None]])
    best_val, best_sigma = _grid_refine(
        grid, lambda s: _batched_values(alpha, rho, s), _traceless_basis(rho.d_a)
    )
    if not np.isfinite(best_val):
        return math.inf, None, None
    sigma = DensityOperator(best_sigma)
    if alpha == 1.0:
        return best_val, sigma, rho.marginal_b
    value, tau = gen_prmi_down(alpha, rho, sigma)
    return value, sigma, tau

"""Exhaustive product-state search for the doubly minimized Renyi mutual
information.

This is a slow, independent reference implementation: it never touches the
fixed-point solver. The A-side state ranges over a dense grid of density
matrices; for each grid point the B-side minimization is performed exactly
through its closed form, so the only approximation is the A-side grid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import qmc

from .divergences import ALPHA_ONE_WINDOW
from .errors import DomainError, UnsupportedRegimeError
from .linalg import default_cutoff, power_on_support
from .states import BipartiteState, DensityOperator

DEFAULT_RESOLUTION = 24

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def bloch_density(r: float, theta: float, phi: float) -> np.ndarray:
    n = r * np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])
    return (np.eye(2) + n[0] * _PAULI_X + n[1] * _PAULI_Y + n[2] * _PAULI_Z) / 2


def _qubit_grid(resolution: int) -> np.ndarray:
    """Bloch-ball grid of single-qubit density matrices, deduplicated at the
    poles and at r = 0."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    points = [np.eye(2) / 2]
    if resolution > 1:
        radii = np.linspace(0.0, 1.0, resolution)[1:]
        thetas = np.linspace(0.0, math.pi, resolution)
        phis = np.linspace(0.0, 2 * math.pi, 2 * resolution, endpoint=False)
        for r in radii:
            for t in thetas:
                if t in (0.0, math.pi):
                    points.append(bloch_density(r, t, 0.0))
                    continue
                for p in phis:
                    points.append(bloch_density(r, t, p))
    return np.stack(points)


def _sobol_grid(dim: int, count: int, seed: int = 7) -> np.ndarray:
    """Low-discrepancy sample of density matrices via Gaussian-mapped Sobol
    points pushed through the Ginibre construction."""
    n_params = 2 * dim * dim
    sampler = qmc.Sobol(d=n_params, scramble=True, seed=seed)
    u = sampler.random_base2(max(1, math.ceil(math.log2(count))))
    count = len(u)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    from scipy.special import ndtri

    z = ndtri(u).reshape(count, dim, 2 * dim)
    g = z[:, :, :dim] + 1j * z[:, :, dim:]
    mats = g @ np.conj(np.swapaxes(g, 1, 2))
    traces = np.real(np.einsum("kii->k", mats))
    out = mats / traces[:, None, None]
    extra = [np.eye(dim) / dim]
    return np.concatenate([out, np.stack(extra)])


def _grid_for_dim(dim: int, resolution: int) -> np.ndarray:
    if dim == 2:
        return _qubit_grid(resolution)
    if dim == 3:
        return _sobol_grid(3, resolution**3)
    raise UnsupportedRegimeError(
        f"exhaustive search supports local dimension <= 3, got {dim}"
    )


def _batched_values(alpha: float, rho: BipartiteState, sigmas: np.ndarray) -> np.ndarray:
    """Objective values min_tau D_alpha(rho || sigma_k x tau) for all sigma_k.

    Vectorized: sigma^(1-alpha) by batched eigendecomposition, the partial
    trace by one einsum, tau-minimization through batched eigenvalues.
    """
    d_a, d_b = rho.d_a, rho.d_b
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return _batched_values_alpha_one(rho, sigmas)
    vals, vecs = np.linalg.eigh(sigmas)
    vals = np.clip(vals, 0.0, None)
    cut = d_a * np.max(vals, axis=1, keepdims=True) * np.finfo(float).eps
    powered = np.where(vals > cut, vals, 1.0) ** (1.0 - alpha)
    powered = np.where(vals > cut, powered, 0.0)
    s_pow = np.einsum("kij,kj,klj->kil", vecs, powered, vecs.conj())
    r = power_on_support(rho, alpha).matrix.reshape(d_a, d_b, d_a, d_b)
    m = np.einsum("ibjd,kji->kbd", r, s_pow)
    m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    ev = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    s = np.sum(ev ** (1.0 / alpha), axis=1)
    out = np.full(len(sigmas), math.inf)
    pos = s > 0
    out[pos] = (alpha / (alpha - 1.0)) * np.log(s[pos])
    if alpha > 1:
        # finite only when supp(rho_A) <= supp(sigma); rank-deficient grid
        # points otherwise yield a meaningless finite number
        proj = np.einsum("kij,kj,klj->kil", vecs, (vals > cut).astype(float), vecs.conj())
        leak = 1.0 - np.real(np.einsum("ij,kji->k", rho.marginal_a.matrix, proj))
        out[leak > 1e-12] = math.inf
    return out


def _batched_values_alpha_one(rho: BipartiteState, sigmas: np.ndarray) -> np.ndarray:
    """min_tau D(rho || sigma x tau) = tr[rho log rho] - tr[rho_A log sigma] + H(rho_B)
    minimized at tau = rho_B; infinite when supp(rho_A) exceeds supp(sigma)."""
    from .divergences import renyi_entropy
    from .linalg import log_on_support

    rho_a = rho.marginal_a.matrix
    h_b = renyi_entropy(1.0, rho.marginal_b)
    cutoff = default_cutoff(rho)
    spec = np.clip(rho.spectrum, 0.0, None)
    spec = spec[spec > cutoff]
    tr_rho_log_rho = float(np.sum(spec * np.log(spec)))
    out = np.empty(len(sigmas))
    for k, s in enumerate(sigmas):
        s_op = DensityOperator(s)
        proj = power_on_support(s_op, 0.0).matrix
        leak = np.real(np.trace(rho_a @ (np.eye(rho.d_a) - proj)))
        if leak > 1e-12:
            out[k] = math.inf
            continue
        log_s = log_on_support(s_op).matrix
        out[k] = tr_rho_log_rho - float(np.real(np.trace(rho_a @ log_s))) + h_b
    return out


def _value_alpha_zero(rho: BipartiteState, sigmas: np.ndarray) -> np.ndarray:
    """D_0(rho || sigma x tau) minimized over tau:
    -log lambda_max(tr_A[rho^0 (sigma x 1)])."""
    proj = power_on_support(rho, 0.0).matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    m = np.einsum("ibjd,kji->kbd", proj, sigmas)
    m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    top = np.max(np.linalg.eigvalsh(m), axis=1)
    out = np.full(len(sigmas), math.inf)
    pos = top > 0
    out[pos] = -np.log(top[pos])
    return out


def _refine_qubit(alpha: float, rho: BipartiteState, best_sigma: np.ndarray, values_fn, steps: int = 3):
    """Shrinking coordinate-box search in Bloch coordinates around a grid
    optimum."""
    def bloch_vector(sigma):
        return np.real(np.array([
            np.trace(sigma @ _PAULI_X),
            np.trace(sigma @ _PAULI_Y),
            np.trace(sigma @ _PAULI_Z),
        ]))

    n = bloch_vector(best_sigma)
    width = 0.15
    best = None
    best_val = math.inf
    for _ in range(steps):
        offsets = np.linspace(-width, width, 7)
        cands = []
        for dx in offsets:
            for dy in offsets:
                for dz in offsets:
                    v = n + np.array([dx, dy, dz])
                    norm = np.linalg.norm(v)
                    if norm > 1.0:
                        v = v / norm
                    cands.append(
                        (np.eye(2) + v[0] * _PAULI_X + v[1] * _PAULI_Y + v[2] * _PAULI_Z) / 2
                    )
        cands = np.stack(cands)
        vals = values_fn(alpha, rho, cands)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best = cands[k]
            n = bloch_vector(best)
        width /= 4
    return best_val, best


def brute_force_dd(
    alpha: float,
    rho: BipartiteState,
    resolution: int = DEFAULT_RESOLUTION,
) -> tuple[float, DensityOperator | None, DensityOperator | None]:
    """Grid-search value of min_{sigma, tau} D_alpha(rho || sigma x tau).

    Returns (value, sigma_A, tau_B). sigma ranges over the grid; tau is exact
    given sigma. One local refinement pass is run around the best qubit grid
    point.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise DomainError(f"Renyi order must be a finite nonnegative real, got {alpha!r}")
    # rho_A is where the singly minimized value sits, so the estimate never exceeds it
    sigmas = np.concatenate([_grid_for_dim(rho.d_a, resolution), rho.marginal_a.matrix[None]])
    if alpha == 0:
        values_fn = lambda a, r, s: _value_alpha_zero(r, s)
    else:
        values_fn = _batched_values
    vals = values_fn(alpha, rho, sigmas)
    k = int(np.argmin(vals))
    best_val = float(vals[k])
    best_sigma = sigmas[k]
    if rho.d_a == 2:
        refined_val, refined_sigma = _refine_qubit(alpha, rho, best_sigma, values_fn)
        if refined_val < best_val:
            best_val, best_sigma = refined_val, refined_sigma
    if not np.isfinite(best_val):
        return math.inf, None, None
    sigma = DensityOperator(best_sigma)
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return best_val, sigma, rho.marginal_b
    from .prmi import gen_prmi_down

    _, tau = gen_prmi_down(alpha, rho, sigma)
    return best_val, sigma, tau

"""Differential and regression tests of the one small-alpha product-state search
(`oracle._grid_refine`) against test-local copies of the per-point searches it
replaced: the Bloch-grid loop with its qubit refinement, the classical simplex
loop with its box refinement, and the per-candidate alpha = 1 objective. The
qubit reference evaluates candidates with the library's `_batched_values`, so
the comparison isolates the search; the 3x3 reference needed scipy and is kept
as recorded values. The grid objectives, which now share the closed form
`divergences._one_sided_min` with the solver, are checked against copies of
the closed forms they wrote out before."""

import functools
import itertools
import math

import numpy as np
import pytest

from petzmi.classical import _SIMPLEX_STEPS, _down_values, _simplex_grid, rmi_down_down
from petzmi.divergences import SUPPORT_OVERLAP_TOL, renyi_entropy
from petzmi.errors import DomainError
from petzmi.linalg import power_on_support, spectral_power
from petzmi.oracle import (
    _batched_values,
    _batched_values_alpha_one,
    _ginibre_grid,
    _qubit_grid,
    _weights_and_leak,
    brute_force_dd,
)
from petzmi.prmi import prmi_up_down
from petzmi.states import DensityOperator, Pmf, random_bipartite
from reference import _down_value_and_optimal_q, log_on_support

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# --- reference: the per-point qubit search -------------------------------

def loop_bloch_density(r, theta, phi):
    n = r * np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])
    return (np.eye(2) + n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]) / 2


@functools.lru_cache(maxsize=None)
def loop_qubit_grid(resolution):
    points = [np.eye(2) / 2]
    if resolution > 1:
        radii = np.linspace(0.0, 1.0, resolution)[1:]
        thetas = np.linspace(0.0, math.pi, resolution)
        phis = np.linspace(0.0, 2 * math.pi, 2 * resolution, endpoint=False)
        for r in radii:
            for t in thetas:
                if t in (0.0, math.pi):
                    points.append(loop_bloch_density(r, t, 0.0))
                    continue
                for p in phis:
                    points.append(loop_bloch_density(r, t, p))
    return np.stack(points)


def loop_refine_qubit(best_sigma, values_fn, steps=3):
    def bloch_vector(sigma):
        return np.real(np.array([np.trace(sigma @ p) for p in PAULIS]))

    n = bloch_vector(best_sigma)
    width = 0.15
    best, best_val = None, math.inf
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
                    cands.append((np.eye(2) + v[0] * PAULIS[0] + v[1] * PAULIS[1] + v[2] * PAULIS[2]) / 2)
        cands = np.stack(cands)
        vals = values_fn(cands)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best = float(vals[k]), cands[k]
            n = bloch_vector(best)
        width /= 4
    return best_val


def loop_qubit_dd(alpha, rho, resolution):
    sigmas = np.concatenate([loop_qubit_grid(resolution), rho.marginal_a.matrix[None]])
    values_fn = functools.partial(_batched_values, alpha, rho)
    vals = values_fn(sigmas)
    k = int(np.argmin(vals))
    return min(float(vals[k]), loop_refine_qubit(sigmas[k], values_fn))


# --- reference: the per-point classical simplex search --------------------

def loop_classical_small_alpha(alpha, table):
    d = table.shape[0]

    def value_for_r(r):
        if alpha == 0:
            col = np.where(table > 0, r[:, None], 0.0).sum(axis=0)
            best = float(np.max(col))
            return math.inf if best <= 0 else -math.log(best)
        return _down_value_and_optimal_q(alpha, table, r)[0]

    best_val, best_r = math.inf, None
    for combo in itertools.combinations_with_replacement(range(d), 60):
        r = np.bincount(combo, minlength=d) / 60
        val = value_for_r(r)
        if val < best_val:
            best_val, best_r = val, r
    width = 1.0 / 60
    for _ in range(3):
        base = best_r
        for delta in itertools.product(np.linspace(-width, width, 9), repeat=d):
            r = base + np.asarray(delta)
            if np.min(r) < 0 or r.sum() <= 0:
                continue
            r = r / r.sum()
            val = value_for_r(r)
            if val < best_val:
                best_val, best_r = val, r
        width /= 4
    return best_val


# --- reference: the per-candidate alpha = 1 objective --------------------

def loop_values_alpha_one(rho, sigmas):
    rho_a = rho.marginal_a.matrix
    h_b = renyi_entropy(1.0, rho.marginal_b)
    spec = np.clip(rho.spectrum, 0.0, None)
    spec = spec[spec > rho.dim * np.max(np.abs(rho.spectrum)) * np.finfo(float).eps]
    tr_rho_log_rho = float(np.sum(spec * np.log(spec)))
    out = np.empty(len(sigmas))
    for k, s in enumerate(sigmas):
        s_op = DensityOperator(s)
        proj = power_on_support(s_op, 0.0).matrix
        leak = np.real(np.trace(rho_a @ (np.eye(rho.d_a) - proj)))
        if leak > 1e-12:
            out[k] = math.inf
            continue
        out[k] = tr_rho_log_rho - float(np.real(np.trace(rho_a @ log_on_support(s_op).matrix))) + h_b
    return out


# --- reference: the grid objectives' own copies of the closed form --------

def written_out_value_alpha_zero(rho, sigmas):
    proj = power_on_support(rho, 0.0).matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    m = np.einsum("ibjd,kji->kbd", proj, sigmas)
    m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    top = np.max(np.linalg.eigvalsh(m), axis=1)
    out = np.full(len(sigmas), math.inf)
    pos = top > 0
    out[pos] = -np.log(top[pos])
    return out


def written_out_batched_values(alpha, rho, sigmas):
    d_a, d_b = rho.d_a, rho.d_b
    if alpha == 0:
        return written_out_value_alpha_zero(rho, sigmas)
    vals, vecs = np.linalg.eigh(sigmas)
    s_pow = np.einsum("kij,kj,klj->kil", vecs, spectral_power(vals, 1.0 - alpha), vecs.conj())
    r = power_on_support(rho, alpha).matrix.reshape(d_a, d_b, d_a, d_b)
    m = np.einsum("ibjd,kji->kbd", r, s_pow)
    m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    ev = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    s = np.sum(ev ** (1.0 / alpha), axis=1)
    out = np.full(len(sigmas), math.inf)
    pos = s > 0
    out[pos] = (alpha / (alpha - 1.0)) * np.log(s[pos])
    if alpha > 1:
        _, leak = _weights_and_leak(rho, vals, vecs)
        out[leak > SUPPORT_OVERLAP_TOL] = math.inf
    return out


def written_out_small_alpha_values(alpha, table, sigmas):
    r = np.clip(np.real(np.diagonal(sigmas, axis1=1, axis2=2)), 0.0, None)
    if alpha == 0:
        s, scale = np.max(r @ (table > 0), axis=1), -1.0
    else:
        s = np.sum((r ** (1.0 - alpha) @ table**alpha) ** (1.0 / alpha), axis=1)
        scale = alpha / (alpha - 1.0)
    out = np.full(len(r), math.inf)
    pos = s > 0
    out[pos] = scale * np.log(s[pos])
    return out


def assert_same_values(got, ref):
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.max(np.abs(got[finite] - ref[finite]), initial=0.0) <= 1e-12


SHARED_FORM_ALPHAS = [0.0, 0.1, 0.25, 0.5, 0.75, 1.5, 2.0]


@pytest.mark.parametrize("alpha", SHARED_FORM_ALPHAS)
def test_qubit_grid_objective_matches_written_out_form(alpha):
    sigmas = _qubit_grid(6)  # includes the pure states of the r = 1 shell
    # rank-deficient states too: for full-rank ones rho^0 = 1 and M = 1 at alpha = 0
    for rho in [random_bipartite(2, 2, seed, rank=rank) for seed in range(3) for rank in (None, 2)]:
        assert_same_values(_batched_values(alpha, rho, sigmas),
                           written_out_batched_values(alpha, rho, sigmas))


@pytest.mark.parametrize("alpha", SHARED_FORM_ALPHAS)
def test_qutrit_grid_objective_matches_written_out_form(alpha):
    sigmas = _ginibre_grid(3, 500)
    for rho in [random_bipartite(3, 3, seed, rank=rank) for seed in range(2) for rank in (None, 4)]:
        assert_same_values(_batched_values(alpha, rho, sigmas),
                           written_out_batched_values(alpha, rho, sigmas))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_grid_equals_the_filtered_cube_byte_for_byte(d):
    """The grid of the classical search, enumerated as compositions of
    _SIMPLEX_STEPS, against the (_SIMPLEX_STEPS + 1)^d cube of counts it was
    filtered from before: the same pmfs in the same order, bit for bit."""
    counts = np.indices((_SIMPLEX_STEPS + 1,) * d).reshape(d, -1).T
    pmfs = counts[counts.sum(axis=1) == _SIMPLEX_STEPS] / _SIMPLEX_STEPS
    cube = pmfs[:, :, None] * np.eye(d)
    grid = _simplex_grid(d)
    assert grid.shape == cube.shape and grid.dtype == cube.dtype
    assert grid.tobytes() == cube.tobytes()
    assert _simplex_grid(d) is grid and not grid.flags.writeable


@pytest.mark.parametrize("alpha", SHARED_FORM_ALPHAS)
def test_simplex_objective_matches_written_out_form(alpha):
    steps = 30
    rng = np.random.default_rng(77)
    for d in (2, 3):
        counts = np.indices((steps + 1,) * d).reshape(d, -1).T
        sigmas = (counts[counts.sum(axis=1) == steps] / steps)[:, :, None] * np.eye(d)
        for _ in range(3):
            table = rng.random((d, 3))
            table[0, 1] = 0.0  # a hole in the support, which alpha = 0 sees
            table /= table.sum()
            # above alpha = 1 a boundary r raises 0 to a negative power: inf
            # in both forms, as D_alpha is; the search only runs alpha <= 1/2
            with np.errstate(divide="ignore", invalid="ignore"):
                got = _down_values(alpha, table, sigmas)[0]
                ref = written_out_small_alpha_values(alpha, table, sigmas)
            assert_same_values(got, ref)


# brute_force_dd(alpha, random_bipartite(3, 3, seed)) at alpha = 0, 0.25, 0.5,
# 0.75 from the 16,385-point scrambled Sobol grid (scipy 1.17.1, seed 7) with
# rho_A as one more candidate and no refinement, which this search replaced
SOBOL_3X3 = {
    0: (-1.7763568394002489e-15, 0.14012467144494029, 0.22688302577224428, 0.2900215285751727),
    1: (-2.2204460492503107e-15, 0.16597883829340715, 0.27991679011391574, 0.36917260975447985),
    2: (-2.8865798640254027e-15, 0.1617864501421523, 0.2823445341828132, 0.3749051488473687),
    3: (-1.7763568394002489e-15, 0.18186701885068138, 0.29999794253590223, 0.3857687572076106),
}


@pytest.mark.parametrize("resolution", [1, 2, 6, 24])
def test_bloch_grid_matches_loop_bit_for_bit(resolution):
    got = _qubit_grid(resolution)
    ref = loop_qubit_grid(resolution)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9])
def test_qubit_search_no_worse_than_loop(alpha):
    for seed in range(20):
        rho = random_bipartite(2, 2, seed)
        value, _, _ = brute_force_dd(alpha, rho, resolution=12)
        assert value <= loop_qubit_dd(alpha, rho, 12) + 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 0.5])
def test_classical_search_no_worse_than_loop(alpha):
    rng = np.random.default_rng(515)
    for d_x in (2, 3):
        for _ in range(10):
            table = rng.random((d_x, 3))
            table /= table.sum()
            value, r, q = rmi_down_down(alpha, Pmf(table))
            assert value <= loop_classical_small_alpha(alpha, table) + 1e-12
            assert r.sum() == pytest.approx(1.0, abs=1e-12) and np.min(r) >= 0
            assert q.sum() == pytest.approx(1.0, abs=1e-12) and np.min(q) >= 0


@pytest.mark.parametrize("seed", sorted(SOBOL_3X3))
def test_qutrit_search_no_worse_than_sobol_grid(seed):
    rho = random_bipartite(3, 3, seed)
    for alpha, ref in zip((0.0, 0.25, 0.5, 0.75), SOBOL_3X3[seed]):
        value, _, _ = brute_force_dd(alpha, rho)
        assert value <= ref + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_qutrit_search_beats_up_down_below_half(seed):
    # the Sobol grid found no point below rho_A here, so its estimate was ud
    rho = random_bipartite(3, 3, seed)
    for alpha in (0.2, 0.3, 0.4, 0.5):
        value, _, _ = brute_force_dd(alpha, rho)
        assert value <= prmi_up_down(alpha, rho).as_float() - 1e-4


def test_batched_alpha_one_matches_loop(qubit_pair):
    sigmas = _qubit_grid(6)
    for rho in [qubit_pair] + [random_bipartite(2, 2, seed) for seed in range(10)]:
        stack = np.concatenate([sigmas, rho.marginal_a.matrix[None]])
        got = _batched_values_alpha_one(rho, stack)
        ref = loop_values_alpha_one(rho, stack)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.max(np.abs(got[finite] - ref[finite])) <= 1e-12


@pytest.mark.parametrize("d_a", [2, 3])
def test_resolution_zero_rejected(d_a):
    with pytest.raises(DomainError):
        brute_force_dd(0.8, random_bipartite(d_a, 3, 1), resolution=0)


def test_classical_search_rejects_orders_above_half():
    with pytest.raises(DomainError):
        rmi_down_down(0.6, Pmf(np.diag([0.2, 0.8])))

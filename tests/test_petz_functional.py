"""Differential tests of the spectral Petz functional.

Every Petz quantity in `petzmi.divergences` and `exponents.alpha_derivative` is a
Nussbaum-Szkola sum over the two eigensystems. The dense matrix-product forms
they replaced are kept here, test-local, and both are compared on random pairs
of every rank, including pairs on either side of the support tolerance: values
to 1e-12 * max(1, |x|), finiteness exactly. A divergence log(Q)/(alpha-1) may
also differ by the dense trace's rounding of Q, amplified by 1/(Q |alpha-1|).
"""

import math

import numpy as np
import pytest

from petzmi.divergences import (
    ALPHA_ONE_WINDOW,
    SUPPORT_OVERLAP_TOL,
    dominated,
    petz_divergence,
    relative_entropy,
    relative_entropy_variance,
    sandwiched_divergence,
)
from petzmi.errors import DomainError
from petzmi.exponents import alpha_derivative
from petzmi.linalg import power_on_support
from petzmi.prmi import PrmiSolution
from petzmi.states import BipartiteState, DensityOperator, random_density
from reference import log_on_support, petz_q, random_unitary, tensor_product

ALPHAS = (0.0, 0.3, 0.7, 1.0, 1.5, 2.0)


# -- the dense forms, as they were before the spectral functional -----------

def dense_dominated(rho, sigma):
    proj = power_on_support(sigma, 0.0).matrix
    leak = np.real(np.trace(rho.matrix @ (np.eye(sigma.dim) - proj)))
    return leak <= SUPPORT_OVERLAP_TOL


def dense_orthogonal(rho, sigma):
    pr = power_on_support(rho, 0.0).matrix
    ps = power_on_support(sigma, 0.0).matrix
    return float(np.real(np.trace(pr @ ps))) <= SUPPORT_OVERLAP_TOL


def dense_finite(alpha, rho, sigma):
    if alpha < 1:
        return not dense_orthogonal(rho, sigma)
    return dense_dominated(rho, sigma)


def dense_relative_entropy(rho, sigma):
    if not dense_dominated(rho, sigma):
        return math.inf
    diff = log_on_support(rho).matrix - log_on_support(sigma).matrix
    return float(np.real(np.trace(rho.matrix @ diff)))


def dense_variance(rho, sigma):
    d = dense_relative_entropy(rho, sigma)
    diff = log_on_support(rho).matrix - log_on_support(sigma).matrix
    root = power_on_support(rho, 0.5).matrix
    return float(np.linalg.norm(diff @ root, "fro") ** 2) - d**2


def dense_petz_q(alpha, rho, sigma):
    ra = power_on_support(rho, alpha).matrix
    sb = power_on_support(sigma, 1.0 - alpha).matrix
    return float(np.real(np.trace(ra @ sb)))


def dense_petz_divergence(alpha, rho, sigma):
    if not dense_finite(alpha, rho, sigma):
        return math.inf
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return dense_relative_entropy(rho, sigma)
    return math.log(dense_petz_q(alpha, rho, sigma)) / (alpha - 1.0)


def dense_alpha_derivative(alpha, rho, solution):
    omega = tensor_product(solution.sigma_a, solution.tau_b)
    rho_a = power_on_support(rho, alpha).matrix
    om_b = power_on_support(omega, 1.0 - alpha).matrix
    log_rho = log_on_support(rho).matrix
    log_om = log_on_support(omega).matrix
    q = float(np.real(np.trace(rho_a @ om_b)))
    q_prime = float(np.real(np.trace(rho_a @ log_rho @ om_b))) - float(
        np.real(np.trace(rho_a @ om_b @ log_om))
    )
    return -math.log(q) / (alpha - 1.0) ** 2 + q_prime / (q * (alpha - 1.0))


# -- random pairs ------------------------------------------------------------

def random_pair(seed):
    """(rho, sigma) of dimension 2-6 and ranks 1..d, by seed % 5: independent (0),
    supp(rho) inside supp(sigma) (1), orthogonal supports (2), rho leaking a
    weight eps off supp(sigma) (3), or a pure rho with overlap eps with
    supp(sigma) (4); eps lies on both sides of the support tolerance."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    kind = seed % 5
    if kind >= 2:
        k = int(rng.integers(1, dim))
        u = random_unitary(rng, dim)
        inside, outside = u[:, :k], u[:, k:]
        sigma = _on_columns(inside, random_density(k, rng, rank=int(rng.integers(1, k + 1))))
        rest = _on_columns(outside, random_density(dim - k, rng))
        eps = float(rng.choice([1e-12, 5e-11, 2e-10, 1e-9, 1e-6]))
        if kind == 2:
            return rest, sigma
        if kind == 3:
            rho = _on_columns(inside, random_density(k, rng, rank=int(rng.integers(1, k + 1))))
            return DensityOperator((1 - eps) * rho.matrix + eps * rest.matrix), sigma
        a, b = (_unit(rng, n) for n in (dim - k, k))
        psi = math.sqrt(1 - eps) * outside @ a + math.sqrt(eps) * inside @ b
        return DensityOperator(np.outer(psi, psi.conj())), sigma
    rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
    other = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
    if kind == 1:
        t = float(rng.uniform(0.1, 0.9))
        return rho, DensityOperator(t * rho.matrix + (1 - t) * other.matrix)
    return rho, other


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _on_columns(v, state):
    return DensityOperator(v @ state.matrix @ v.conj().T)


def close(a, b, slack=0.0):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * max(1.0, abs(b)) + slack


PAIRS = [random_pair(seed) for seed in range(75)]


def test_pairs_cover_every_kind():
    dims = {rho.dim for rho, _ in PAIRS}
    assert dims == {2, 3, 4, 5, 6}
    assert any(rho.rank() == 1 for rho, _ in PAIRS)
    assert any(rho.rank() == rho.dim for rho, _ in PAIRS)
    assert any(not dense_dominated(rho, sigma) for rho, sigma in PAIRS)
    assert any(dense_orthogonal(rho, sigma) for rho, sigma in PAIRS)
    leaks = [np.real(np.trace(rho.matrix @ (np.eye(rho.dim) - power_on_support(sigma, 0.0).matrix)))
             for rho, sigma in PAIRS]
    assert any(0 < x <= SUPPORT_OVERLAP_TOL for x in leaks)
    assert any(SUPPORT_OVERLAP_TOL < x < 1e-5 for x in leaks)


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_divergences_match_dense_forms(index):
    rho, sigma = PAIRS[index]
    assert dominated(rho, sigma) == dense_dominated(rho, sigma)
    for alpha in ALPHAS:
        got = petz_divergence(alpha, rho, sigma)
        want = dense_petz_divergence(alpha, rho, sigma)
        assert got.is_infinite == math.isinf(want), alpha
        q = dense_petz_q(alpha, rho, sigma)
        assert close(petz_q(alpha, rho, sigma), q), alpha
        # log(Q)/(alpha-1) turns the rounding of the dense trace Q, which
        # cancels down to Q ~ eps on nearly orthogonal pairs, into an error of
        # about 1e-16 / (Q |alpha-1|); the spectral Q is a sum of nonnegative terms
        slack = 0.0 if got.q_value is None else 1e-15 / (q * abs(alpha - 1.0))
        assert close(got.as_float(), want, slack), (alpha, got, want)
        if alpha > 0:
            assert sandwiched_divergence(alpha, rho, sigma).is_infinite == math.isinf(want)
    assert close(relative_entropy(rho, sigma).as_float(), dense_relative_entropy(rho, sigma))
    if dense_dominated(rho, sigma):
        assert close(relative_entropy_variance(rho, sigma), dense_variance(rho, sigma))
    else:
        with pytest.raises(DomainError):
            relative_entropy_variance(rho, sigma)


@pytest.mark.parametrize("seed", range(12))
def test_alpha_derivative_matches_dense_form(seed):
    rng = np.random.default_rng(1000 + seed)
    d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    rank = int(rng.integers(1, d_a * d_b + 1))
    rho = random_density(d_a * d_b, rng, rank=rank)
    rho = BipartiteState(rho.matrix, d_a, d_b)
    solution = PrmiSolution(
        value=0.0, alpha=0.0, sigma_a=random_density(d_a, rng), tau_b=random_density(d_b, rng),
        residual=0.0, iterations=0, objective_trace=(), certified=False, gap=0.0,
    )
    for alpha in (0.55, 0.7, 0.95, 1.05, 1.5, 2.0):
        got = alpha_derivative(alpha, rho, solution)
        want = dense_alpha_derivative(alpha, rho, solution)
        assert close(got, want), (alpha, got, want)

"""Product states from their factors, against the dense constructions they
replace: the cycle-sum universal state against the symmetric projector on
(C^d x C^d')^(x n) traced over the primed copies, and the Kronecker
eigensystems of omega_A x omega_B and of rho^(x n) against decompositions of
the dense products.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from petzmi import hypotest
from petzmi.hypotest import (
    achievability_sweep,
    iid_block,
    symmetric_type_count,
    test_errors as threshold_test_errors,
    universal_divergence_rate,
    universal_state,
)
from petzmi.linalg import permute_factors, tensor_product
from petzmi.states import (
    BipartiteState,
    DensityOperator,
    copy_cc_state,
    product_state,
    random_bipartite,
    random_density,
)

STATES = [copy_cc_state([0.2, 0.8]), random_bipartite(2, 2, 17), random_bipartite(2, 2, 18),
          random_bipartite(2, 2, 19, rank=2)]


def literal_universal_state(n, d):
    """omega_n from the symmetric projector (1/n!) sum_pi P_pi on
    (C^(d^2))^(x n), each factor the pair (system, primed copy) with index
    system * d + primed, traced over the primed copies and divided by
    g = C(n + d^2 - 1, n). P_pi has a 1 at (i, pi(i)), where pi(i) permutes the
    n factor indices of i; such an entry survives the trace when the primed
    halves of row and column agree on every factor. The (d^2)^n x (d^2)^n
    projector is summed entry by entry instead of being stored."""
    dd = d * d
    digits = np.array(list(itertools.product(range(dd), repeat=n))).reshape(-1, n)
    place = d ** np.arange(n - 1, -1, -1)
    omega = np.zeros((d**n, d**n))
    for perm in itertools.permutations(range(n)):
        cols = digits[:, list(perm)]
        kept = np.all(digits % d == cols % d, axis=1)
        np.add.at(omega, ((digits[kept] // d) @ place, (cols[kept] // d) @ place), 1.0)
    return omega / (math.factorial(n) * symmetric_type_count(n, dd))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cycle_sum_matches_literal_construction(n, d):
    omega = universal_state(n, d)
    assert np.max(np.abs(omega.matrix - literal_universal_state(n, d))) <= 1e-15
    assert omega.trace() == pytest.approx(1.0, abs=1e-14)


def counted_eigh(monkeypatch):
    """Record the shape of every matrix that eigh or eigvalsh decomposes."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return shapes


def test_product_state_carries_kronecker_eigensystem(monkeypatch):
    a, b = random_density(2, 1), random_density(3, 2, rank=2)
    shapes = counted_eigh(monkeypatch)
    prod = product_state(a, b)
    assert shapes == []
    assert np.array_equal(prod.matrix, tensor_product(a, b).matrix)
    vals, vecs = prod.spectrum, prod.eigenvectors
    assert np.all(np.diff(vals) <= 0)
    assert np.allclose((vecs * vals) @ vecs.conj().T, prod.matrix, atol=1e-15)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-14)


def dense_product(a, b):
    """The product as the parent formed it: a new operator, decomposed afresh."""
    return DensityOperator(np.kron(a.matrix, b.matrix))


def dense_iid_block(rho, n):
    """rho^(x n) without its eigensystem: the same matrix, decomposed afresh."""
    m = functools.reduce(np.kron, [rho.matrix] * n)
    order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    m = permute_factors(m, [rho.d_a, rho.d_b] * n, order)
    return BipartiteState(m, rho.d_a**n, rho.d_b**n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("index", range(len(STATES)))
def test_iid_block_carries_kronecker_eigensystem(index, n, monkeypatch):
    rho = STATES[index]
    shapes = counted_eigh(monkeypatch)
    block = iid_block(rho, n)
    assert shapes == []
    vals, vecs = block.spectrum, block.eigenvectors
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - block.matrix)) <= 1e-14
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(block.dim))) <= 1e-14
    kron_power = functools.reduce(np.kron, [rho.spectrum] * n)
    assert np.array_equal(vals, np.sort(kron_power)[::-1])
    dense = dense_iid_block(rho, n)
    assert np.array_equal(block.matrix, dense.matrix)
    assert np.array_equal(block.marginal_a.matrix, dense.marginal_a.matrix)
    assert np.array_equal(block.marginal_b.matrix, dense.marginal_b.matrix)


def test_iid_block_keeps_small_eigenvalues_accurate():
    # a dense eigh of rho^(x 4) errs by about eps * ||rho^(x 4)||, much more
    # than eps * lambda_min(rho)^4 relative to its smallest eigenvalue (on this
    # state 1e-10 to 3e-11 relative, by LAPACK build); the Kronecker power
    # keeps the relative accuracy of rho's eigenvalues
    mpmath = pytest.importorskip("mpmath")
    rho = random_bipartite(2, 2, 2)
    with mpmath.workdps(50):
        exact = mpmath.eigh(mpmath.matrix(rho.matrix.tolist()), eigvals_only=True)
        want = min(exact) ** 4
        carried = float(abs(iid_block(rho, 4).spectrum[-1] - want) / want)
    assert carried <= 1e-13


def assert_matches_reference(rho, monkeypatch, name, reference):
    """test_errors, universal_divergence_rate and achievability_sweep agree to
    rel 1e-12 when hypotest's `name` is replaced by `reference`."""
    cases = [(n, s) for n in (1, 2, 3) for s in (0.2, 0.6, 0.9)]
    got = [threshold_test_errors(rho, n, 0.1, s) for n, s in cases]
    rates = [universal_divergence_rate(rho, s, n) for n, s in cases]
    sweep = achievability_sweep(rho, 0.1, 3)
    monkeypatch.setattr(hypotest, name, reference)
    for (n, s), errs, rate in zip(cases, got, rates):
        ref = threshold_test_errors(rho, n, 0.1, s)
        for field in ("log_threshold", "type_one", "type_two_bound", "type_one_bound"):
            assert getattr(errs, field) == pytest.approx(getattr(ref, field), rel=1e-12), field
        assert rate == pytest.approx(universal_divergence_rate(rho, s, n), rel=1e-12)
    ref_sweep = achievability_sweep(rho, 0.1, 3)
    assert sweep["asymptotic_exponent"] == ref_sweep["asymptotic_exponent"]
    for row, ref_row in zip(sweep["per_n"], ref_sweep["per_n"], strict=True):
        assert row.keys() == ref_row.keys()
        for key in row:
            assert row[key] == pytest.approx(ref_row[key], rel=1e-12), key


@pytest.mark.parametrize("index", range(len(STATES)))
def test_universal_test_matches_dense_alternative(index, monkeypatch):
    assert_matches_reference(STATES[index], monkeypatch, "product_state", dense_product)


@pytest.mark.parametrize("index", range(len(STATES)))
def test_universal_test_matches_dense_block(index, monkeypatch):
    assert_matches_reference(STATES[index], monkeypatch, "iid_block", dense_iid_block)


def test_errors_decomposes_one_block(monkeypatch):
    rho = random_bipartite(2, 2, 17)
    shapes = counted_eigh(monkeypatch)
    threshold_test_errors(rho, 3, 0.1, 0.6)
    # only the Neyman-Pearson difference: rho^(x 3) carries the Kronecker power
    # of rho's eigensystem, and omega_A x omega_B that of its 8 x 8 factors,
    # which are decomposed at most once per (n, d)
    assert [shape for shape in shapes if max(shape) >= 64] == [(64, 64)]

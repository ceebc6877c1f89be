"""Product states from their factors, against the dense constructions they
replace: the cycle-sum universal state against the symmetric projector on
(C^d x C^d')^(x n) traced over the primed copies, and the Kronecker
eigensystem of omega_A x omega_B against a decomposition of the dense product.
"""

import itertools
import math

import numpy as np
import pytest

from petzmi import hypotest
from petzmi.hypotest import (
    symmetric_type_count,
    test_errors as threshold_test_errors,
    universal_divergence_rate,
    universal_state,
)
from petzmi.linalg import tensor_product
from petzmi.states import (
    DensityOperator,
    copy_cc_state,
    product_state,
    random_bipartite,
    random_density,
)

STATES = [copy_cc_state([0.2, 0.8]), random_bipartite(2, 2, 17), random_bipartite(2, 2, 18)]


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


@pytest.mark.parametrize("index", range(len(STATES)))
def test_universal_test_matches_dense_alternative(index, monkeypatch):
    rho = STATES[index]
    cases = [(n, s) for n in (1, 2, 3) for s in (0.2, 0.6, 0.9)]
    got = [threshold_test_errors(rho, n, 0.1, s) for n, s in cases]
    rates = [universal_divergence_rate(rho, s, n) for n, s in cases]
    monkeypatch.setattr(hypotest, "product_state", dense_product)
    for (n, s), errs, rate in zip(cases, got, rates):
        ref = threshold_test_errors(rho, n, 0.1, s)
        for field in ("log_threshold", "type_one", "type_two_bound", "type_one_bound"):
            assert getattr(errs, field) == pytest.approx(getattr(ref, field), rel=1e-12), field
        assert rate == pytest.approx(universal_divergence_rate(rho, s, n), rel=1e-12)


def test_errors_decomposes_two_blocks(monkeypatch):
    rho = random_bipartite(2, 2, 17)
    shapes = counted_eigh(monkeypatch)
    threshold_test_errors(rho, 3, 0.1, 0.6)
    # rho^(x 3) and the Neyman-Pearson difference; omega_A x omega_B takes the
    # eigensystems of its 8 x 8 factors
    assert shapes.count((64, 64)) == 2
    assert set(shapes) == {(64, 64), (8, 8)}

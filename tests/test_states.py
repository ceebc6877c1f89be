import math
import warnings

import numpy as np
import pytest

from petzmi.errors import InvalidInputError
from petzmi.linalg import PSD_TOL
from petzmi.prmi import gen_prmi_down, prmi_down_down
from petzmi.states import (
    TRACE_TOL,
    BipartiteState,
    DensityOperator,
    Pmf,
    cc_state,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
    random_density,
)
from reference import eager_density, partial_trace_factors, purify, tensor_states


def test_density_validation_trace():
    with pytest.raises(InvalidInputError, match="trace"):
        DensityOperator(np.diag([0.6, 0.6]))


def test_density_validation_negativity():
    with pytest.raises(InvalidInputError, match="negative"):
        DensityOperator(np.diag([1.5, -0.5]))


def held_eigensystems():
    """Eigensystems as the solver holds them: ascending from eigh, one by one
    and as rows of a stack, and the minimizers of solved rows."""
    rng = np.random.default_rng(31)
    stack = np.array([random_density(3, rng, rank=r).matrix for r in (1, 2, 3)])
    vals, vecs = np.linalg.eigh(stack)
    systems = [(vals[j], vecs[j]) for j in range(3)]
    systems += [np.linalg.eigh(random_density(d, rng).matrix) for d in (2, 4)]
    rho = random_bipartite(2, 3, 9)
    for alpha in (0.3, 0.7, 1.4):
        sol = prmi_down_down(alpha, rho)
        systems += [op._eigensystem for op in (sol.sigma_a, sol.tau_b)]
    systems.append(gen_prmi_down(0.8, rho, rho.marginal_a)[1]._eigensystem)
    return systems


def test_operator_from_an_eigensystem_matches_the_eager_one():
    """The matrix composed on first read is bit for bit the one composed,
    validated and symmetrized at construction; dim, spectrum and eigenvectors
    are read without composing it."""
    for vals, vecs in held_eigensystems():
        lazy = DensityOperator.from_eigensystem(vals, vecs)
        eager = eager_density(vals, vecs)
        assert lazy._matrix is None
        assert lazy.dim == eager.dim
        assert np.array_equal(lazy.spectrum, eager.spectrum)
        assert np.array_equal(lazy.eigenvectors, eager.eigenvectors)
        assert lazy._matrix is None
        assert np.array_equal(lazy.matrix, eager.matrix)
        assert lazy.matrix.dtype == complex and not lazy.matrix.flags.writeable


@pytest.mark.parametrize("vals, match", [
    (np.array([-2 * PSD_TOL, 0.4, 0.6 + 2 * PSD_TOL]), "negative"),
    (np.array([0.2, 0.8 + 2 * TRACE_TOL]), "trace"),
    (np.array([0.2, 0.8 - 2 * TRACE_TOL]), "trace"),
])
def test_operator_from_an_eigensystem_checks_its_eigenvalues(vals, match):
    vecs = np.linalg.qr(np.random.default_rng(3).standard_normal((vals.size, vals.size)))[0]
    with pytest.raises(InvalidInputError, match=match):
        DensityOperator.from_eigensystem(vals, vecs.astype(complex))
    # within the tolerances it is accepted
    DensityOperator.from_eigensystem(np.array([-0.5 * PSD_TOL, 0.3, 0.7]), np.eye(3, dtype=complex))
    DensityOperator.from_eigensystem(np.array([0.3, 0.7 + 0.5 * TRACE_TOL]), np.eye(2, dtype=complex))


def test_density_validation_hermiticity():
    with pytest.raises(InvalidInputError, match="Hermitian"):
        DensityOperator([[0.5, 0.5], [0.0, 0.5]])


def test_marginals_of_product():
    a = random_density(2, 1)
    b = random_density(3, 2)
    rho = BipartiteState(np.kron(a.matrix, b.matrix), 2, 3)
    assert np.allclose(rho.marginal_a.matrix, a.matrix, atol=1e-12)
    assert np.allclose(rho.marginal_b.matrix, b.matrix, atol=1e-12)


def test_pure_state_normalizes():
    rho = pure_bipartite([1.0, 0.0, 0.0, 1.0], 2, 2)  # unnormalized Bell vector
    assert rho.is_pure()
    assert rho.trace() == pytest.approx(1.0)
    assert np.allclose(rho.marginal_a.matrix, np.eye(2) / 2, atol=1e-12)


def test_cc_state_diagonal_roundtrip():
    table = np.array([[0.1, 0.2], [0.3, 0.4]])
    rho = cc_state(Pmf(table))
    back = rho.diagonal_pmf_or_none()
    assert back is not None
    assert np.allclose(back.table, table)


def test_copy_cc_marginals():
    rho = copy_cc_state([0.2, 0.8])
    assert np.allclose(rho.marginal_a.matrix, np.diag([0.2, 0.8]))
    assert np.allclose(rho.marginal_b.matrix, np.diag([0.2, 0.8]))


def test_random_density_is_reproducible():
    a = random_density(4, 11)
    b = random_density(4, 11)
    assert np.allclose(a.matrix, b.matrix)


def test_purify_recovers_state():
    rho = random_density(3, 5, rank=2)
    psi, d_c = purify(rho)
    assert d_c == 2
    full = np.outer(psi, psi.conj())
    reduced = partial_trace_factors(full, [3, d_c], [0])
    assert np.allclose(reduced, rho.matrix, atol=1e-10)


def test_tensor_states_regroups_marginals():
    rho = random_bipartite(2, 2, 3)
    tau = random_bipartite(2, 2, 4)
    joint = tensor_states(rho, tau)
    assert joint.d_a == 4 and joint.d_b == 4
    expected_a = np.kron(rho.marginal_a.matrix, tau.marginal_a.matrix)
    assert np.allclose(joint.marginal_a.matrix, expected_a, atol=1e-10)


def test_pmf_rejects_negative():
    with pytest.raises(InvalidInputError):
        Pmf(np.array([[1.2, -0.2], [0.0, 0.0]]))


@pytest.mark.parametrize("matrix", [
    np.array([[np.nan]]),
    np.array([[0.5, np.inf], [np.inf, 0.5]]),
    np.diag([0.5, 0.5 + 1j * np.nan]),
    np.empty((0, 0)),
], ids=["nan", "inf", "complex-nan", "empty"])
def test_density_validation_rejects_non_finite_and_empty_matrices(matrix):
    with pytest.raises(InvalidInputError, match="finite|nonempty"):
        DensityOperator(matrix)


@pytest.mark.parametrize("make", [
    lambda: Pmf(np.array([[0.5, np.nan], [0.5, 0.0]])),
    lambda: cc_state(np.array([[np.nan, 0.5], [0.5, 0.0]])),
    lambda: pure_bipartite([1.0, np.nan, 0.0, 0.0], 2, 2),
    lambda: pure_bipartite([1.0, np.inf, 0.0, 0.0], 2, 2),
], ids=["pmf", "cc-state", "amplitudes-nan", "amplitudes-inf"])
def test_non_finite_pmfs_and_amplitudes_are_rejected(make):
    with pytest.raises(InvalidInputError, match="finite"):
        make()


def test_amplitudes_beyond_the_square_root_of_the_float_range_are_scaled():
    """|v|^2 overflows above about 1e154: the amplitudes are divided by a power
    of 2 first, which changes no bit of the state."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = pure_bipartite([1e200, 1e200, 0, 0], 2, 2)
    assert np.array_equal(big.matrix, pure_bipartite([1, 1, 0, 0], 2, 2).matrix)


def test_pmf_marginals_sum():
    pmf = Pmf(np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert pmf.marginal_x.sum() == pytest.approx(1.0)
    assert math.isclose(pmf.marginal_y[1], 0.6)


@pytest.mark.parametrize("make, match", [
    (lambda: BipartiteState(np.eye(2) / 2, 0, 2), "positive"),
    (lambda: BipartiteState(np.eye(4) / 4, 2, 3), "does not match"),
    (lambda: Pmf(np.array([0.5, 0.5])), "two-dimensional"),
    (lambda: pure_bipartite([1.0, 0.0, 0.0], 2, 2), "length 3"),
])
def test_malformed_shapes_are_rejected(make, match):
    with pytest.raises(InvalidInputError, match=match):
        make()

import math

import numpy as np
import pytest

from petzmi.errors import InvalidInputError
from petzmi.linalg import HermitianOperator, power_on_support
from reference import geometric_mean, nonnegative_part_projector, permute_factors, trace_distance


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


def random_psd(rng, dim, rank=None):
    k = rank or dim
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return HermitianOperator(g @ g.conj().T)


def test_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        HermitianOperator([[0, 1], [0, 0]])


def test_rejects_non_square():
    with pytest.raises(InvalidInputError):
        HermitianOperator(np.zeros((2, 3)))


def test_spectrum_descending(rng):
    op = random_hermitian(rng, 5)
    assert np.all(np.diff(op.spectrum) <= 0)
    # reconstruction
    recon = (op.eigenvectors * op.spectrum) @ op.eigenvectors.conj().T
    assert np.allclose(recon, op.matrix)


def test_support_projector_rank(rng):
    op = random_psd(rng, 4, rank=2)
    proj = power_on_support(op, 0.0).matrix
    assert abs(np.trace(proj).real - 2.0) < 1e-8
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    assert np.allclose(proj @ op.matrix, op.matrix, atol=1e-8)


def test_power_on_support_inverse(rng):
    op = random_psd(rng, 4, rank=3)
    inv = power_on_support(op, -1.0)
    proj = power_on_support(op, 0.0)
    assert np.allclose(inv.matrix @ op.matrix, proj.matrix, atol=1e-8)


def test_power_zero_is_projector(rng):
    op = random_psd(rng, 5, rank=2)
    p = power_on_support(op, 0.0)
    assert abs(p.trace() - 2.0) < 1e-8


def test_power_rejects_indefinite():
    with pytest.raises(InvalidInputError):
        power_on_support(HermitianOperator(np.diag([1.0, -1.0])), 0.5)


def test_permute_factors_swap(rng):
    a = random_hermitian(rng, 2).matrix
    b = random_hermitian(rng, 3).matrix
    ab = np.kron(a, b)
    ba = permute_factors(ab, [2, 3], [1, 0])
    assert np.allclose(ba, np.kron(b, a))


def test_nonnegative_part_projector_diagonal():
    x = HermitianOperator(np.diag([2.0, 1.0, 0.0]))
    y = HermitianOperator(np.diag([1.0, 3.0, 0.0]))
    p = nonnegative_part_projector(x, y)
    # X - Y = diag(1, -2, 0): eigenvalues {1, 0} are kept
    assert abs(p.trace() - 2.0) < 1e-10
    assert np.allclose(p.matrix, np.diag([1.0, 0.0, 1.0]))


def test_geometric_mean_commuting():
    x = np.diag([4.0, 9.0])
    y = np.diag([1.0, 4.0])
    g = geometric_mean(x, y)
    assert np.allclose(g.matrix, np.diag([2.0, 6.0]), atol=1e-10)


def test_geometric_mean_singular_extrapolation():
    # rank-one inputs: X # X should recover X even through the eps limit
    v = np.array([1.0, 2.0]) / math.sqrt(5.0)
    x = np.outer(v, v)
    g = geometric_mean(x, x)
    assert np.allclose(g.matrix, x, atol=1e-4)


def test_geometric_mean_symmetry(rng):
    x = random_psd(rng, 3)
    y = random_psd(rng, 3)
    assert np.allclose(
        geometric_mean(x, y).matrix, geometric_mean(y, x).matrix, atol=1e-8
    )


def test_trace_distance_orthogonal_pure():
    x = np.diag([1.0, 0.0])
    y = np.diag([0.0, 1.0])
    assert trace_distance(x, y) == pytest.approx(1.0)

"""The Gelfand-Tsetlin basis of `hypotest.symmetry_basis`: orthonormal, one
block per standard Young tableau of the size of its U(d_A d_B) irrep, and
block diagonalizing rho^(x n) and omega_A x omega_B."""

import math

import numpy as np
import pytest

from petzmi.hypotest import iid_block, symmetric_blocks, symmetry_basis
from petzmi.states import BipartiteState, copy_cc_state, random_bipartite

CASES = [(1, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 2)]


def partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def irrep_block_sizes(n, d):
    """dim U_lambda(d) once per standard tableau of each shape lambda of n:
    the hook-content formula, repeated f^lambda = n! / prod(hooks) times."""
    sizes = []
    for shape in partitions(n):
        cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]
        hooks = [shape[i] - j + cols[j] - i - 1 for i, j in boxes]
        dim = math.prod(d + j - i for i, j in boxes) // math.prod(hooks)
        sizes += [dim] * (math.factorial(n) // math.prod(hooks)) if dim else []
    return sorted(sizes)


def off_block(basis, matrix):
    """The largest entry of Q^T matrix Q outside the diagonal blocks."""
    full = basis.q.T @ matrix @ basis.q
    for b in basis.blocks:
        full[b, b] = 0.0
    return np.max(np.abs(full))


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_basis_is_orthonormal(n, d_a, d_b):
    q = symmetry_basis(n, d_a, d_b).q
    assert q.dtype == np.float64
    assert np.max(np.abs(q.T @ q - np.eye(len(q)))) <= 1e-13


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_blocks_are_irreps_one_per_standard_tableau(n, d_a, d_b):
    basis = symmetry_basis(n, d_a, d_b)
    sizes = [b.stop - b.start for b in basis.blocks]
    assert sorted(sizes) == irrep_block_sizes(n, d_a * d_b)
    assert basis.blocks[0].start == 0 and basis.blocks[-1].stop == len(basis.q)
    assert all(b.stop == c.start for b, c in zip(basis.blocks, basis.blocks[1:]))


def test_qubit_pair_at_n4_has_ten_blocks():
    sizes = sorted(b.stop - b.start for b in symmetry_basis(4, 2, 2).blocks)
    assert sizes == [1, 15, 15, 15, 20, 20, 35, 45, 45, 45]


def test_n1_is_one_identity_block():
    basis = symmetry_basis(1, 2, 3)
    assert basis.blocks == (slice(0, 6),)
    assert np.array_equal(basis.q, np.eye(6))
    assert np.array_equal(basis.omega_blocks[0], np.eye(6) / 6)


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_states_are_block_diagonal(n, d_a, d_b):
    basis = symmetry_basis(n, d_a, d_b)
    assert off_block(basis, basis.alt.matrix.real) <= 1e-14
    for rho in (random_bipartite(d_a, d_b, 7), random_bipartite(d_a, d_b, 8, rank=2)):
        assert off_block(basis, iid_block(rho, n).matrix) <= 1e-14
    if d_a == d_b:
        assert off_block(basis, iid_block(copy_cc_state([0.3, 0.7]), n).matrix) <= 1e-14


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_omega_blocks_are_the_projected_state(n, d_a, d_b):
    basis = symmetry_basis(n, d_a, d_b)
    for b, block in zip(basis.blocks, basis.omega_blocks, strict=True):
        want = basis.q[:, b].T @ basis.alt.matrix.real @ basis.q[:, b]
        assert np.max(np.abs(block - want)) <= 1e-15
        assert np.array_equal(block, block.T)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocks_from_a_real_carried_eigensystem(n):
    # a caller may hand a state a real eigensystem; its blocks are those of the
    # same state decomposed afresh, whose eigenvectors are complex
    m = random_bipartite(2, 2, 9).matrix.real
    vals, vecs = np.linalg.eigh(m)
    carried = BipartiteState(m, 2, 2, eigensystem=(vals, vecs))
    assert carried.eigenvectors.dtype == np.float64
    basis = symmetry_basis(n, 2, 2)
    got = symmetric_blocks(iid_block(carried, n), basis)
    want = symmetric_blocks(iid_block(BipartiteState(m, 2, 2), n), basis)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-14


def test_cache_is_bounded():
    # an entry at the guard's largest N = 6561 holds about 1.7 GB
    assert symmetry_basis.cache_info().maxsize == 4

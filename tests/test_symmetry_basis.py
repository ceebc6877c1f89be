"""The Gelfand-Tsetlin columns of `hypotest.symmetry_basis`: orthonormal, one
block per Young shape of the size of its U(d_A d_B) irrep, counted once per
standard tableau of that shape, and block diagonalizing rho^(x n) and
omega_A x omega_B."""

import math

import numpy as np
import pytest

from petzmi.hypotest import iid_block, symmetry_basis
from petzmi.states import BipartiteState, copy_cc_state, random_bipartite
from reference import dense_alternative, dense_power

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


def irrep_blocks(n, d):
    """(dim U_lambda(d), f^lambda) of each shape lambda of n with a nonzero irrep:
    the hook-content formula and f^lambda = n! / prod(hooks)."""
    blocks = []
    for shape in partitions(n):
        cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]
        hooks = [shape[i] - j + cols[j] - i - 1 for i, j in boxes]
        dim = math.prod(d + j - i for i, j in boxes) // math.prod(hooks)
        if dim:
            blocks.append((dim, math.factorial(n) // math.prod(hooks)))
    return sorted(blocks)


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
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-13


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_blocks_are_irreps_one_per_standard_tableau(n, d_a, d_b):
    # one block per shape, which `mult` counts once per standard tableau
    basis = symmetry_basis(n, d_a, d_b)
    sizes = [b.stop - b.start for b in basis.blocks]
    assert sorted(zip(sizes, basis.mult)) == irrep_blocks(n, d_a * d_b)
    assert sum(f * size for f, size in zip(basis.mult, sizes)) == len(basis.q) == (d_a * d_b)**n
    assert basis.blocks[0].start == 0 and basis.blocks[-1].stop == basis.q.shape[1]
    assert all(b.stop == c.start for b, c in zip(basis.blocks, basis.blocks[1:]))
    assert (basis.d_a, basis.d_b) == (d_a, d_b)


def test_qubit_pair_at_n4_has_five_blocks():
    basis = symmetry_basis(4, 2, 2)
    assert basis.q.shape == (256, 116)
    assert sorted(b.stop - b.start for b in basis.blocks) == [1, 15, 20, 35, 45]


def test_n1_is_one_identity_block():
    basis = symmetry_basis(1, 2, 3)
    assert basis.blocks == (slice(0, 6),)
    assert np.array_equal(basis.q, np.eye(6))
    assert np.array_equal(basis.omega_blocks[0], np.eye(6) / 6)


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_states_are_block_diagonal(n, d_a, d_b):
    basis = symmetry_basis(n, d_a, d_b)
    assert off_block(basis, dense_alternative(n, d_a, d_b).matrix.real) <= 1e-14
    for rho in (random_bipartite(d_a, d_b, 7), random_bipartite(d_a, d_b, 8, rank=2)):
        assert off_block(basis, dense_power(rho.matrix, n, d_a, d_b)) <= 1e-14
    if d_a == d_b:
        cc = copy_cc_state([0.3, 0.7]).matrix
        assert off_block(basis, dense_power(cc, n, d_a, d_b)) <= 1e-14


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_omega_blocks_are_the_projected_state(n, d_a, d_b):
    basis = symmetry_basis(n, d_a, d_b)
    alt = dense_alternative(n, d_a, d_b).matrix.real
    for b, block in zip(basis.blocks, basis.omega_blocks, strict=True):
        want = basis.q[:, b].T @ alt @ basis.q[:, b]
        assert np.max(np.abs(block - want)) <= 1e-15
        assert np.array_equal(block, block.T)


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_omega_eigensystems_decompose_the_blocks(n, d_a, d_b):
    basis = symmetry_basis(n, d_a, d_b)
    for block, (mu, u) in zip(basis.omega_blocks, basis.omega_eigh, strict=True):
        assert np.max(np.abs((u * mu) @ u.T - block)) <= 1e-15
        assert np.max(np.abs(u.T @ u - np.eye(len(u)))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocks_from_a_real_carried_eigensystem(n):
    # a state rebuilt from its real eigensystem stays real, and its blocks are
    # those of the same state validated afresh, whose matrix is complex
    m = random_bipartite(2, 2, 9).matrix.real
    vals, vecs = np.linalg.eigh(m)
    basis = symmetry_basis(n, 2, 2)
    got = iid_block((vecs * vals) @ vecs.T, n, basis)
    want = iid_block(BipartiteState(m, 2, 2).matrix, n, basis)
    assert all(g.dtype == np.float64 for g in got)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-14


@pytest.mark.parametrize("n, d_a, d_b", CASES)
def test_iid_blocks_are_the_projected_power(n, d_a, d_b):
    # a non-Hermitian x too: the mode products act on any one-copy operator
    basis = symmetry_basis(n, d_a, d_b)
    rng = np.random.default_rng(n)
    d = d_a * d_b
    generic = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for x in (random_bipartite(d_a, d_b, 7).matrix, generic):
        dense = dense_power(x, n, d_a, d_b)
        for b, block in zip(basis.blocks, iid_block(x, n, basis), strict=True):
            assert np.max(np.abs(block - basis.q[:, b].T @ dense @ basis.q[:, b])) <= 1e-13


def test_dropped_tableaux_are_counted_by_mult():
    # tr(X^(x n) Y^(x n)) = (tr XY)^n, and tr x^(x n) = (tr x)^n, from one block per shape
    rng = np.random.default_rng(5)
    x, y = (rng.standard_normal((6, 6)) for _ in range(2))
    basis = symmetry_basis(3, 2, 3)
    bx, by = iid_block(x, 3, basis), iid_block(y, 3, basis)
    traced = sum(f * np.trace(b) for f, b in zip(basis.mult, bx))
    assert traced == pytest.approx(np.trace(x)**3, rel=1e-12)
    paired = sum(f * np.trace(u @ v) for f, u, v in zip(basis.mult, bx, by))
    assert paired == pytest.approx(np.trace(x @ y)**3, rel=1e-12)


def test_cache_is_bounded():
    # an entry at the guard's largest N = 6561 holds Q of N x K = 6561 x 2781, about 0.15 GB
    assert symmetry_basis.cache_info().maxsize == 4

"""Product states from their factors, and the universal test in symmetry
blocks, against the dense constructions they replace: the cycle-sum universal
state against the symmetric projector on (C^d x C^d')^(x n) traced over the
primed copies; the Kronecker eigensystems of a x b and of rho^(x n) against
decompositions of the dense products; D_alpha(rho^(x n) || omega_A x omega_B)
from the blocks against `petz_divergence` on the dense operators; and the
block-by-block threshold test against one decomposition of the whole threshold
difference. The dense n-copy operators are built here only, by
`dense_iid_block` and `dense_product`.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from petzmi import hypotest
from petzmi.divergences import petz_divergence
from petzmi.errors import DomainError
from petzmi.hypotest import (
    achievability_sweep,
    block_matrices,
    iid_block,
    np_test,
    symmetric_blocks,
    symmetric_type_count,
    symmetry_basis,
    test_errors as threshold_test_errors,
    type_two_against,
    universal_divergence_rate,
    universal_state,
)
from petzmi.linalg import (
    HermitianOperator,
    nonnegative_part_projector,
    permute_factors,
    spectral_power,
    support_projector,
    tensor_product,
)
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


def dense_iid_eigensystem(rho, n):
    """`iid_block` as the eigensystem of the dense rho^(x n), decomposed afresh."""
    dense = dense_iid_block(rho, n)
    return dense.spectrum, dense.eigenvectors


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("index", range(len(STATES)))
def test_iid_block_carries_kronecker_eigensystem(index, n, monkeypatch):
    rho = STATES[index]
    shapes = counted_eigh(monkeypatch)
    vals, vecs = iid_block(rho, n)
    assert shapes == []
    dense = dense_iid_block(rho, n)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(rebuilt - dense.matrix)) <= 1e-14
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dense.dim))) <= 1e-14
    assert np.array_equal(vals, functools.reduce(np.kron, [rho.spectrum] * n))
    rebuilt = BipartiteState(rebuilt, rho.d_a**n, rho.d_b**n)
    assert np.max(np.abs(rebuilt.marginal_a.matrix - dense.marginal_a.matrix)) <= 1e-14
    assert np.max(np.abs(rebuilt.marginal_b.matrix - dense.marginal_b.matrix)) <= 1e-14


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
        carried = float(abs(np.min(iid_block(rho, 4)[0]) - want) / want)
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
    # symmetry_basis caches the blocks of omega_A x omega_B: build the basis
    # afresh on every call, so that the reference run projects the product of
    # the literal universal states and no such basis stays in the cache
    monkeypatch.setattr(hypotest, "symmetry_basis", hypotest.symmetry_basis.__wrapped__)
    calls = []

    def counted_literal_state(n, d):
        calls.append((n, d))
        return DensityOperator(literal_universal_state(n, d))

    assert_matches_reference(STATES[index], monkeypatch, "universal_state", counted_literal_state)
    assert calls


@pytest.mark.parametrize("index", range(len(STATES)))
def test_universal_test_matches_dense_block(index, monkeypatch):
    assert_matches_reference(STATES[index], monkeypatch, "iid_block", dense_iid_eigensystem)


DIVERGENCE_STATES = {
    "full-rank": random_bipartite(2, 2, 17),
    "rank-2": random_bipartite(2, 2, 19, rank=2),
    "pure": random_bipartite(2, 2, 21, rank=1),
    "copy-cc": copy_cc_state([0.2, 0.8]),
    "2x3": random_bipartite(2, 3, 5),
    "2x3-rank-2": random_bipartite(2, 3, 6, rank=2),
}


@pytest.mark.parametrize("name, n", [
    (name, n) for name, rho in DIVERGENCE_STATES.items() for n in range(1, 7 - rho.d_b)
])
def test_block_divergence_matches_dense(name, n):
    # the dense rho^(x n) carries its Kronecker eigensystem, as the N x N
    # overlap it replaces did: a fresh eigh would lose up to 8e-12 relative at
    # alpha = 0.05 through the smallest eigenvalues. The paths agree to 5.4e-15.
    rho = DIVERGENCE_STATES[name]
    rho_n = DensityOperator(dense_iid_block(rho, n).matrix, eigensystem=iid_block(rho, n))
    alt = dense_product(universal_state(n, rho.d_a), universal_state(n, rho.d_b))
    for alpha in (0.0, 0.05, 0.3, 0.6, 0.95, 1.0, 1.5, 2.0):
        want = petz_divergence(alpha, rho_n, alt)
        if want.is_infinite:
            with pytest.raises(DomainError):
                hypotest._universal_setup(rho, n, alpha)
            continue
        *_, got = hypotest._universal_setup(rho, n, alpha)
        # D_0 of a full-rank state is -log 1, zero up to the rounding of a sum
        # over N^2 overlaps: both paths read up to 1.6e-15 there
        assert got == pytest.approx(want.value, rel=1e-12, abs=1e-14), alpha
    with pytest.raises(DomainError):
        universal_divergence_rate(rho, -0.5, n)


def test_errors_decomposes_no_large_matrix(monkeypatch):
    rho = random_bipartite(2, 2, 17)
    threshold_test_errors(rho, 3, 0.1, 0.6)  # builds and caches the symmetry basis
    shapes = counted_eigh(monkeypatch)
    threshold_test_errors(rho, 3, 0.1, 0.6)
    # only the blocks of the Neyman-Pearson difference, the largest 20 x 20:
    # rho^(x 3) carries the Kronecker power of rho's eigensystem, and the basis
    # with omega_A x omega_B and its blocks is cached per (n, d_A, d_B)
    assert shapes and max(max(shape) for shape in shapes) < 64


def dense_np_test(rho_n, alt, log_threshold):
    """The threshold test on whole matrices, one decomposition each, with the
    same rules beyond thresholds of +-700."""
    rho_n, alt = HermitianOperator(rho_n), HermitianOperator(alt)
    if log_threshold > 700.0:
        kernel = np.eye(alt.dim) - support_projector(alt).matrix
        return support_projector(kernel @ rho_n.matrix @ kernel).matrix
    if log_threshold < -700.0:
        return np.eye(rho_n.dim)
    return nonnegative_part_projector(rho_n, math.exp(log_threshold) * alt.matrix).matrix


def assembled(basis, blocks):
    """sum_b Q_b X_b Q_b^T."""
    return sum(basis.q[:, b] @ x @ basis.q[:, b].T for b, x in zip(basis.blocks, blocks))


def spanning_thresholds(vals, mu, count):
    """log thresholds from log(lambda_min / mu_max) to log(lambda_max / mu_min),
    lambda over the support of the eigenvalues vals of rho_n and mu over the
    spectrum of alt: at the low end the test accepts all of supp(rho_n), at
    the high end nothing."""
    lam = vals[spectral_power(vals, 0.0) > 0]
    return np.linspace(math.log(lam.min() / mu.max()), math.log(lam.max() / mu.min()), count)


def block_and_dense_weights(rho, n, count):
    """tr(rho^(x n) Pi) at `count` spanning thresholds from the blocks and from
    one dense decomposition each, and the largest entrywise gap between the
    assembled and the dense projector."""
    vals, vecs = iid_block(rho, n)
    rho_n = dense_iid_block(rho, n)
    alt = dense_product(universal_state(n, rho.d_a), universal_state(n, rho.d_b))
    basis = symmetry_basis(n, rho.d_a, rho.d_b)
    r_blocks = block_matrices(*symmetric_blocks((vals, vecs), basis))
    got, want, gap = [], [], 0.0
    for lam in spanning_thresholds(vals, alt.spectrum, count):
        test = np_test(r_blocks, basis.omega_blocks, lam)
        dense = dense_np_test(rho_n.matrix, alt.matrix, lam)
        got.append(sum(np.vdot(pi, r).real for pi, r in zip(test, r_blocks)))
        want.append(np.vdot(dense, rho_n.matrix).real)
        gap = max(gap, np.max(np.abs(assembled(basis, test) - dense)))
    return np.array(got), np.array(want), gap


@pytest.mark.parametrize("index", range(len(STATES)))
def test_thresholds_across_the_spectrum_match_dense_projector(index):
    # at rate >= 0 the universal test is empty for n <= 4, so test_errors alone
    # never reaches a projector that accepts anything
    nonempty = 0
    for n in (2, 3, 4):
        got, want, gap = block_and_dense_weights(STATES[index], n, 15)
        assert np.max(np.abs(got - want)) <= 1e-12
        # the projectors themselves are conditioned by 1/(the eigen-gap of the
        # difference at 0): up to 4e-11 apart on these states
        assert gap <= 1e-9
        nonempty += int(np.sum(want > 1e-12))
    assert nonempty >= 15


@pytest.mark.parametrize("rho, n, count", [
    (random_bipartite(2, 3, 5), 2, 15),
    (random_bipartite(2, 3, 5), 3, 15),
    (random_bipartite(2, 2, 17), 5, 3),
], ids=["2x3-n2", "2x3-n3", "2x2-n5"])
def test_unequal_sides_and_n5_match_dense_projector(rho, n, count):
    got, want, gap = block_and_dense_weights(rho, n, count)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert gap <= 1e-9
    assert np.any((want > 1e-12) & (want < 1 - 1e-12))


def dense_test_errors(rho, n, rate, s):
    """test_errors from one decomposition of the whole threshold difference."""
    rho_n = dense_iid_block(rho, n)
    alt = dense_product(universal_state(n, rho.d_a), universal_state(n, rho.d_b))
    log_g = (math.log(symmetric_type_count(n, rho.d_a**2))
             + math.log(symmetric_type_count(n, rho.d_b**2)))
    d_s = petz_divergence(s, rho_n, alt).value
    lam = (log_g + n * rate - (1.0 - s) * d_s) / s
    type_one = 1.0 - np.vdot(dense_np_test(rho_n.matrix, alt.matrix, lam), rho_n.matrix).real
    return lam, max(type_one, 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_errors_match_dense_reference_on_unequal_sides(n):
    rho = random_bipartite(2, 3, 5)
    for rate, s in ((0.0, 0.3), (0.05, 0.8)):
        errs = threshold_test_errors(rho, n, rate, s)
        lam, type_one = dense_test_errors(rho, n, rate, s)
        assert errs.log_threshold == pytest.approx(lam, rel=1e-12)
        assert errs.type_one == pytest.approx(type_one, abs=1e-12)


def test_type_two_against_matches_dense_projector(monkeypatch):
    # the threshold moved into the spectrum, so that the test accepts part of
    # rho^(x 2) and has a type-II error to compare
    rho = random_bipartite(2, 3, 5)
    rng = np.random.default_rng(4)
    sigma, tau = random_density(2, rng), random_density(3, rng)
    rho_n = dense_iid_block(rho, 2)
    alt = dense_product(universal_state(2, 2), universal_state(2, 3))
    lam = spanning_thresholds(iid_block(rho, 2)[0], alt.spectrum, 3)[1]
    block_np_test = hypotest.np_test
    monkeypatch.setattr(hypotest, "np_test", lambda r, a, _: block_np_test(r, a, lam))
    got = type_two_against(rho, 2, 0.1, 0.6, sigma, tau)
    product = functools.reduce(np.kron, [sigma.matrix] * 2 + [tau.matrix] * 2)
    want = np.vdot(dense_np_test(rho_n.matrix, alt.matrix, lam), product).real
    assert want > 1e-3
    assert got == pytest.approx(want, abs=1e-12)


def block_diag(*blocks):
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    start = 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return out


@pytest.mark.parametrize("log_threshold", [-1000.0, -2.0, 0.5, 1000.0])
def test_np_test_blocks_match_dense_rules(log_threshold):
    # rank-deficient alternatives, so that supp(rho) meets ker(alt) beyond +700;
    # the sign cut is taken over both blocks at once, as on the whole operator
    rho = [random_bipartite(2, 2, 30).matrix / 2, random_density(3, 31).matrix / 2]
    alt = [random_bipartite(2, 2, 32, rank=2).matrix / 2, random_density(3, 33, rank=1).matrix / 2]
    got = block_diag(*np_test(rho, alt, log_threshold))
    want = dense_np_test(block_diag(*rho), block_diag(*alt), log_threshold)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.trace(want).real >= 1 - 1e-12

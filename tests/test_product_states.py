"""Product states from their factors, and the universal test in symmetry
blocks, against the dense constructions they replace: the cycle-sum universal
state against the symmetric projector on (C^d x C^d')^(x n) traced over the
primed copies; the Kronecker eigensystem of a x b against a decomposition of
the dense product, and the Nussbaum-Szkola terms against a x b formed from the
factors against those of that product; the blocks of rho^(x n) by mode products against the
projected dense power; D_alpha(rho^(x n) || omega_A x omega_B) from the blocks
against `petz_divergence` on the dense operators; and the block-by-block
threshold test, one block per Young shape, against one decomposition of the
whole threshold difference. The dense n-copy operators are built here only,
by `dense_iid_block`, `kronecker_eigensystem` and `reference.dense_alternative`.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from petzmi import hypotest
from petzmi.divergences import (_petz_terms, _product_terms, petz_divergence,
                                relative_entropy, relative_entropy_variance)
from petzmi.errors import DomainError
from petzmi.exponents import alpha_derivative
from petzmi.hypotest import (
    achievability_sweep,
    iid_block,
    np_test,
    symmetric_type_count,
    symmetry_basis,
    test_errors as threshold_test_errors,
    type_two_against,
    universal_divergence_rate,
    universal_state,
)
from petzmi.linalg import HermitianOperator, power_on_support, spectral_log, spectral_power
from petzmi.prmi import prmi_down_down, prmi_up_up
from petzmi.states import (
    BipartiteState,
    DensityOperator,
    Pmf,
    cc_state,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
    random_density,
)
from reference import (dense_alternative, dense_power, log_ratio, nonnegative_part_projector,
                       product_state, real_ginibre, tensor_product)

STATES = [copy_cc_state([0.2, 0.8]), random_bipartite(2, 2, 17), random_bipartite(2, 2, 18),
          random_bipartite(2, 2, 19, rank=2), real_ginibre(2, 2, 3), real_ginibre(2, 2, 4, rank=2)]
BELL = pure_bipartite([1.0, 0.0, 0.0, 1.0], 2, 2)


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



PRODUCT_TERM_STATES = {
    "copy-cc": copy_cc_state([0.2, 0.8]),
    "copy-cc-2x3": cc_state(Pmf(np.array([[0.2, 0.0, 0.0], [0.0, 0.8, 0.0]]))),
    "pure": pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2),
    "pure-2x3": pure_bipartite(np.random.default_rng(5).standard_normal(6), 2, 3),
    "pure-product-2x3": pure_bipartite(np.kron([0.6, 0.8], [1.0, 2.0, 2.0]), 2, 3),
    "generic": random_bipartite(2, 2, 17),
    "generic-2x3": random_bipartite(2, 3, 18),
    "rank2-2x3": random_bipartite(2, 3, 19, rank=2),
}


@pytest.mark.parametrize("name", PRODUCT_TERM_STATES)
def test_product_terms_match_the_product_state(name):
    """(lambda, mu, W) against a x b from the factors equal those against the
    product state carrying the Kronecker eigensystem, on the marginals (rank
    deficient for the copy state on 2 x 3 and the pure states) and on random
    factors, once mu's x-major columns take that state's descending order."""
    rho = PRODUCT_TERM_STATES[name]
    rng = np.random.default_rng(7)
    pairs = [(rho.marginal_a, rho.marginal_b),
             (random_density(rho.d_a, rng), random_density(rho.d_b, rng, rank=1))]
    for a, b in pairs:
        lam, mu, w = _product_terms(rho, (a.spectrum, a.eigenvectors), (b.spectrum, b.eigenvectors))
        order = np.argsort(np.kron(a.spectrum, b.spectrum))[::-1]
        ref_lam, ref_mu, ref_w = _petz_terms(rho, product_state(a, b))
        assert np.array_equal(lam, ref_lam) and np.array_equal(mu[order], ref_mu)
        np.testing.assert_allclose(w[:, order], ref_w, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", PRODUCT_TERM_STATES)
def test_product_term_callers_match_the_product_state_path(name):
    """prmi_up_up, dd at alpha = 1 and alpha_derivative at alpha = 1, where it
    is half the variance, and elsewhere, against the same quantities on the
    product state."""
    rho = PRODUCT_TERM_STATES[name]
    marginals = product_state(rho.marginal_a, rho.marginal_b)
    for alpha in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0):
        got = prmi_up_up(alpha, rho)
        ref = petz_divergence(alpha, rho, marginals)
        assert got.is_infinite == ref.is_infinite
        if not ref.is_infinite:
            assert got.value == pytest.approx(max(ref.value, 0.0), abs=1e-12)
    assert prmi_down_down(1.0, rho).value == pytest.approx(
        relative_entropy(rho, marginals).value, abs=1e-12)
    assert alpha_derivative(1.0, rho) == pytest.approx(
        0.5 * relative_entropy_variance(rho, marginals), abs=1e-12)
    for alpha in (0.55, 0.8, 1.4):
        sol = prmi_down_down(alpha, rho)
        lam, mu, w = _petz_terms(rho, product_state(sol.sigma_a, sol.tau_b))
        terms = spectral_power(lam, alpha)[:, None] * w * spectral_power(mu, 1.0 - alpha)
        q, q_prime = np.sum(terms), np.sum(terms * log_ratio(lam, mu))
        ref = -math.log(q) / (alpha - 1.0) ** 2 + q_prime / (q * (alpha - 1.0))
        assert alpha_derivative(alpha, rho, sol) == pytest.approx(ref, abs=1e-12)

def dense_iid_block(rho, n):
    """rho^(x n) without its eigensystem: the same matrix, decomposed afresh."""
    return BipartiteState(dense_power(rho.matrix, n, rho.d_a, rho.d_b), rho.d_a**n, rho.d_b**n)


def kronecker_eigensystem(rho, n):
    """The eigensystem (vals, vecs) of rho^(x n) as the n-fold Kronecker powers
    of rho's, rows in (A1 ... An)(B1 ... Bn) order: the small eigenvalues keep
    rho's relative accuracy, which a fresh decomposition of the dense power
    would lose."""
    vals = functools.reduce(np.kron, [rho.spectrum] * n)
    vecs = functools.reduce(np.kron, [rho.eigenvectors] * n)
    order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    vecs = vecs.reshape([rho.d_a, rho.d_b] * n + [-1]).transpose(order + [2 * n])
    return vals, vecs.reshape(len(vals), -1)


def dense_blocks(x, n, basis):
    """`iid_block` as Q_lambda^T (x^(x n)) Q_lambda with the dense power."""
    power = dense_power(np.asarray(x), n, basis.d_a, basis.d_b)
    return [basis.q[:, b].T @ power @ basis.q[:, b] for b in basis.blocks]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("index", range(len(STATES)))
def test_iid_block_carries_kronecker_eigensystem(index, n, monkeypatch):
    # the blocks of rho^(x n) by mode products are those of the operator that
    # the Kronecker eigensystem carries, and of the dense power; no eigh
    rho = STATES[index]
    basis = symmetry_basis(n, rho.d_a, rho.d_b)
    shapes = counted_eigh(monkeypatch)
    got = iid_block(rho.matrix, n, basis)
    assert shapes == []
    vals, vecs = kronecker_eigensystem(rho, n)
    carried = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(carried - dense_iid_block(rho, n).matrix)) <= 1e-14
    for b, block, dense in zip(basis.blocks, got, dense_blocks(rho.matrix, n, basis), strict=True):
        assert np.max(np.abs(block - basis.q[:, b].T @ carried @ basis.q[:, b])) <= 1e-14
        assert np.max(np.abs(block - dense)) <= 1e-14


def assert_matches_reference(rho, monkeypatch, name, reference):
    """test_errors, universal_divergence_rate and achievability_sweep agree to
    rel 1e-12 when hypotest's `name` is replaced by `reference`."""
    cases = [(rho, n, 0.1, s) for n in (1, 2, 3) for s in (0.2, 0.6, 0.9)]
    # the tests at rate 0.1 and n <= 3 accept nothing; the Bell pair's at n = 4,
    # rate 0 and s = 0.95 accepts part of rho^(x 4), a type-I error of 0.540
    cases.append((BELL, 4, 0.0, 0.95))
    got = [threshold_test_errors(*case) for case in cases]
    assert got[-1].type_one < 0.6
    rates = [universal_divergence_rate(state, s, n) for state, n, _, s in cases]
    sweep = achievability_sweep(rho, 0.1, 3)
    monkeypatch.setattr(hypotest, name, reference)
    for (state, n, rate, s), errs, div_rate in zip(cases, got, rates):
        ref = threshold_test_errors(state, n, rate, s)
        for field in ("log_threshold", "type_one", "type_two_bound", "type_one_bound"):
            assert getattr(errs, field) == pytest.approx(getattr(ref, field), rel=1e-12), field
        assert div_rate == pytest.approx(universal_divergence_rate(state, s, n), rel=1e-12)
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
    # the blocks R_lambda and every D_s from the dense rho^(x n), projected onto
    # the columns of Q and against the dense omega_A x omega_B, in place of the
    # one (U^dagger)^(x n) Q pass of `_universal_setup`
    calls = []

    def dense_setup(rho, n, orders):
        calls.append((n, len(orders)))
        basis = symmetry_basis(n, rho.d_a, rho.d_b)
        log_g = sum(math.log(symmetric_type_count(n, side**2)) for side in (rho.d_a, rho.d_b))
        rho_n = DensityOperator.from_eigensystem(*kronecker_eigensystem(rho, n))
        alt = dense_alternative(n, rho.d_a, rho.d_b)
        d_values = [petz_divergence(alpha, rho_n, alt).value for alpha in orders]
        return n, basis, log_g, dense_blocks(rho.matrix, n, basis), d_values

    # the tests at these rates accept nothing, so compare the blocks themselves too
    for n in (1, 2, 3):
        *_, got, _ = hypotest._universal_setup(STATES[index], n, [])
        *_, want, _ = dense_setup(STATES[index], n, [])
        for block, dense in zip(got, want, strict=True):
            assert np.max(np.abs(block - dense)) <= 1e-14
    assert_matches_reference(STATES[index], monkeypatch, "_universal_setup", dense_setup)
    assert calls


DIVERGENCE_STATES = {
    "full-rank": random_bipartite(2, 2, 17),
    "rank-2": random_bipartite(2, 2, 19, rank=2),
    "pure": random_bipartite(2, 2, 21, rank=1),
    "copy-cc": copy_cc_state([0.2, 0.8]),
    "2x3": random_bipartite(2, 3, 5),
    "2x3-rank-2": random_bipartite(2, 3, 6, rank=2),
    "real": real_ginibre(2, 2, 3),
    "real-rank-2": real_ginibre(2, 2, 4, rank=2),
}


@pytest.mark.parametrize("name, n", [
    (name, n) for name, rho in DIVERGENCE_STATES.items() for n in range(1, 10 - 2 * rho.d_b)
])
def test_block_divergence_matches_dense(name, n):
    # rho^(x n) is built from its Kronecker eigensystem, which `petz_divergence`
    # reads: a fresh eigh of the dense power would lose up to 8e-12 relative at
    # alpha = 0.05 through the smallest eigenvalues
    rho = DIVERGENCE_STATES[name]
    rho_n = DensityOperator.from_eigensystem(*kronecker_eigensystem(rho, n))
    alt = dense_alternative(n, rho.d_a, rho.d_b)
    alphas = (0.0, 0.05, 0.3, 0.6, 0.95, 1.0, 1.5, 2.0)
    *_, divergences = hypotest._universal_setup(rho, n, alphas)
    for alpha, got in zip(alphas, divergences, strict=True):
        want = petz_divergence(alpha, rho_n, alt)
        # omega_A x omega_B has full rank: the divergence is finite at every order
        assert not want.is_infinite
        # D_0 of a full-rank state is -log 1, zero up to the rounding of a sum
        # over N^2 overlaps: both paths read up to 1.6e-15 there
        assert got == pytest.approx(want.value, rel=1e-12, abs=1e-14), alpha
    with pytest.raises(DomainError):
        universal_divergence_rate(rho, -0.5, n)


def mode_product_divergence(rho, n, alpha):
    """D_alpha(rho^(x n) || omega_A x omega_B) by the route that the one pass of
    `_universal_setup` replaced: the blocks of (rho^alpha)^(x n) by `iid_block`
    of the one-copy `power_on_support`, at alpha = 1 those of rho^(x n), each
    traced against g(Omega_lambda) in its eigenbasis."""
    basis = symmetry_basis(n, rho.d_a, rho.d_b)
    if alpha == 1.0:
        x, g = rho.matrix, np.log
    else:
        x, g = power_on_support(rho, alpha).matrix, lambda mu: mu ** (1.0 - alpha)
    trace = sum(f * float(np.einsum("ij,ij->j", u, y @ u).real @ g(mu)) for f, y, (mu, u)
                in zip(basis.mult, iid_block(x, n, basis), basis.omega_eigh, strict=True))
    if alpha == 1.0:
        return n * float(rho.spectrum @ spectral_log(rho.spectrum)) - trace
    return math.log(trace) / (alpha - 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_small_eigenvalues_keep_their_per_factor_power(n):
    # an eigenvalue 1e-9 times the largest: the support cut on rho's four
    # eigenvalues keeps it, one on the 4^n products l^(x n) would drop the
    # products of two small factors, which carry weight at small s
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rho = BipartiteState((u * [0.6, 0.3, 0.1 - 6e-10, 6e-10]) @ u.conj().T, 2, 2)
    l = rho.spectrum
    assert np.all(spectral_power(l, 0.0) == 1)
    assert not np.all(spectral_power(functools.reduce(np.kron, [l] * n), 0.0) == 1)
    orders = (0.05, 0.5, 1.0)
    *_, got = hypotest._universal_setup(rho, n, orders)
    for alpha, d in zip(orders, got, strict=True):
        assert d == pytest.approx(mode_product_divergence(rho, n, alpha), rel=1e-12), alpha


@pytest.mark.parametrize("index", range(len(STATES)))
def test_outer_product_chain_is_the_kronecker_power(index):
    # the n-fold products of l and of l^s, in np.kron's order, to the bit
    l = STATES[index].spectrum
    for v in (l, spectral_power(l, 0.05), spectral_power(l, 0.6), spectral_power(l, 1.5)):
        for n in range(1, 7):
            assert np.array_equal(hypotest._kron_power(v, n), functools.reduce(np.kron, [v] * n))


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
        # supp(rho_n) within ker(alt), the kernel spanned by alt's eigenvectors
        # under the support cut: none for a full-rank alt
        null = alt.eigenvectors[:, spectral_power(alt.spectrum, 0.0) == 0]
        kernel = null @ null.conj().T
        return power_on_support(kernel @ rho_n.matrix @ kernel, 0.0).matrix
    if log_threshold < -700.0:
        return np.eye(rho_n.dim)
    return nonnegative_part_projector(rho_n, math.exp(log_threshold) * alt.matrix).matrix


def spanning_thresholds(vals, mu, count):
    """log thresholds from log(lambda_min / mu_max) to log(lambda_max / mu_min),
    lambda over the support of the eigenvalues vals of rho_n and mu over the
    spectrum of alt: at the low end the test accepts all of supp(rho_n), at
    the high end nothing."""
    lam = vals[spectral_power(vals, 0.0) > 0]
    return np.linspace(math.log(lam.min() / mu.max()), math.log(lam.max() / mu.min()), count)


def block_and_dense_weights(rho, n, count):
    """tr(rho^(x n) Pi) at `count` spanning thresholds from the blocks and from
    one dense decomposition each, and the largest entrywise gap between a
    block Pi_lambda and the dense projector projected onto its columns."""
    rho_n = dense_iid_block(rho, n)
    alt = dense_alternative(n, rho.d_a, rho.d_b)
    basis = symmetry_basis(n, rho.d_a, rho.d_b)
    r_blocks = iid_block(rho.matrix, n, basis)
    got, want, gap = [], [], 0.0
    for lam in spanning_thresholds(kronecker_eigensystem(rho, n)[0], alt.spectrum, count):
        test = np_test(r_blocks, basis.omega_blocks, lam, basis.mult)
        dense = dense_np_test(rho_n.matrix, alt.matrix, lam)
        got.append(sum(f * np.vdot(pi, r).real for f, pi, r in zip(basis.mult, test, r_blocks)))
        want.append(np.vdot(dense, rho_n.matrix).real)
        for b, pi in zip(basis.blocks, test, strict=True):
            gap = max(gap, np.max(np.abs(pi - basis.q[:, b].T @ dense @ basis.q[:, b])))
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
    alt = dense_alternative(n, rho.d_a, rho.d_b)
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
    alt = dense_alternative(2, 2, 3)
    lam = spanning_thresholds(kronecker_eigensystem(rho, 2)[0], alt.spectrum, 3)[1]
    block_np_test = hypotest.np_test
    monkeypatch.setattr(hypotest, "np_test", lambda r, a, _, mult: block_np_test(r, a, lam, mult))
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


def np_test_alternative(log_threshold, scale):
    """Blocks of rank 2 of 4 and 1 of 3, so that the test accepts on
    supp(rho) within ker(alt); beyond +700 full-rank ones, as np_test requires
    (omega_A x omega_B has full rank), where the dense kernel rule leaves nothing."""
    a_rank, b_rank = (None, None) if log_threshold > 700.0 else (2, 1)
    return [random_bipartite(2, 2, 32, rank=a_rank).matrix / scale,
            random_density(3, 33, rank=b_rank).matrix / scale]


@pytest.mark.parametrize("log_threshold", [-1000.0, -2.0, 0.5, 1000.0])
def test_np_test_blocks_match_dense_rules(log_threshold):
    # the sign cut is taken over both blocks at once, as on the whole operator
    rho = [random_bipartite(2, 2, 30).matrix / 2, random_density(3, 31).matrix / 2]
    alt = np_test_alternative(log_threshold, 2)
    got = block_diag(*np_test(rho, alt, log_threshold, [1, 1]))
    want = dense_np_test(block_diag(*rho), block_diag(*alt), log_threshold)
    assert np.max(np.abs(got - want)) <= 1e-12
    if log_threshold > 700.0:
        assert np.max(np.abs(want)) <= 1e-12
    else:
        assert np.trace(want).real >= 1 - 1e-12


@pytest.mark.parametrize("log_threshold", [-2.0, 0.5, 1000.0])
def test_np_test_counts_repeated_blocks(log_threshold):
    # a block of multiplicity 2 is the operator with that block twice on its
    # diagonal: the sign cut N * max|v| * eps counts it twice
    rho = [random_bipartite(2, 2, 30).matrix / 3, random_density(3, 31).matrix / 3]
    alt = np_test_alternative(log_threshold, 3)
    first, second = np_test(rho, alt, log_threshold, [2, 1])
    want = dense_np_test(block_diag(rho[0], *rho), block_diag(alt[0], *alt), log_threshold)
    assert np.max(np.abs(block_diag(first, first, second) - want)) <= 1e-12


def test_cached_call_allocates_no_n_by_n_array():
    # at n = 6 on a qubit pair, N = 4096 and K = 560: one real N x N array
    # would take 134 MB, the blocks' N x K work arrays take 37 MB each
    rho = random_bipartite(2, 2, 17)
    basis = symmetry_basis(6, 2, 2)
    threshold_test_errors(rho, 6, 0.1, 0.6)
    tracemalloc.start()
    try:
        threshold_test_errors(rho, 6, 0.1, 0.6)
        type_two_against(rho, 6, 0.1, 0.6, random_density(2, 1), random_density(2, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(basis.q) ** 2

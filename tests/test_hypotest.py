import math

import numpy as np
import pytest

from petzmi import hypotest
from petzmi.errors import DomainError, ResourceLimitError
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
from petzmi.prmi import prmi_down_down
from petzmi.states import BipartiteState, copy_cc_state, random_bipartite, random_density

CC_02 = copy_cc_state([0.2, 0.8])


def test_symmetric_type_count_values():
    assert symmetric_type_count(1, 4) == 4
    assert symmetric_type_count(2, 4) == 10
    assert symmetric_type_count(3, 4) == 20


def test_universal_state_n1_is_maximally_mixed():
    w = universal_state(1, 2)
    assert np.allclose(w.matrix, np.eye(2) / 2, atol=1e-12)


def test_universal_state_permutation_invariant():
    w = universal_state(2, 2)
    from petzmi.linalg import permute_factors

    swapped = permute_factors(w.matrix, [2, 2], [1, 0])
    assert np.allclose(swapped, w.matrix, atol=1e-12)


def test_universal_state_dominates_iid():
    # sigma^(x n) <= g * omega for every sigma
    n, d = 2, 2
    w = universal_state(n, d).matrix
    g = symmetric_type_count(n, d * d)
    rng = np.random.default_rng(3)
    for _ in range(10):
        sigma = random_density(d, rng).matrix
        gap = g * w - np.kron(sigma, sigma)
        assert np.min(np.linalg.eigvalsh(gap)) >= -1e-10


def test_universal_state_guard():
    with pytest.raises(ResourceLimitError):
        universal_state(5, 3)


@pytest.mark.parametrize("call", [
    lambda: threshold_test_errors(random_bipartite(2, 2, 1), 7, 0.1, 0.5),  # N = 16,384
    lambda: symmetry_basis(5, 3, 3),  # N = 59,049
], ids=["test_errors", "symmetry_basis"])
def test_guard_runs_before_the_basis_is_built(call, monkeypatch):
    def build_orbit(counts):
        raise AssertionError("the symmetry basis was built past the guard")

    monkeypatch.setattr(hypotest, "_orbit_basis", build_orbit)
    with pytest.raises(ResourceLimitError):
        call()


def test_iid_block_marginals(qubit_pair):
    vals, vecs = iid_block(qubit_pair, 2)
    block = BipartiteState((vecs * vals) @ vecs.conj().T, 4, 4)
    expected = np.kron(qubit_pair.marginal_a.matrix, qubit_pair.marginal_a.matrix)
    assert np.allclose(block.marginal_a.matrix, expected, atol=1e-10)


def test_np_test_is_projector(qubit_pair):
    # one block: the operators themselves
    [m] = np_test([qubit_pair.matrix], [np.eye(4) / 4], 0.3)
    assert np.allclose(m @ m, m, atol=1e-10)


def test_np_test_extreme_thresholds(qubit_pair):
    [low] = np_test([qubit_pair.matrix], [np.eye(4) / 4], -1000.0)
    assert np.allclose(low, np.eye(4))
    [high] = np_test([qubit_pair.matrix], [np.eye(4) / 4], 1000.0)
    # full-rank alternative: nothing survives an impossibly high threshold
    assert np.allclose(high, 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_type_two_bound_is_exact_rate(n, s):
    errs = threshold_test_errors(CC_02, n, 0.2, s)
    assert errs.type_two_bound == pytest.approx(math.exp(-n * 0.2), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_type_one_below_analytic_bound(n):
    for s in (0.25, 0.6, 0.9):
        errs = threshold_test_errors(CC_02, n, 0.2, s)
        assert errs.type_one <= errs.type_one_bound + 1e-10


def test_type_two_against_specific_products():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        errs = threshold_test_errors(CC_02, n, 0.3, 0.6)
        for _ in range(5):
            sigma = random_density(2, rng)
            tau = random_density(2, rng)
            beta = type_two_against(CC_02, n, 0.3, 0.6, sigma, tau)
            assert beta <= errs.type_two_bound + 1e-10


def test_s_and_n_validation(qubit_pair):
    with pytest.raises(DomainError):
        threshold_test_errors(qubit_pair, 1, 0.2, 1.0)
    with pytest.raises(DomainError):
        threshold_test_errors(qubit_pair, 0, 0.2, 0.5)


SIGMA, TAU = random_density(2, 5), random_density(2, 6)
BAD_ARGUMENTS = {  # (n, rate, s), or (n, alpha) for the divergence rate
    threshold_test_errors: [(1, 0.2, 0.0), (1, 0.2, 1.0), (1, -1.0, 0.5),
                            (1, math.nan, 0.5), (0, 0.2, 0.5)],
    type_two_against: [(1, 0.2, 0.0), (1, 0.2, 1.0), (1, -1.0, 0.5),
                       (1, math.nan, 0.5), (0, 0.2, 0.5)],
    universal_divergence_rate: [(0, 0.5), (1, -1.0), (1, math.nan)],
}


@pytest.mark.parametrize("function, args", [
    (f, args) for f, cases in BAD_ARGUMENTS.items() for args in cases
], ids=lambda x: getattr(x, "__name__", None) or str(x))
def test_bad_arguments_raise_domain_error(function, args):
    rho = random_bipartite(2, 2, 1)
    with pytest.raises(DomainError):
        if function is type_two_against:
            function(rho, *args, SIGMA, TAU)
        elif function is universal_divergence_rate:
            n, alpha = args
            function(rho, alpha, n)
        else:
            function(rho, *args)


@pytest.mark.parametrize("n_max", [0, -2])
def test_achievability_sweep_needs_a_blocklength(qubit_pair, n_max):
    with pytest.raises(DomainError):
        achievability_sweep(qubit_pair, 0.1, n_max)


def test_rate_validation(qubit_pair):
    with pytest.raises(DomainError):
        threshold_test_errors(qubit_pair, 1, math.nan, 0.5)
    with pytest.raises(DomainError):
        threshold_test_errors(qubit_pair, 1, -0.1, 0.5)


@pytest.mark.parametrize("n", [1, 2])
def test_universal_divergence_lower_bounds_prmi(n, qubit_pair):
    # the finite-n universal-state bound sits below the doubly minimized value
    for alpha in (0.6, 1.0, 1.5, 2.0):
        bound = universal_divergence_rate(qubit_pair, alpha, n)
        assert prmi_down_down(alpha, qubit_pair).value >= bound - 1e-9


def test_universal_divergence_bound_tightens():
    alpha = 0.8
    b1 = universal_divergence_rate(CC_02, alpha, 1)
    b2 = universal_divergence_rate(CC_02, alpha, 2)
    assert b2 >= b1 - 1e-9


def test_trade_off_against_product_decomposition():
    # for perfectly correlated states every test obeys
    # type-I + type-II >= 1 against the optimal product decomposition,
    # with equality along the trivial tests mu * identity
    rho_n = CC_02  # rho^(x 1)
    p = np.array([0.2, 0.8])
    components = [np.outer(e, e) for e in np.eye(2)]
    for mu in np.linspace(0.0, 1.0, 5):
        t = mu * np.eye(4)
        alpha_err = 1.0 - float(np.real(np.trace(rho_n.matrix @ t)))
        beta = max(
            float(np.real(np.trace(np.kron(c, c) @ t))) for c in components
        )
        assert alpha_err + beta >= 1.0 - 1e-10
        assert alpha_err + beta == pytest.approx(1.0, abs=1e-10)
    # and the inequality holds for arbitrary (here random projector) tests
    rng = np.random.default_rng(2)
    for _ in range(20):
        basis = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )[0]
        k = rng.integers(1, 4)
        t = basis[:, :k] @ basis[:, :k].conj().T
        alpha_err = 1.0 - float(np.real(np.trace(rho_n.matrix @ t)))
        beta = max(
            float(np.real(np.trace(np.kron(c, c) @ t))) for c in components
        )
        assert alpha_err + beta >= 1.0 - 1e-10

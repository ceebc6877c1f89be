import functools
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
from reference import permute_factors, real_ginibre

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
    swapped = permute_factors(w.matrix, [2, 2], [1, 0])
    assert np.allclose(swapped, w.matrix, atol=1e-12)


def test_universal_state_dominates_iid():
    # sigma^(x n) <= g * omega for every sigma; omega has full rank, so that
    # D_alpha(rho^(x n) || omega_A x omega_B) is finite at every order
    rng = np.random.default_rng(3)
    for n, d in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        w = universal_state(n, d).matrix
        assert np.min(np.linalg.eigvalsh(w)) > 0
        g = symmetric_type_count(n, d * d)
        for _ in range(10):
            sigma = random_density(d, rng).matrix
            gap = g * w - functools.reduce(np.kron, [sigma] * n)
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-10


def test_universal_state_guard():
    with pytest.raises(ResourceLimitError):
        universal_state(5, 3)
    with pytest.raises(DomainError, match="positive"):
        universal_state(0, 2)


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
    # tr[rho^(x n) (sigma x 1)^(x n)] = tr(rho_A sigma)^n, and likewise on B
    n = 3
    basis = symmetry_basis(n, 2, 2)
    rho_blocks = iid_block(qubit_pair.matrix, n, basis)
    sigma = random_density(2, 4).matrix
    for local, marginal in ((np.kron(sigma, np.eye(2)), qubit_pair.marginal_a),
                            (np.kron(np.eye(2), sigma), qubit_pair.marginal_b)):
        blocks = iid_block(local, n, basis)
        got = sum(f * np.trace(r @ x) for f, r, x in zip(basis.mult, rho_blocks, blocks))
        assert got == pytest.approx(np.trace(marginal.matrix @ sigma) ** n, rel=1e-12)


def test_np_test_is_projector(qubit_pair):
    # one block: the operators themselves
    [m] = np_test([qubit_pair.matrix], [np.eye(4) / 4], 0.3, [1])
    assert np.allclose(m @ m, m, atol=1e-10)


def test_np_test_extreme_thresholds(qubit_pair):
    [low] = np_test([qubit_pair.matrix], [np.eye(4) / 4], -1000.0, [1])
    assert np.allclose(low, np.eye(4))
    [high] = np_test([qubit_pair.matrix], [np.eye(4) / 4], 1000.0, [1])
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
                            (1, math.nan, 0.5), (0, 0.2, 0.5), (2.5, 0.2, 0.5),
                            (2.0, 0.2, 0.5)],
    type_two_against: [(1, 0.2, 0.0), (1, 0.2, 1.0), (1, -1.0, 0.5),
                       (1, math.nan, 0.5), (0, 0.2, 0.5), (2.5, 0.2, 0.5)],
    universal_divergence_rate: [(0, 0.5), (1, -1.0), (1, math.nan), (1.5, 0.5)],
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


@pytest.mark.parametrize("function", [threshold_test_errors, type_two_against])
def test_s_and_rate_are_checked_before_the_pass(monkeypatch, function):
    """A bad s or rate raises before the (U^dagger)^(x n) Q pass is made."""
    def no_pass(*args):
        raise AssertionError("_universal_setup ran before the arguments were checked")

    monkeypatch.setattr(hypotest, "_universal_setup", no_pass)
    rho = random_bipartite(2, 2, 42)
    extra = (SIGMA, TAU) if function is type_two_against else ()
    for rate, s in ((0.1, 1.0), (-1.0, 0.5)):
        with pytest.raises(DomainError):
            function(rho, 6, rate, s, *extra)


@pytest.mark.parametrize("n_max", [0, -2, 2.5, 2.0])
def test_achievability_sweep_needs_a_blocklength(qubit_pair, n_max):
    with pytest.raises(DomainError):
        achievability_sweep(qubit_pair, 0.1, n_max)


def loop_sweep_rows(rho, rate, n_max):
    """The sweep's rows as it ran before: the whole test at each of the 20
    values of s, keeping the row of the largest type-I exponent, the first of a
    tie. The exponent is -(1/n) log(type-I bound), the logarithm formed from
    D_s and log g_A + log g_B, whose exponential is the reported bound."""
    rows = []
    for n in range(1, n_max + 1):
        best = None
        for s in np.linspace(0.05, 0.95, 20):
            s = float(s)
            errs = threshold_test_errors(rho, n, rate, s)
            _, _, log_g, _, [d_s] = hypotest._universal_setup(rho, n, [s])
            log_bound = ((1.0 - s) / s) * (log_g - (d_s - n * rate))
            assert errs.type_one_bound == math.exp(log_bound)
            expo = -log_bound / n
            if best is None or expo > best["exponent"]:
                best = {"n": n, "s": s, "exponent": expo, "type_one": errs.type_one,
                        "type_one_bound": errs.type_one_bound,
                        "type_two_bound": errs.type_two_bound}
        best["vacuous"] = best["exponent"] <= 0
        rows.append(best)
    return rows


@pytest.mark.parametrize("rho, n_max", [
    (random_bipartite(2, 2, 42), 4),
    (random_bipartite(2, 2, 19, rank=2), 4),
    (CC_02, 4),
    (random_bipartite(2, 3, 5), 2),
], ids=["qubits", "qubits-rank-2", "copy-cc", "2x3"])
def test_sweep_runs_one_test_per_n_and_matches_the_loop(rho, n_max, monkeypatch):
    calls = []
    block_np_test = hypotest.np_test
    monkeypatch.setattr(hypotest, "np_test", lambda *args: calls.append(1) or block_np_test(*args))
    rows = achievability_sweep(rho, 0.1, n_max)["per_n"]
    assert len(calls) == n_max
    assert rows == loop_sweep_rows(rho, 0.1, n_max)


def test_sweep_reads_its_s_grid_from_one_pass_per_n(monkeypatch):
    # per n, one (U^dagger)^(x n) Q pass gives D_s at the 20 values of s and the
    # blocks R_lambda that the test at the chosen s reads; iid_block never forms
    # rho^(x n)
    rho = random_bipartite(2, 2, 42)
    passes, setups, blocks = [], [], []
    power_columns, setup = hypotest._power_columns, hypotest._universal_setup
    monkeypatch.setattr(hypotest, "_power_columns",
                        lambda x, n, basis: passes.append(n) or power_columns(x, n, basis))
    monkeypatch.setattr(hypotest, "_universal_setup",
                        lambda rho, n, orders: setups.append((n, len(orders))) or setup(rho, n, orders))
    monkeypatch.setattr(hypotest, "iid_block", lambda *args: blocks.append(args))
    achievability_sweep(rho, 0.1, 4)
    assert passes == [1, 2, 3, 4]
    assert setups == [(n, hypotest.S_GRID_SIZE) for n in range(1, 5)]
    assert blocks == []


def with_phased_eigenvectors(rho, phases):
    """rho with its eigenvector columns multiplied by e^(i phases): the same
    operator, held in a complex eigenbasis."""
    phased = BipartiteState(rho.matrix, rho.d_a, rho.d_b)
    phased._eigenvectors = phased.eigenvectors * np.exp(1j * np.asarray(phases))
    vecs = phased.eigenvectors
    assert np.max(np.abs((vecs * phased.spectrum) @ vecs.conj().T - rho.matrix)) <= 1e-15
    return phased


@pytest.mark.parametrize("rho, rank, dtype", [
    (CC_02, 2, np.float64),
    (BipartiteState(np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2, 2, 2), 1, np.float64),
    (real_ginibre(2, 2, 3), 4, np.float64),
    (real_ginibre(2, 2, 4, rank=2), 2, np.float64),
    (random_bipartite(2, 2, 42), 4, np.complex128),
    (random_bipartite(2, 2, 19, rank=2), 2, np.complex128),
    (random_bipartite(2, 3, 6, rank=2), 2, np.complex128),
], ids=["copy-cc", "bell", "real", "real-rank-2", "complex", "complex-rank-2", "2x3-rank-2"])
def test_setup_pass_runs_on_the_support_in_the_eigenvectors_field(rho, rank, dtype, monkeypatch):
    # the one (U^dagger)^(x n) Q pass takes the r = rank rho eigenvectors on the
    # support, real when they are: r^n rows, and R_lambda in the same field
    seen = []
    power_columns = hypotest._power_columns

    def recorded(x, n, basis):
        q, t = power_columns(x, n, basis)
        seen.append((x, t))
        return q, t

    monkeypatch.setattr(hypotest, "_power_columns", recorded)
    for n in (1, 2, 3):
        *_, r_blocks, _ = hypotest._universal_setup(rho, n, [0.5])
        x, t = seen.pop()
        assert x.shape == (rank, rho.dim) and x.dtype == dtype
        assert t.shape[0] == rank**n and t.dtype == dtype
        assert all(block.dtype == dtype for block in r_blocks)


def test_real_state_in_a_complex_eigenbasis_takes_the_complex_pass(monkeypatch):
    # the field follows the eigenvectors, not rho's matrix: the same real state
    # held with complex phases on its eigenvectors runs complex, to the same errors
    rho = real_ginibre(2, 2, 4, rank=2)
    phased = with_phased_eigenvectors(rho, [0.3, -1.1, 2.0, 0.7])
    dtypes = []
    power_columns = hypotest._power_columns
    monkeypatch.setattr(hypotest, "_power_columns",
                        lambda x, n, basis: dtypes.append(x.dtype) or power_columns(x, n, basis))
    for n, rate, s in ((1, 0.1, 0.3), (2, 0.0, 0.6), (3, 0.05, 0.9), (4, 0.0, 0.95)):
        want, got = threshold_test_errors(rho, n, rate, s), threshold_test_errors(phased, n, rate, s)
        for field in ("log_threshold", "type_one", "type_two_bound", "type_one_bound"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12), field
    assert dtypes == [np.float64, np.complex128] * 4


def test_out_of_range_type_one_bound_reads_inf():
    # at rate 40 the bound at s = 0.05 is e^2,355: it reads inf, and the sweep
    # takes every exponent from the bound's logarithm
    errs = threshold_test_errors(CC_02, 3, 40.0, 0.05)
    assert errs.type_one_bound == math.inf
    assert errs.type_one == 1.0
    assert errs.type_two_bound == pytest.approx(math.exp(-3 * 40.0), rel=1e-9)
    rows = achievability_sweep(CC_02, 40.0, 3)["per_n"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert all(r["vacuous"] and -math.inf < r["exponent"] < 0 for r in rows)


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


def test_numpy_integer_blocklengths_are_accepted():
    rho = random_bipartite(2, 2, 1)
    want = threshold_test_errors(rho, 2, 0.1, 0.5)
    assert threshold_test_errors(rho, np.int64(2), 0.1, 0.5) == want
    rate = universal_divergence_rate(rho, 0.5, 2)
    assert universal_divergence_rate(rho, 0.5, np.int32(2)) == rate
    assert len(achievability_sweep(rho, 0.1, np.int64(1))["per_n"]) == 1

"""The Frank-Wolfe gap that certifies the alternating minimization, the stack
of orders the solver runs on, and the eigensystems its solutions carry.

f(sigma) = min_tau D_alpha(rho || sigma x tau) is `gen_prmi_down`; its gradient
and gap are formed from the same arrays as inside the loop.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petzmi.divergences import ALPHA_ONE_WINDOW, _orders, _petz_terms
from petzmi.errors import InvalidInputError, NumericalDegradationError
from petzmi.exponents import _PrmiCache, alpha_derivative, direct_exponent, rate_curve
from petzmi.linalg import spectral_power
from petzmi.prmi import (
    _compose,
    _fw_gap,
    _half_step,
    _rho_power,
    _run_fixed_point,
    _solve_dd,
    fixed_point_map,
    gen_prmi_down,
    prmi_closed_form,
    prmi_down_down,
)
from petzmi.states import (
    BipartiteState,
    DensityOperator,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
    random_density,
)
import reference
from reference import tensor_product

GRADIENT_ALPHAS = (0.6, 0.8, 1.3, 1.7, 2.0)


def loop_arrays(alpha, rho, sigma):
    """(orders, value, s^(1-alpha), K) of one round at sigma, as the loop forms them."""
    a = _orders(np.array([alpha]))
    r = _rho_power(rho, a[0])
    value, t_vals, t_vecs, _, s_pow = _half_step(a, r, sigma.spectrum[None],
                                                 sigma.eigenvectors[None])
    _, _, _, k, _ = _half_step(a, r.transpose(0, 2, 1, 4, 3), t_vals, t_vecs)
    return a, value, s_pow, k


def gap(alpha, rho, sigma):
    a, value, s_pow, k = loop_arrays(alpha, rho, sigma)
    return float(_fw_gap(a, value, sigma.spectrum[None], sigma.eigenvectors[None], s_pow, k)[0][0])


def gradient(alpha, rho, sigma):
    """grad f, rotated back from the eigenbasis of sigma."""
    a, value, s_pow, k = loop_arrays(alpha, rho, sigma)
    h = _fw_gap(a, value, sigma.spectrum[None], sigma.eigenvectors[None], s_pow, k)[1][0]
    u = sigma.eigenvectors
    return u @ h @ u.conj().T


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
@pytest.mark.parametrize("alpha", GRADIENT_ALPHAS)
def test_gradient_matches_central_difference(dims, alpha):
    rng = np.random.default_rng(31 + 7 * dims[0] + int(100 * alpha))
    h = 1e-4
    for _ in range(3):
        rho = random_bipartite(*dims, rng)
        sigma = random_density(dims[0], rng)
        grad = gradient(alpha, rho, sigma)
        for _ in range(3):
            x = rng.standard_normal((dims[0],) * 2) + 1j * rng.standard_normal((dims[0],) * 2)
            x = x + x.conj().T
            x -= np.trace(x) / dims[0] * np.eye(dims[0])
            x *= 0.1 * float(np.min(sigma.spectrum)) / np.max(np.abs(np.linalg.eigvalsh(x)))
            plus = gen_prmi_down(alpha, rho, DensityOperator(sigma.matrix + h * x))[0]
            minus = gen_prmi_down(alpha, rho, DensityOperator(sigma.matrix - h * x))[0]
            fd = (plus - minus) / (2 * h)
            exact = float(np.real(np.trace(grad @ x)))
            assert exact == pytest.approx(fd, rel=2e-7, abs=1e-9)


def test_gap_is_zero_at_the_minimizer_and_positive_away_from_it():
    rho = random_bipartite(2, 3, 5)
    for alpha in GRADIENT_ALPHAS:
        sol = prmi_down_down(alpha, rho)
        assert sol.certified
        assert 0 <= sol.gap <= 1e-12
        assert abs(gap(alpha, rho, sol.sigma_a)) <= 1e-11
        assert gap(alpha, rho, rho.marginal_a) > 1e-6


@settings(max_examples=40, deadline=None)
@given(
    d_b=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    # the gap is that of the alternating minimization, which alpha = 1 skips
    alpha=st.floats(0.51, 2.0).filter(lambda a: abs(a - 1.0) > 1e-3),
    mix=st.floats(1e-6, 1.0),
)
def test_gap_bounds_the_suboptimality(d_b, seed, alpha, mix):
    """G(sigma) >= f(sigma) - dd: the gap brackets the minimum from below.
    On [1/2, 1) this is proven (f is convex there, see `_fw_gap`), for sigma
    of full support as here; on (1, 2] it is a tested property."""
    rng = np.random.default_rng(seed)
    rho = random_bipartite(2, d_b, rng)
    best = prmi_down_down(alpha, rho)
    sigma = DensityOperator((1 - mix) * best.sigma_a.matrix + mix * random_density(2, rng).matrix)
    f = gen_prmi_down(alpha, rho, sigma)[0]
    assert gap(alpha, rho, sigma) >= f - best.value - 1e-10


def test_stalled_start_runs_to_the_minimum():
    """Started next to the s = 1/2 boundary, a step-size stop ends after one
    round, 5.5e-9 above the minimum; the gap keeps the run going. The start is
    the loop's s = 0.501 minimizer, whose small eigenvalue (5.5e-14) is above
    the support cut; the closed form's (1e-151) is not."""
    rho = copy_cc_state([0.2, 0.8])
    start = _run_fixed_point(0.501, rho, rho.marginal_a).sigma_a
    warm = _run_fixed_point(0.52175, rho, start)
    cold = prmi_down_down(0.52175, rho)
    assert warm.iterations > 1
    assert warm.gap <= 1e-12
    assert warm.value == pytest.approx(cold.value, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    d_b=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.one_of(
        st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0, 2.0, exclude_min=True),
    ).filter(lambda a: abs(a - 1.0) > ALPHA_ONE_WINDOW),
)
def test_value_does_not_depend_on_the_start(d_b, seed, alpha):
    """Every fixed point is a global minimizer on (1/2, 2]: runs from I/d and
    from a full-rank random state reach the value of the run from rho_A, and
    each run certifies itself."""
    rng = np.random.default_rng(seed)
    rho = random_bipartite(2, d_b, rng)
    base = _run_fixed_point(alpha, rho, rho.marginal_a)
    assert base.certified
    for start in (DensityOperator(np.eye(2) / 2), random_density(2, rng)):
        run = _run_fixed_point(alpha, rho, start)
        assert run.certified
        assert abs(run.value - base.value) <= 1e-8


def test_loop_certifies_its_own_rows():
    rho = random_bipartite(2, 3, 11)
    single = _run_fixed_point(1.4, rho, rho.marginal_a)
    assert single.gap <= 1e-12 and single.residual <= 1e-11
    assert single.certified
    rows = _run_fixed_point(np.array([0.7, 1.4]), rho, rho.marginal_a)
    assert [row.certified for row in rows] == [True, True]
    # one round is not converged: its gap is above GAP_TOL
    assert not _run_fixed_point(1.4, rho, rho.marginal_a, max_iter=1).certified


def test_a_rising_round_raises(monkeypatch):
    # the rise check: a round whose value exceeds the last round's by more than
    # the slack stops the run and names the round and the order
    rho = random_bipartite(2, 3, 11)
    assert _run_fixed_point(1.4, rho, rho.marginal_a).iterations > 2
    calls = []

    def rising(orders, *args):
        value, *rest = _half_step(orders, *args)
        calls.append(1)
        # the second call is the A -> B half-step of round 2, which sets its
        # value: the B -> A step forms and decomposes its M itself
        return (value + 1e-3 if len(calls) == 2 else value, *rest)

    # the package exports a function named prmi, which hides the module
    monkeypatch.setattr(sys.modules["petzmi.prmi"], "_half_step", rising)
    with pytest.raises(NumericalDegradationError,
                       match=r"objective increased by \S+ at iteration 2 \(alpha = 1\.4\)"):
        _run_fixed_point(1.4, rho, rho.marginal_a)


def test_a_rising_extrapolation_is_redone(monkeypatch):
    """Round 3 decomposes the first secant step; a rise in round 4, which
    evaluates it, redoes the row from the plain iterate instead of raising."""
    rho = random_bipartite(2, 3, 11)
    plain = _run_fixed_point(1.4, rho, rho.marginal_a)
    calls = []

    def rising(orders, *args):
        value, *rest = _half_step(orders, *args)
        calls.append(1)
        return (value + 1e-3 if len(calls) == 4 else value, *rest)

    monkeypatch.setattr(sys.modules["petzmi.prmi"], "_half_step", rising)
    run = _run_fixed_point(1.4, rho, rho.marginal_a)
    assert run.certified
    assert run.value == pytest.approx(plain.value, abs=1e-12)


def test_a_secant_run_stops_on_a_small_plain_step():
    """On a pure 2x3 state from a random start at alpha = 0.58, secant steps
    reach a sigma whose gap reads 9e-13 while the plain step still moves it by
    4e-11: the row runs on until that step is at most 10 GAP_TOL, and it is
    certified, as the plain loop's run is, in fewer rounds."""
    rho = random_bipartite(2, 3, 0, rank=1)
    start = random_density(2, 100000)
    run = _run_fixed_point(0.58, rho, start)
    plain = reference._run_fixed_point(0.58, rho, start)
    assert plain.certified and run.certified
    assert run.iterations < plain.iterations
    assert run.value == pytest.approx(plain.value, abs=1e-12)


def test_the_secant_support_guard_takes_the_plain_step():
    """On the copy state at s = 0.501 from rho_A the minimizer's small
    eigenvalue is about 5.5e-14, and some secant steps would give a sigma under
    SECANT_RATIO: the guard (`bad` in `_run_fixed_point`) decomposes the plain
    M_A in their place. `prmi_down_down` answers this state by its closed
    form, so the loop is called directly. The run keeps sigma on supp(rho_A)
    and is certified at the closed form; without the guard a secant M has a
    negative eigenvalue and the run raises."""
    rho = copy_cc_state([0.2, 0.8])
    run = _run_fixed_point(0.501, rho, rho.marginal_a)
    assert run.certified and run.sigma_a.rank() == 2
    assert run.value == pytest.approx(prmi_closed_form(0.501, rho, "dd"), abs=1e-12)


def test_a_start_off_the_support_is_not_certified():
    """Below 1 a start that misses supp(rho_A) keeps its face, where the gap on
    supp(sigma) reads 0: the run stops there, uncertified, as its sigma lacks
    the rank of rho_A."""
    rho = copy_cc_state([0.2, 0.8])
    run = _run_fixed_point(0.7, rho, DensityOperator(np.diag([1.0, 0.0])))
    assert run.gap <= 1e-12
    assert run.value > prmi_down_down(0.7, rho).value + 3
    assert not run.certified


def test_start_check_reads_only_the_rows_above_one():
    """Above 1 a start must cover supp(rho_A); a row below 1 in the same stack
    may start off it, as the low orders' ten starts do not need the check."""
    rho = copy_cc_state([0.2, 0.8])
    off = DensityOperator(np.diag([1.0, 0.0]))
    low, high = _run_fixed_point(np.array([0.7, 1.4]), rho, [off, rho.marginal_a])
    assert low.value == _run_fixed_point(0.7, rho, off).value
    assert high.value == _run_fixed_point(1.4, rho, rho.marginal_a).value
    with pytest.raises(InvalidInputError):
        _run_fixed_point(np.array([0.7, 1.4]), rho, [rho.marginal_a, off])


def swap(rho):
    """rho_AB as a state on BA."""
    m = rho.matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b).transpose(1, 0, 3, 2)
    return BipartiteState(m.reshape(rho.matrix.shape), rho.d_b, rho.d_a)


@pytest.mark.parametrize("alpha", GRADIENT_ALPHAS)
def test_fixed_point_map_is_one_round(alpha):
    """fixed_point_map is the A -> B minimizer followed by the B -> A one."""
    rng = np.random.default_rng(23)
    rho = random_bipartite(2, 3, rng)
    sigma = random_density(2, rng)
    _, tau = gen_prmi_down(alpha, rho, sigma)
    _, expected = gen_prmi_down(alpha, swap(rho), tau)
    assert fixed_point_map(alpha, rho, sigma).matrix == pytest.approx(expected.matrix, abs=1e-12)


STACK_STATES = [
    copy_cc_state([0.2, 0.8]),
    pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2),
    random_bipartite(2, 2, 8000, rank=2),
    random_bipartite(2, 3, 8101),
    random_bipartite(3, 2, 8102),
]
STACK_ALPHAS = np.concatenate([np.linspace(0.501, 0.999, 9), [1.0, 1.3, 1.7, 2.0]])


@pytest.mark.parametrize("index", range(len(STACK_STATES)))
def test_stacked_rows_match_single_solves(index):
    # every order runs through the route table as one stack from rho_A: the
    # alpha = 1 window, the closed forms of the copy and pure states, and the
    # loop's rows for the others
    rho = STACK_STATES[index]
    rows = _solve_dd(list(STACK_ALPHAS), rho)
    for alpha, row in zip(STACK_ALPHAS, rows, strict=True):
        single = prmi_down_down(alpha, rho)
        assert row.alpha == single.alpha
        assert row.value == pytest.approx(single.value, abs=1e-12)
        assert row.certified == single.certified
        assert row.iterations == single.iterations
        assert abs(row.gap - single.gap) <= 1e-12
        if row.iterations:
            assert row.sigma_a.matrix == pytest.approx(single.sigma_a.matrix, abs=1e-12)


def test_loop_matches_the_loop_it_replaces():
    """Against the loop before the secant step and the gap on converging rows
    only (`reference._run_fixed_point`), row by row on stacks from rho_A:
    values at 1e-12 or the loop's slack near 1, the same certificates, sigma
    at 1e-9 and at most one more round; the rounds summed over all rows fall
    by at least a quarter."""
    states = STACK_STATES + [random_bipartite(3, 3, 0), random_bipartite(4, 4, 11)]
    alphas = np.array([a for a in STACK_ALPHAS if abs(a - 1.0) > ALPHA_ONE_WINDOW])
    tol = np.maximum(1e-12, 64 * np.finfo(float).eps * alphas / np.abs(alphas - 1.0))
    rounds = np.zeros(2, dtype=int)
    for rho in states:
        old = reference._run_fixed_point(alphas, rho, rho.marginal_a)
        new = _run_fixed_point(alphas, rho, rho.marginal_a)
        for before, after, bound in zip(old, new, tol):
            assert abs(after.value - before.value) <= bound
            assert after.certified == before.certified
            assert reference.trace_distance(after.sigma_a, before.sigma_a) <= 1e-9
            assert after.iterations <= before.iterations + 1
            rounds += before.iterations, after.iterations
    assert rounds[1] <= 0.75 * rounds[0]


def test_stacked_restarts_match_single_solves():
    """From each of several starts, the rows of a stacked run match the single
    runs from that start, and all reach the value of the start rho_A."""
    rho = random_bipartite(2, 2, 42)
    rng = np.random.default_rng(3)
    alphas = (0.7, 1.4)
    starts = [DensityOperator(np.eye(2) / 2)] + [random_density(2, rng) for _ in range(3)]
    for start in starts:
        rows = _run_fixed_point(np.array(alphas), rho, start)
        for alpha, row in zip(alphas, rows):
            single = _run_fixed_point(alpha, rho, start)
            assert row.value == pytest.approx(single.value, abs=1e-12)
            assert row.certified and single.certified
            assert row.value == pytest.approx(prmi_down_down(alpha, rho).value, abs=1e-9)


def test_rate_curve_and_exponent_match_single_solves():
    rho = random_bipartite(2, 3, 8104)
    grid = np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 25)
    for s, point in zip(grid, rate_curve(rho, grid)):
        single = prmi_down_down(s, rho)
        d = alpha_derivative(s, rho, single)
        assert point.rate == pytest.approx(single.value - s * (1 - s) * d, abs=1e-12)
        assert point.exponent == pytest.approx((1 - s) ** 2 * d, abs=1e-12)
    i_one = prmi_down_down(1.0, rho).value
    report = direct_exponent(rho, 0.45 * i_one)
    s = report.s_star
    assert report.exponent == pytest.approx(
        (1 - s) / s * (prmi_down_down(s, rho).value - 0.45 * i_one), abs=1e-12
    )


@pytest.mark.parametrize("index", range(len(STACK_STATES) + 2))
def test_rate_curve_matches_the_row_by_row_derivative(index):
    """The curve's 25 derivatives, one stacked sum, against the derivative formed
    row by row (with np.kron) from the same solutions, on the stack states and
    two more rank-deficient ones; one order lies 5e-5 from 1, where the
    derivative must not cancel."""
    rho = (STACK_STATES + [random_bipartite(2, 3, 19, rank=2),
                           random_bipartite(3, 3, 4, rank=3)])[index]
    grid = np.concatenate([np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 24), [1.0 - 5e-5]])
    assert 1e-4 > 1.0 - grid[-1] > ALPHA_ONE_WINDOW
    cache = _PrmiCache(rho)
    cache.solve(grid)
    for s, point in zip(grid, rate_curve(rho, grid)):
        sol = cache.solution(s)
        d = reference.alpha_derivative(s, rho, sol)
        assert point.rate == pytest.approx(sol.value - s * (1 - s) * d, abs=1e-12)
        assert point.exponent == pytest.approx((1 - s) ** 2 * d, abs=1e-12)


def test_solutions_carry_the_loop_eigensystems(monkeypatch):
    """sigma_a and tau_b come with the eigensystems the loop held: using them
    takes no further decomposition."""
    rho = random_bipartite(2, 3, 9)
    _ = (rho.marginal_a, rho.marginal_b)
    sol = prmi_down_down(1.4, rho)
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a) or original(a))
    for op in (sol.sigma_a, sol.tau_b):
        vals, vecs = op.spectrum, op.eigenvectors
        assert np.allclose((vecs * vals) @ vecs.conj().T, op.matrix, atol=1e-14)
    alpha_derivative(1.4, rho, sol)
    assert calls == []


def dense_alpha_derivative(alpha, rho, solution):
    """The derivative from the decomposition of the dense product sigma x tau."""
    lam, mu, w = _petz_terms(rho, tensor_product(solution.sigma_a, solution.tau_b))
    terms = spectral_power(lam, alpha)[:, None] * w * spectral_power(mu, 1.0 - alpha)
    q = float(np.sum(terms))
    q_prime = float(np.sum(terms * reference.log_ratio(lam, mu)))
    return -math.log(q) / (alpha - 1.0) ** 2 + q_prime / (q * (alpha - 1.0))


@pytest.mark.parametrize("index", range(len(STACK_STATES)))
def test_alpha_derivative_matches_dense_product(index):
    rho = STACK_STATES[index]
    for alpha in (0.55, 0.7, 0.95, 1.3, 2.0):
        sol = prmi_down_down(alpha, rho)
        got = alpha_derivative(alpha, rho, sol)
        assert got == pytest.approx(dense_alpha_derivative(alpha, rho, sol), abs=1e-12, rel=1e-12)


LOW_ORDERS = (0.0, 5e-324, 0.3, 0.5)
HIGH_ORDERS = np.array([a for a in np.linspace(0.51, 2.0, 26) if abs(a - 1.0) > 1e-3][:25])
DIFF_STACKS = {
    "k1-high": [np.array([a]) for a in (0.51, 0.75, 0.999, 1.3, 2.0)],
    "k1-low": [np.array([a]) for a in LOW_ORDERS],
    "k25-high": [HIGH_ORDERS],
    "k25-mixed": [np.concatenate([HIGH_ORDERS[:21], LOW_ORDERS])],
}


def _sigmas(d_a, rng):
    """A full-rank and a rank-deficient state on A."""
    return [random_density(d_a, rng), random_density(d_a, rng, rank=d_a - 1)]


@pytest.mark.parametrize("stack", DIFF_STACKS)
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_half_step_and_gap_match_the_code_they_replace(dims, stack):
    """The half-step with its order constants formed once, and the gap read
    from its s^(1-alpha), against the copies in `reference` of the code
    before: values, minimizers, M and the gap at 1e-12, at alpha = 0 and at
    5e-324, where 1/alpha overflows, too."""
    rng = np.random.default_rng(8 * dims[0] + dims[1])
    rho = random_bipartite(*dims, rng)
    for alphas in DIFF_STACKS[stack]:
        orders = _orders(alphas)
        r = _rho_power(rho, alphas)
        for sigma in _sigmas(dims[0], rng):
            k = alphas.size
            vals = np.repeat(sigma.spectrum[None], k, axis=0)
            vecs = np.repeat(sigma.eigenvectors[None], k, axis=0)
            value, t_vals, t_vecs, m, s_pow = _half_step(orders, r, vals, vecs)
            ref_value, ref_t_vals, ref_t_vecs, ref_m = reference._unhoisted_half_step(
                alphas, r, vals, vecs)
            for got, ref in ((value, ref_value), (t_vals, ref_t_vals), (m, ref_m),
                             (_compose(t_vals, t_vecs), _compose(ref_t_vals, ref_t_vecs))):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
            back = r.transpose(0, 2, 1, 4, 3)
            k_mat = _half_step(orders, back, t_vals, t_vecs)[3]
            ref_k_mat = reference._unhoisted_half_step(alphas, back, ref_t_vals, ref_t_vecs)[3]
            np.testing.assert_allclose(
                _fw_gap(orders, value, vals, vecs, s_pow, k_mat)[0],
                reference._unhoisted_fw_gap(alphas, ref_value, vals, vecs, ref_k_mat),
                rtol=1e-12, atol=1e-12)

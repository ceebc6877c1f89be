import math
import sys
import warnings

import numpy as np
import pytest

from petzmi import classical
from petzmi.divergences import petz_divergence, renyi_entropy
from petzmi.errors import DomainError, InvalidInputError, UnsupportedRegimeError
from petzmi.prmi import (
    _run_fixed_point,
    _small_alpha_starts,
    _solve_dd,
    fixed_point_map,
    gen_prmi_down,
    prmi,
    prmi_closed_form,
    prmi_down_down,
    prmi_up_down,
    prmi_up_up,
)
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
from reference import rmi_down_down as classical_dd
from reference import tensor_product, tensor_states, trace_distance

PURE_02 = pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2)
CC_02 = copy_cc_state([0.2, 0.8])


def test_up_up_equals_divergence_to_marginal_product(qubit_pair):
    rho = qubit_pair
    ref = tensor_product(rho.marginal_a, rho.marginal_b).matrix
    for alpha in (0.4, 1.0, 1.7):
        assert prmi_up_up(alpha, rho).value == pytest.approx(
            petz_divergence(alpha, rho, ref).value, abs=1e-12
        )


def test_gen_down_minimizer_is_optimal(qubit_pair):
    # the closed-form tau must beat nearby perturbations
    rho = qubit_pair
    alpha = 0.7
    sigma = rho.marginal_a
    value, tau = gen_prmi_down(alpha, rho, sigma)
    rng = np.random.default_rng(0)
    for _ in range(20):
        other = random_density(rho.d_b, rng)
        ref = tensor_product(sigma, other).matrix
        assert petz_divergence(alpha, rho, ref).value >= value - 1e-10
    ref = tensor_product(sigma, tau).matrix
    assert petz_divergence(alpha, rho, ref).value == pytest.approx(value, abs=1e-10)


def test_gen_down_is_floored_at_plus_zero():
    """On a full-rank state every sigma ties at D_0 = 0, and the one-sided value
    read rounding below it (down to -2e-15 over 200 sigmas): `_one_sided` floors
    it at +0, for gen_prmi_down as for ud and the loop's rows."""
    rho = random_bipartite(2, 2, 42)
    for seed in range(20):
        value, _ = gen_prmi_down(0.0, rho, random_density(2, seed))
        assert value >= 0.0 and math.copysign(1.0, value) == 1.0


def loop_or_window(alpha, rho):
    """The loop from rho_A, which `prmi_down_down` does not run on pure and
    copy-cc states, or the alpha = 1 route, where the loop does not run."""
    if alpha == 1.0:
        return prmi_down_down(alpha, rho)
    return _run_fixed_point(alpha, rho, rho.marginal_a)


@pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9, 1.0, 1.3, 1.8, 2.0])
def test_solver_matches_pure_closed_form(alpha):
    sol = loop_or_window(alpha, PURE_02)
    assert sol.value == pytest.approx(prmi_closed_form(alpha, PURE_02, "dd"), abs=1e-9)
    assert sol.certified


@pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9, 1.0, 1.3, 1.8, 2.0])
def test_solver_matches_copy_cc_closed_form(alpha):
    sol = loop_or_window(alpha, CC_02)
    assert sol.value == pytest.approx(prmi_closed_form(alpha, CC_02, "dd"), abs=1e-9)


CLOSED_FORM_STATES = [random_bipartite(d, d, seed, rank=1) for d in (2, 3) for seed in range(30)]
CLOSED_FORM_STATES.append(CC_02)


@pytest.mark.parametrize("alpha", [0.5001, 0.52, 0.55, 0.7, 1.5, 2.0])
def test_closed_form_states_are_certified_at_every_order(alpha):
    """Pure and copy-cc states take the closed form on (1/2, 2] too, where the
    loop from rho_A lost its certificate near 1/2 (sigma* ~ rho_A^(1/(2s-1))
    has eigenvalues under the support cut). The minimizer it carries attains
    the value."""
    for rho in CLOSED_FORM_STATES:
        sol = prmi_down_down(alpha, rho)
        assert sol.certified and sol.iterations == 0 and sol.gap == 0.0
        assert sol.value == prmi_closed_form(alpha, rho, "dd")
        if alpha >= 0.52:
            assert gen_prmi_down(alpha, rho, sol.sigma_a)[0] == pytest.approx(sol.value, abs=1e-10)


TABLE_STATES = {
    "pure": PURE_02,
    "copy-cc": CC_02,
    "generic": random_bipartite(2, 2, 42),
    "diagonal": cc_state(Pmf(np.array([[0.35, 0.15], [0.05, 0.45]]))),
}


@pytest.mark.parametrize("name", TABLE_STATES)
def test_route_table_stack_matches_single_solves(name):
    """One stack through `_solve_dd` gives, row by row, what `prmi_down_down`
    gives order by order: every route in one stack, the loop's rows from rho_A."""
    rho = TABLE_STATES[name]
    alphas = [0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0] + ([2.5] if name in ("pure", "copy-cc") else [])
    rows = _solve_dd(alphas, rho)
    for alpha, row in zip(alphas, rows, strict=True):
        single = prmi_down_down(alpha, rho)
        assert row.alpha == single.alpha and row.certified == single.certified
        assert row.value == single.value and row.iterations == single.iterations
    if name in ("generic", "diagonal"):  # no closed form: an order above 2 carries its error
        kept, rejected = _solve_dd([0.7, 2.5], rho)
        assert kept.value == prmi_down_down(0.7, rho).value
        assert isinstance(rejected, UnsupportedRegimeError)


def test_pure_closed_form_minimizer_is_marginal_power():
    """The loop from rho_A converges to the minimizer sigma ~ rho_A^(1/(2 alpha - 1))
    of a pure state, which `prmi_down_down` returns from the closed form."""
    alpha = 0.8
    from petzmi.linalg import power_on_support

    expected = power_on_support(PURE_02.marginal_a, 1 / (2 * alpha - 1))
    expected = expected.matrix / np.real(np.trace(expected.matrix))
    loop = _run_fixed_point(alpha, PURE_02, PURE_02.marginal_a)
    assert trace_distance(loop.sigma_a, expected) < 1e-8
    assert trace_distance(prmi_down_down(alpha, PURE_02).sigma_a, expected) < 1e-12


def test_alpha_one_returns_mutual_information(qubit_pair):
    sol = prmi_down_down(1.0, qubit_pair)
    assert sol.certified
    assert trace_distance(sol.sigma_a, qubit_pair.marginal_a) < 1e-12
    # matches the relative entropy to the marginal product
    assert sol.value == pytest.approx(prmi_up_up(1.0, qubit_pair).value, abs=1e-12)


def test_monotone_ordering_of_variants(qubit_pair):
    for alpha in (0.6, 0.8, 1.5, 2.0):
        uu = prmi_up_up(alpha, qubit_pair).value
        ud = prmi_up_down(alpha, qubit_pair).as_float()
        dd = prmi_down_down(alpha, qubit_pair).value
        assert dd <= ud + 1e-10
        assert ud <= uu + 1e-10


def test_objective_trace_monotone(qubit_pair):
    sol = prmi_down_down(0.8, qubit_pair)
    diffs = np.diff(sol.objective_trace)
    assert np.all(diffs <= 1e-11)
    assert sol.residual <= 1e-11


def test_fixed_point_of_solution(qubit_pair):
    sol = prmi_down_down(0.75, qubit_pair)
    mapped = fixed_point_map(0.75, qubit_pair, sol.sigma_a)
    assert trace_distance(mapped, sol.sigma_a) < 1e-10


def test_restarts_agree(qubit_pair):
    """Runs from I/d and from seven random full-rank states reach the value of
    the one start rho_A that prmi_down_down takes, and each certifies itself."""
    rng = np.random.default_rng(5)
    baseline = prmi_down_down(0.9, qubit_pair)
    starts = [DensityOperator(np.eye(2) / 2)] + [random_density(2, rng) for _ in range(7)]
    for start in starts:
        run = _run_fixed_point(0.9, qubit_pair, start)
        assert run.value == pytest.approx(baseline.value, abs=1e-9)
        assert run.certified


def test_cc_state_agrees_with_classical():
    pmf = Pmf(np.array([[0.35, 0.15], [0.05, 0.45]]))
    rho = cc_state(pmf)
    for alpha in (0.6, 0.8, 1.2, 2.0):
        sol = prmi_down_down(alpha, rho)
        cval, _, _ = classical_dd(alpha, pmf)
        assert sol.value == pytest.approx(cval, abs=1e-9)


def test_small_alpha_cc_runs_the_loop_from_faces():
    pmf = Pmf(np.array([[0.35, 0.15], [0.05, 0.45]]))
    sol = prmi_down_down(0.3, cc_state(pmf))
    cval, _, _ = classical_dd(0.3, pmf)
    assert sol.value == pytest.approx(cval, abs=1e-9)
    # a loop run: finite gap and residual, but below 1/2 no certificate
    assert not sol.certified and sol.iterations > 0
    assert math.isfinite(sol.gap) and math.isfinite(sol.residual)


@pytest.mark.parametrize("table, alpha, margin", [
    # the ten-start loop stops at a stationary point 0.0135 above the minimum,
    # which the runs from the faces of the simplex reach
    pytest.param([[0.64, 0.02, 0], [0, 0.15, 0.19]], 0.02, 1e-2, id="search-wins"),
    # here the simplex search stopped 8.3e-4 above the ten-start loop
    pytest.param([[0.35, 0.15, 0], [0, 0.05, 0.45]], 0.25, -1e-9, id="loop-wins"),
])
def test_diagonal_search_against_ten_start_loop(table, alpha, margin):
    rho = cc_state(Pmf(np.array(table)))
    starts = [rho.marginal_a, *_small_alpha_starts(rho.d_a)]
    loop = min(run.value for run in _run_fixed_point(np.full(len(starts), alpha), rho, starts))
    assert prmi_down_down(alpha, rho).value <= loop - margin


def _dirichlet_pmfs():
    """30 seeded Dirichlet pmfs, d_A in {2, 3} and d_B in {2, 3, 5}, one in
    five with a zero row."""
    rng = np.random.default_rng(2406)
    for k in range(30):
        d_a, d_b = (2, 3)[k % 2], (2, 3, 5)[k % 3]
        table = rng.dirichlet(np.full(d_a * d_b, 0.7)).reshape(d_a, d_b)
        if k % 5 == 4:
            table[k % d_a] = 0.0
        yield Pmf(table / table.sum())


def test_diagonal_loop_from_faces_never_exceeds_the_simplex_search():
    """Below 1/2 a diagonal state runs the loop from rho_A and the faces of the
    simplex over supp(rho_A); the simplex search of `classical` is the
    independent estimate it must never exceed."""
    alphas = np.array([0.0, 0.02, 0.25, 0.5])
    for pmf in _dirichlet_pmfs():
        rho = cc_state(pmf)
        for sol in _solve_dd(alphas, rho):
            assert sol.value <= classical.rmi_down_down(sol.alpha, pmf)[0] + 1e-12, pmf.table


def test_the_loop_wins_pmf_reaches_the_face_minimum():
    """The simplex search stopped at 0.230947 on this pmf at alpha = 1/4, the
    ten-start loop at 0.230114; the loop from the faces of the simplex reads
    0.230114 too."""
    rho = cc_state(Pmf(np.array([[0.35, 0.15, 0], [0, 0.05, 0.45]])))
    assert prmi_down_down(0.25, rho).value <= 0.2301142829


def test_near_copy_pmf_at_one_half_runs_the_secant(monkeypatch):
    """A 3x5 pmf within 1e-5 of a copy state: at alpha = 1/2 the plain loop
    crawled, each row of the stack from rho_A and the faces taking 1,633 to
    1,803 rounds. f is convex at 1/2 too, so the secant step runs there: every
    row takes at most 300, and the value stays under the simplex search."""
    t = np.random.default_rng(1).uniform(3e-8, 7.3e-7, (3, 5))
    t[0, 0], t[1, 1], t[2, 2] = 0.3458, 0.3041, 0.3501
    pmf = Pmf(t / t.sum())
    runs = []

    def recording(*args):
        rows = _run_fixed_point(*args)
        runs.extend(rows)
        return rows

    monkeypatch.setattr(sys.modules["petzmi.prmi"], "_run_fixed_point", recording)
    value = prmi_down_down(0.5, cc_state(pmf)).value
    assert len(runs) == 8 and all(run.iterations <= 300 for run in runs)
    assert value <= classical.rmi_down_down(0.5, pmf)[0] + 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_small_alpha_search_is_nonnegative_at_zero(dims):
    # full-rank generic states, whose minimum 0 rounds to about -1e-15
    for seed in range(3):
        sol = prmi_down_down(0.0, random_bipartite(*dims, seed))
        assert sol.value >= 0.0
        # the loop's own trace, which no round raises beyond rounding
        assert np.all(np.diff(sol.objective_trace) <= 1e-12)


def test_small_alpha_starts_are_decomposed_once(monkeypatch):
    rho = random_bipartite(2, 2, 42)
    first = prmi_down_down(0.3, rho)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    second = prmi_down_down(0.3, rho)
    # the loop decomposes stacks of shape (k, 2, 2); a start would be one 2 x 2
    assert shapes and (2, 2) not in shapes
    assert second.value == first.value
    assert np.array_equal(second.sigma_a.matrix, first.sigma_a.matrix)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
def test_dd_of_product_state_is_positive_zero(alpha):
    product = np.kron(random_density(2, 1).matrix, random_density(3, 2).matrix)
    pmf = Pmf(np.array([[0.06, 0.14], [0.24, 0.56]]))
    for rho in (cc_state(pmf), BipartiteState(product, 2, 3)):
        value = prmi_down_down(alpha, rho).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 10.0])
def test_a_correlation_far_below_the_entries_is_not_a_product(alpha):
    """copy-cc of (1 - 1e-13, 1e-13) is within 1e-13 of rho_A x rho_B entry by
    entry, yet dd is H_(alpha/(2 alpha - 1))(p), 7e-10 to 3e-7 here: the closed
    form answers it, not the product route's 0."""
    rho = copy_cc_state([1 - 1e-13, 1e-13])
    want = prmi_closed_form(alpha, rho, "dd")
    assert want > 5e-10
    assert prmi_down_down(alpha, rho).value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_a_near_product_generic_state_above_two_is_rejected():
    """A generic state 1e-13 away from a product is no product: above 2 it is
    rejected like any generic state, not answered with a certified 0."""
    product = np.kron(random_density(2, 1).matrix, random_density(3, 2).matrix)
    mixed = (1 - 1e-13) * product + 1e-13 * random_bipartite(2, 3, 5).matrix
    with pytest.raises(UnsupportedRegimeError):
        prmi_down_down(2.5, BipartiteState(mixed, 2, 3))
    assert prmi_down_down(2.5, BipartiteState(product, 2, 3)).value == 0.0


@pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-300, 1e-200])
def test_tiny_orders_match_alpha_zero(alpha):
    # M^(1/alpha) used to under- or overflow here, and ud and dd read nan or -inf
    rho = random_bipartite(2, 3, 0, rank=2)
    for variant in (prmi_up_down, prmi_down_down):
        assert variant(alpha, rho).value == pytest.approx(variant(0.0, rho).value, abs=1e-12)


def _diagonal_state(shape, seed):
    table = np.random.default_rng(seed).random(shape)
    return cc_state(Pmf(table / table.sum()))


@pytest.mark.parametrize("rho", [
    random_bipartite(2, 2, 0),
    random_bipartite(2, 2, 1),
    random_bipartite(2, 3, 0),
    random_bipartite(2, 3, 1),
    random_bipartite(2, 2, 2, rank=2),
    pytest.param(random_bipartite(2, 2, 3, rank=2), id="rank2_seed3"),
    _diagonal_state((3, 3), 0),
    _diagonal_state((3, 3), 1),
    _diagonal_state((2, 3), 0),
    _diagonal_state((2, 3), 1),
    *[pytest.param(random_bipartite(3, 3, seed), id=f"qutrit{seed}") for seed in range(3)],
])
def test_grid_search_meets_fixed_point_at_half(rho):
    # alpha = 1/2 is the last uncertified order (the loop from ten starts, or a
    # grid on the classical reduction), 1/2 + 1e-6 a certified fixed point; dd
    # is continuous in alpha, and its slope is O(1) here
    grid = prmi_down_down(0.5, rho)
    fixed = prmi_down_down(0.5 + 1e-6, rho)
    assert not grid.certified and fixed.certified
    assert abs(grid.value - fixed.value) <= 1e-5


def test_small_alpha_generic_state_uses_loop(qubit_pair):
    sol = prmi_down_down(0.4, qubit_pair)
    # the loop from rho_A and nine other starts can only overestimate; it must
    # still sit below the singly minimized variant
    assert sol.value <= prmi_up_down(0.4, qubit_pair).as_float() + 1e-6
    # f is not convex below 1/2: a stationary point, not a certified minimum
    assert not sol.certified
    assert math.isfinite(sol.residual) and math.isfinite(sol.gap)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1, 1.0])
def test_gen_down_rejects_orders_outside_its_domain(qubit_pair, alpha):
    with pytest.raises(DomainError):
        gen_prmi_down(alpha, qubit_pair, qubit_pair.marginal_a)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1, 1.0])
def test_fixed_point_map_rejects_invalid_orders(qubit_pair, alpha):
    with pytest.raises(DomainError):
        fixed_point_map(alpha, qubit_pair, qubit_pair.marginal_a)


@pytest.mark.parametrize("alpha", [1.0 - 5e-7, 1.0 + 5e-7])
def test_gen_down_runs_next_to_one(qubit_pair, alpha):
    """Next to alpha = 1, where it used to raise, ud lies between dd and uu to
    1e-13, and its tau next to rho_B."""
    rho = qubit_pair
    value, tau = gen_prmi_down(alpha, rho, rho.marginal_a)
    assert prmi_down_down(alpha, rho).value - 1e-13 <= value <= prmi_up_up(alpha, rho).value + 1e-13
    assert trace_distance(tau, rho.marginal_b) <= 1e-5


@pytest.mark.parametrize("alpha", [1.0 - 5e-7, 1.0 + 5e-7])
def test_fixed_point_map_runs_next_to_one(qubit_pair, alpha):
    """Next to alpha = 1, where it used to raise, one round from rho_A moves
    sigma by O(|alpha - 1|)."""
    rho = qubit_pair
    assert trace_distance(fixed_point_map(alpha, rho, rho.marginal_a), rho.marginal_a) <= 1e-5


def test_a_start_orthogonal_to_rho_a_raises_without_warnings():
    """A start orthogonal to supp(rho_A) makes the first M vanish: the loop
    raises before it forms a difference of infinite values, and the one-sided
    minimum is inf, with no minimizer."""
    rho = copy_cc_state([1, 0])
    sigma = np.diag([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="orthogonal"):
            fixed_point_map(0.7, rho, sigma)
        assert gen_prmi_down(0.7, rho, sigma) == (math.inf, None)


def test_a_start_with_real_eigenvectors_keeps_the_complex_iterates():
    """The loop holds its eigenvector stacks complex: a start whose held
    eigenvectors are real gives the round of the same start held complex, with
    no imaginary part cast away."""
    rho, vals = random_bipartite(2, 2, 42), np.array([0.6, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = fixed_point_map(0.8, rho, DensityOperator.from_eigensystem(vals, np.eye(2)))
        held = fixed_point_map(0.8, rho, DensityOperator.from_eigensystem(
            vals, np.eye(2, dtype=complex)))
    assert np.abs(real.matrix - held.matrix).max() <= 1e-14


def test_a_start_that_misses_rho_a_above_one_raises():
    with pytest.raises(InvalidInputError, match="cover"):
        fixed_point_map(1.5, CC_02, np.diag([1.0, 0.0]))


def test_alpha_above_two_rejected(qubit_pair):
    with pytest.raises(UnsupportedRegimeError):
        prmi_down_down(2.3, qubit_pair)


def test_additivity_on_tensor_products():
    rho = random_bipartite(2, 2, 8)
    tau = random_bipartite(2, 2, 9)
    joint = tensor_states(rho, tau)
    for alpha in (0.7, 1.4):
        lhs = prmi_down_down(alpha, joint).value
        rhs = prmi_down_down(alpha, rho).value + prmi_down_down(alpha, tau).value
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_product_state_gives_zero():
    a = random_density(2, 1)
    b = random_density(2, 2)
    rho = BipartiteState(np.kron(a.matrix, b.matrix), 2, 2)
    for alpha in (0.6, 1.0, 1.8):
        assert prmi_down_down(alpha, rho).value == pytest.approx(0.0, abs=1e-9)


def test_dispatch_names(qubit_pair):
    assert prmi(1.0, qubit_pair, "uu").value == pytest.approx(
        prmi(1.0, qubit_pair, "dd").value, abs=1e-12
    )


def test_pure_closed_forms_all_variants():
    # spot values frozen from the defining entropy formulas at p = 0.2
    h = lambda a: renyi_entropy(a, PURE_02.marginal_a)
    assert prmi_closed_form(0.75, PURE_02, "uu") == pytest.approx(2 * h(1.5), abs=1e-12)
    assert prmi_closed_form(0.75, PURE_02, "ud") == pytest.approx(2 * h(5 / 3), abs=1e-12)
    assert prmi_closed_form(0.75, PURE_02, "dd") == pytest.approx(2 * h(2.0), abs=1e-12)
    assert prmi_closed_form(0.25, PURE_02, "dd") == pytest.approx(
        (4 / 3) * (-math.log(0.8)), abs=1e-12
    )


def test_monotonicity_check_allows_rounding_near_alpha_one():
    # the objective (alpha/(alpha-1)) log tr M^(1/alpha) scales rounding by
    # alpha/|alpha-1|; these solves tripped the fixed 1e-11 slack
    cases = [(seed, 1 + h) for seed in range(5000, 5200) for h in (-1e-4, 1e-4)]
    cases += [(seed, 1 + h) for seed in range(5000, 5010) for h in (-2e-6, 2e-6)]
    for seed, alpha in cases:
        sol = prmi_down_down(alpha, random_bipartite(2, 2, seed))
        assert sol.certified


def test_up_up_on_pure_state_with_small_schmidt_coefficient():
    rng = np.random.default_rng(92)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    rho = pure_bipartite(v, 3, 3)
    # 2 H_{3 - 2 alpha} of the marginal; its smallest eigenvalue is ~4e-4, so
    # the marginal product's negative power has entries near 1e6
    assert prmi_up_up(2.0, rho).value == pytest.approx(
        2.0 * renyi_entropy(-1.0, rho.marginal_a), abs=1e-8
    )


@pytest.mark.parametrize("alpha", [1.5, 1.8, 2.0, 2.2, 2.5])
def test_up_up_on_pure_state_with_tiny_schmidt_probability(alpha):
    # smallest Schmidt probability 1.2e-6: the marginal product has an
    # eigenvalue near 1e-12 that mu^(1 - alpha) amplifies, so it must keep
    # its relative accuracy, as the Kronecker spectrum of its factors does
    rng = np.random.default_rng(335)
    rho = pure_bipartite(rng.standard_normal(9) + 1j * rng.standard_normal(9), 3, 3)
    assert prmi_up_up(alpha, rho).value == pytest.approx(
        2.0 * renyi_entropy(3.0 - 2.0 * alpha, rho.marginal_a), abs=1e-9
    )


def test_dd_of_product_state_is_not_negative():
    rho = BipartiteState(np.kron(random_density(2, 1).matrix, random_density(2, 2).matrix), 2, 2)
    assert prmi_down_down(2.0, rho).value >= 0.0


def test_a_sigma_that_misses_the_support_of_rho_a_gives_inf_above_one():
    assert gen_prmi_down(1.5, random_bipartite(2, 2, 42), np.diag([1.0, 0.0])) == (math.inf, None)


def test_an_unknown_variant_and_a_large_alphabet_are_refused():
    with pytest.raises(InvalidInputError, match="unknown variant"):
        prmi(0.5, random_bipartite(2, 2, 42), "xx")
    with pytest.raises(UnsupportedRegimeError, match="size <= 3"):
        classical.rmi_down_down(0.3, Pmf(np.full((4, 2), 0.125)))

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from petzmi import exponents, linalg
from petzmi.divergences import relative_entropy_variance
from petzmi.errors import DomainError, UnsupportedRegimeError
from petzmi.exponents import (
    _solved,
    alpha_derivative,
    direct_exponent,
    r_half_threshold,
    rate_curve,
)
from petzmi.prmi import _solve_dd, prmi_down_down
from petzmi.states import (BipartiteState, Pmf, cc_state, copy_cc_state, pure_bipartite,
                           random_bipartite)
from reference import _illinois_root, tensor_product

CC_02 = copy_cc_state([0.2, 0.8])
LO, HI = 0.5 + 1e-4, 1.0 - 1e-4
RATE_FRACTIONS = (0.1, 0.45, 0.8, 0.99)
DIFFERENTIAL_STATES = [
    copy_cc_state([0.2, 0.8]),
    pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2),
    random_bipartite(2, 2, 8000, rank=2),
] + [random_bipartite(2, 2 + k % 2, 8100 + k) for k in range(15)]


def golden_section_exponent(rho, rate):
    """(exponent, s_star) of the 60-round golden-section search that the root
    search on psi(s) = rate replaced, kept as its reference. Every order is a
    `prmi_down_down` solve."""
    value = functools.cache(lambda s: prmi_down_down(s, rho).as_float())
    if rate >= value(1.0):
        return 0.0, None

    def objective(s):
        return ((1.0 - s) / s) * (value(s) - rate)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = LO, HI
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    s_star = (a + b) / 2
    best = objective(s_star)
    for s in (LO, HI):
        v = objective(s)
        if v > best:
            s_star, best = s, v
    return max(best, 0.0), s_star


def test_zero_exponent_at_and_above_mutual_information():
    i_one = prmi_down_down(1.0, CC_02).value
    for rate in (i_one, i_one + 0.1, 2.0):
        report = direct_exponent(CC_02, rate)
        assert report.exponent == 0.0
        assert report.s_star is None


def test_rate_must_be_a_nonnegative_number():
    for rate in (math.nan, -0.1):
        with pytest.raises(DomainError):
            direct_exponent(CC_02, rate)
    assert direct_exponent(CC_02, math.inf).exponent == 0.0


def test_positive_exponent_below_mutual_information():
    report = direct_exponent(CC_02, 0.3)
    assert report.exponent > 0
    assert 0.5 < report.s_star < 1.0
    assert report.guaranteed_exact


def test_exponent_monotone_in_rate():
    rates = [0.1, 0.2, 0.3, 0.4]
    exps = [direct_exponent(CC_02, r).exponent for r in rates]
    assert all(a >= b - 1e-12 for a, b in zip(exps, exps[1:]))


def test_matches_dense_grid():
    rate = 0.25
    report = direct_exponent(CC_02, rate)
    grid = np.linspace(0.5 + 1e-4, 1 - 1e-4, 500)
    best = max(((1 - s) / s) * (prmi_down_down(s, CC_02).value - rate) for s in grid)
    assert report.exponent == pytest.approx(best, abs=1e-6)
    assert report.exponent >= best - 1e-12


def test_copy_cc_threshold_is_zero():
    # perfectly correlated states admit positive exponents at every positive rate
    assert r_half_threshold(CC_02, {}) == pytest.approx(0.0, abs=1e-4)


def test_pure_state_threshold_bounds():
    rho = pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2)
    r = r_half_threshold(rho, {})
    i_half = prmi_down_down(0.5 + 1e-6, rho).value
    i_zero = prmi_down_down(0.0, rho).value
    assert i_zero - 1e-3 <= r <= i_half + 1e-3


def test_alpha_derivative_at_one_is_half_variance():
    rho = random_bipartite(2, 2, 13)
    v = relative_entropy_variance(
        rho, tensor_product(rho.marginal_a, rho.marginal_b).matrix
    )
    assert alpha_derivative(1.0, rho) == pytest.approx(v / 2, abs=1e-12)


def test_alpha_derivative_matches_finite_difference():
    rho = random_bipartite(2, 2, 17)
    for alpha in (0.7, 0.85, 1.3):
        h = 1e-5
        fd = (
            prmi_down_down(alpha + h, rho).value - prmi_down_down(alpha - h, rho).value
        ) / (2 * h)
        assert alpha_derivative(alpha, rho) == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("rho", [copy_cc_state([0.2, 0.8]), random_bipartite(2, 2, 3, rank=1)],
                         ids=["copy-cc", "pure"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5])
def test_alpha_derivative_without_minimizers_names_the_order(rho, alpha):
    """At alpha <= 1/2 the closed form of pure and copy-cc states carries no
    minimizers to hold fixed: DomainError naming alpha."""
    with pytest.raises(DomainError, match=f"alpha = {alpha!r}"):
        alpha_derivative(alpha, rho)


def test_rate_curve_and_exponent_compose_no_minimizer_matrix(monkeypatch):
    """The minimizers are read as eigensystems only: no sigma or tau matrix is
    composed (`HermitianOperator.matrix` of an operator built from an
    eigensystem composes it through `linalg._compose`)."""
    def composing(vals, vecs):
        raise AssertionError("a minimizer's matrix was composed")

    rho = random_bipartite(2, 3, 8104)
    _ = (rho.marginal_a, rho.marginal_b)
    monkeypatch.setattr(linalg, "_compose", composing)
    rate_curve(rho, np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 25))
    i_one = prmi_down_down(1.0, rho).value
    for frac in (0.1, 0.45, 1.2):
        direct_exponent(rho, frac * i_one)


def test_rate_curve_round_trip():
    points = rate_curve(CC_02, [0.6, 0.75, 0.9])
    for p in points:
        back = direct_exponent(CC_02, p.rate)
        assert back.exponent == pytest.approx(p.exponent, abs=1e-6)
    # the rate climbs toward the mutual information as s -> 1, while the
    # exponent decays to zero
    rates = [p.rate for p in points]
    exps = [p.exponent for p in points]
    assert all(a <= b + 1e-6 for a, b in zip(rates, rates[1:]))
    assert all(a >= b - 1e-6 for a, b in zip(exps, exps[1:]))


def test_copy_state_curve_matches_its_closed_form():
    """The 25-point curve of the CLI on copy [0.2, 0.8] against I_s =
    H_{s/(2s-1)}(p) in 40 digits. dI/ds is read at the returned minimizers, so
    it carries their error to first order: the rows near s = 1/2, where the
    loop converges slowest, are the test."""
    mpmath = pytest.importorskip("mpmath")

    def closed_form(s):
        beta = s / (2 * s - 1)
        return mpmath.log(sum((mpmath.mpf(x) / 5) ** beta for x in (1, 4))) / (1 - beta)

    grid = np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 25)
    with mpmath.workdps(40):
        for point in rate_curve(CC_02, grid):
            # the stack the curve reads certifies every row, as `exponent --strict` checks
            assert point.certified
            s = mpmath.mpf(point.s)
            d = mpmath.diff(closed_form, s)
            rate, exponent = closed_form(s) - s * (1 - s) * d, (1 - s) ** 2 * d
            assert point.rate == pytest.approx(float(rate), abs=1e-10)
            assert point.exponent == pytest.approx(float(exponent), abs=1e-10)


def test_orders_next_to_one_stay_below_the_mutual_information():
    # the loop's value (s/(s-1)) log tr M^(1/s) rounds like eps s/|1-s|: taken
    # as I_s it read 9.2e-7 above I(A:B) at s = 1 - 1e-9, and the curve's rate
    # there exceeded I(A:B). I_s is D_s at the minimizers, exact next to 1
    rho = random_bipartite(2, 2, 42)
    i_one = prmi_down_down(1.0, rho).value
    grid = [1.0 - 1e-8, 1.0 - 1e-9]
    for s, point in zip(grid, rate_curve(rho, grid), strict=True):
        assert point.rate <= i_one
        assert _solved(rho, {}, [s])[0][0].as_float() == prmi_down_down(s, rho).value


def test_a_rate_above_psi_at_the_right_end_puts_s_star_there():
    """On copy [0.2, 0.8], psi(1 - 1e-4) = 0.5003717 < 0.50038 < I(A:B) = 0.5004024:
    g <= 0 on the whole search interval, so s* is its right end, and the
    exponent is read at I_s = H_{s/(2s-1)}(p) there."""
    rate = 0.50038
    report = direct_exponent(CC_02, rate)
    assert report.s_star == HI and report.certified
    beta = HI / (2 * HI - 1)
    i_hi = math.log(0.2**beta + 0.8**beta) / (1 - beta)
    assert report.exponent == pytest.approx((1 - HI) / HI * (i_hi - rate), rel=1e-6)
    assert report.exponent > 0


def test_root_search_bisects_when_the_secant_step_rounds_onto_an_end():
    """With g(a) = -1e-300 at a = 1/2 the secant step (g(b) a - g(a) b)/(g(b) -
    g(a)) rounds to a, and so does every higher-order inverse interpolation:
    each stack of `_stacked_root` takes the midpoint and its quarter points
    instead, and the search still brackets the root."""
    stacks = []

    def g(points):
        stacks.append(list(points))
        return [x - 0.5 - 1e-300 for x in points]

    s_star, a, b = exponents._stacked_root(g, {0.5: -1e-300, 1.0: 0.5})
    assert stacks[0] == [0.625, 0.75, 0.875]
    assert all(0.5 < x < 1.0 for stack in stacks for x in stack)
    assert a == 0.5 and 0 < b - a <= exponents.ROOT_WIDTH
    assert s_star == 0.5


def test_rate_curve_rejects_bad_parameter():
    with pytest.raises(DomainError):
        rate_curve(CC_02, [0.4])
    with pytest.raises(DomainError):
        direct_exponent(CC_02, -0.1)


def test_random_state_exponent_positive_below_mi():
    rho = random_bipartite(2, 2, 21)
    i_one = prmi_down_down(1.0, rho).value
    report = direct_exponent(rho, 0.5 * i_one)
    assert report.exponent > 0
    assert direct_exponent(rho, 1.5 * i_one).exponent == 0.0


@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_STATES)))
def test_root_search_matches_golden_section(index):
    rho = DIFFERENTIAL_STATES[index]
    i_one = prmi_down_down(1.0, rho).value
    for frac in RATE_FRACTIONS:
        rate = frac * i_one
        report = direct_exponent(rho, rate)
        exponent, s_star = golden_section_exponent(rho, rate)
        assert report.exponent == pytest.approx(exponent, abs=1e-12)
        if LO < report.s_star < HI:
            assert report.s_star == pytest.approx(s_star, abs=1e-6)


def illinois_exponent(rho, rate):
    """(exponent, s_star) of the search that the stacked search replaced: the
    opening stack without nodes, then Illinois regula falsi on g(s) = psi(s) -
    rate, one order per step, through the same memo table of `_solved`."""
    table, h = {}, exponents.R_HALF_STEP
    _solved(rho, table, [0.5 + h, 0.5 + 2 * h, LO, HI])

    def g(s):
        return exponents._psi(s, _solved(rho, table, [s])[0]) - rate

    def objective(s):
        return ((1.0 - s) / s) * (_solved(rho, table, [s])[0][0].as_float() - rate)

    g_lo, g_hi = g(LO), g(HI)
    s_star = LO if g_lo >= 0 else HI if g_hi <= 0 else _illinois_root(g, LO, HI, g_lo, g_hi)
    s_star = max((s_star, LO, HI), key=objective)
    return max(objective(s_star), 0.0), s_star


@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_STATES)))
def test_stacked_search_matches_illinois(index):
    """The stacked search against the Illinois search it replaced: the same
    exponent to 1e-12 and the same s* to 1e-8."""
    rho = DIFFERENTIAL_STATES[index]
    i_one = prmi_down_down(1.0, rho).value
    for frac in RATE_FRACTIONS:
        report = direct_exponent(rho, frac * i_one)
        exponent, s_star = illinois_exponent(rho, frac * i_one)
        assert report.exponent == pytest.approx(exponent, abs=1e-12)
        assert report.s_star == pytest.approx(s_star, abs=1e-8)


STACK_STATES = [random_bipartite(2, 2 + k % 2, k // 2) for k in range(20)]


def recorded_stacks(monkeypatch) -> list:
    """The stacks of orders that `_solved` hands the route table, as recorded
    from now on."""
    stacks = []

    def counting_table(alphas, rho):
        stacks.append(list(alphas))
        return _solve_dd(alphas, rho)

    monkeypatch.setattr(exponents, "_solve_dd", counting_table)
    return stacks


@pytest.mark.parametrize("rho", STACK_STATES,
                         ids=[f"{r.d_a}x{r.d_b}-{k // 2}" for k, r in enumerate(STACK_STATES)])
def test_stacks_per_exponent(rho, monkeypatch):
    """On random 2x2 and 2x3 states a report solves at most three stacks (the
    opening and two refinements), and one when s* is an end of the search."""
    stacks = recorded_stacks(monkeypatch)
    i_one = prmi_down_down(1.0, rho).value
    for frac in RATE_FRACTIONS:
        stacks.clear()
        report = direct_exponent(rho, frac * i_one)
        assert len(stacks) == 1 if report.s_star in (LO, HI) else len(stacks) <= 3


def test_a_report_at_an_end_solves_one_stack(monkeypatch):
    """s* at the right end (copy [0.2, 0.8] at rate 0.50038) and at the left
    end (a generic 3x3 state at 0.1 I(A:B)): the opening stack alone."""
    stacks = recorded_stacks(monkeypatch)
    rho = random_bipartite(3, 3, 0)
    for state, rate, end in ((CC_02, 0.50038, HI), (rho, 0.1 * prmi_down_down(1.0, rho).value, LO)):
        stacks.clear()
        assert direct_exponent(state, rate).s_star == end
        assert len(stacks) == 1


def uncertifying(orders):
    """A route table that withholds the certificate of the given orders."""
    def table(alphas, rho):
        return [replace(sol, certified=False) if alpha in orders else sol
                for alpha, sol in zip(alphas, _solve_dd(alphas, rho))]
    return table


def test_an_uncertified_node_the_report_does_not_read_leaves_it_certified(monkeypatch):
    """The opening nodes away from s* are not read: withholding their
    certificates changes nothing in the report."""
    rho = DIFFERENTIAL_STATES[4]
    rate = 0.45 * prmi_down_down(1.0, rho).value
    report = direct_exponent(rho, rate)
    assert report.certified and LO < report.s_star < HI
    far = {s for s in exponents._NODES if abs(s - report.s_star) > 0.01}
    assert far
    monkeypatch.setattr(exponents, "_solve_dd", uncertifying(far))
    assert direct_exponent(rho, rate) == report


@pytest.mark.parametrize("which", ["s_star", "lo", "hi", "r_half"])
def test_an_uncertified_solve_the_report_reads_withdraws_its_certificate(which, monkeypatch):
    """s*, the ends of the search interval and R_(1/2)'s orders are read:
    withholding one of their certificates withdraws the report's."""
    rho = DIFFERENTIAL_STATES[4]
    rate = 0.45 * prmi_down_down(1.0, rho).value
    report = direct_exponent(rho, rate)
    order = {"s_star": report.s_star, "lo": LO, "hi": HI,
             "r_half": 0.5 + exponents.R_HALF_STEP}[which]
    monkeypatch.setattr(exponents, "_solve_dd", uncertifying({order}))
    assert direct_exponent(rho, rate) == replace(report, certified=False)


NEAR_PURE = BipartiteState((1 - 1e-12) * random_bipartite(2, 2, 38, rank=1).matrix
                           + 1e-12 * random_bipartite(2, 2, 1038, rank=1).matrix, 2, 2)


def test_near_pure_exponent_solves_do_not_stall(monkeypatch):
    """On a pure state mixed with 1e-12 of another, the minimizer at s = 0.502
    has lambda_min/lambda_max = 2.3e-14. Offered as the start at s = 0.5606,
    which the former search reached next, it stalled the loop for all 10,000
    rounds and left that solve, and the report at rate 0.1, uncertified. Every
    order starts from rho_A: each solve takes at most 100 rounds."""
    table, h = {}, exponents.R_HALF_STEP
    _solved(NEAR_PURE, table, [0.5 + h, 0.5 + 2 * h, LO, HI])
    ((sol, _),) = _solved(NEAR_PURE, table, [0.5605581850357393])
    assert sol.certified and sol.iterations <= 100
    tables = recorded_tables(monkeypatch)
    assert direct_exponent(NEAR_PURE, 0.1).certified
    (table,) = tables
    assert all(sol.iterations <= 100 for sol, _ in table.values())


@pytest.mark.parametrize("rho", [CC_02, DIFFERENTIAL_STATES[1], DIFFERENTIAL_STATES[3]],
                         ids=["copy-cc", "pure", "random"])
def test_solves_per_exponent(rho, monkeypatch):
    """Counts the single solves: the cold `prmi_down_down` calls and every
    order of the stacks `_solved` hands to the route table `_solve_dd`."""
    calls = []

    def counting(alpha, rho):
        calls.append(alpha)
        return prmi_down_down(alpha, rho)

    def counting_table(alphas, rho):
        calls.extend(alphas)
        return _solve_dd(alphas, rho)

    monkeypatch.setattr(exponents, "prmi_down_down", counting)
    monkeypatch.setattr(exponents, "_solve_dd", counting_table)
    i_one = prmi_down_down(1.0, rho).value
    for frac in RATE_FRACTIONS:
        calls.clear()
        direct_exponent(rho, frac * i_one)
        assert len(calls) <= 20


def recorded_tables(monkeypatch) -> list:
    """The memo tables that `_solved` fills, each once, as recorded from now on:
    one per `direct_exponent` report."""
    tables = []

    def recording(rho, table, orders):
        if not any(t is table for t in tables):
            tables.append(table)
        return _solved(rho, table, orders)

    monkeypatch.setattr(exponents, "_solved", recording)
    return tables


@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_STATES)))
def test_cached_solves_are_one_order_solves(index, monkeypatch):
    """Every solve in the memo tables of `direct_exponent` at the four rates is
    certified and, field for field, the solve `prmi_down_down(s)` makes: I_s
    depends on the state and s alone, not on the orders the search solved
    before it."""
    rho = DIFFERENTIAL_STATES[index]
    tables = recorded_tables(monkeypatch)
    i_one = prmi_down_down(1.0, rho).value
    for frac in RATE_FRACTIONS:
        direct_exponent(rho, frac * i_one)
    fields = ("value", "iterations", "gap", "residual", "certified", "objective_trace")
    for table in tables:
        for s, (sol, _) in table.items():
            one = prmi_down_down(s, rho)
            assert sol.certified
            assert [getattr(sol, f) for f in fields] == [getattr(one, f) for f in fields], s
            assert np.array_equal(sol.sigma_a.spectrum, one.sigma_a.spectrum), s


ORDER_STATES = [
    pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2),
    CC_02,
    random_bipartite(2, 2, 8100),
    random_bipartite(2, 3, 0, rank=2),
    random_bipartite(3, 3, 0, rank=4),
]


@pytest.mark.parametrize("rho", ORDER_STATES, ids=["pure", "copy-cc", "2x2", "2x3-rank2", "3x3-rank4"])
def test_exponent_solves_only_above_half(rho, monkeypatch):
    """The exponent, R_(1/2) and the rate curve solve I_s on (1/2, 1] only:
    no small-alpha search sits on their path."""
    i_one = prmi_down_down(1.0, rho).value
    orders = []

    def recording(alpha, rho):
        orders.append(alpha)
        return prmi_down_down(alpha, rho)

    def recording_table(alphas, rho):
        orders.extend(alphas)
        return _solve_dd(alphas, rho)

    monkeypatch.setattr(exponents, "prmi_down_down", recording)
    monkeypatch.setattr(exponents, "_solve_dd", recording_table)
    for frac in RATE_FRACTIONS + (1.2,):
        direct_exponent(rho, frac * i_one)
    r_half_threshold(rho, {})
    rate_curve(rho, np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 25))
    assert orders and all(0.5 < s <= 1.0 for s in orders)


def floored_at_search(rho, table):
    """R_(1/2) clamped below by the alpha = 0 solve, as before the floor
    became a known lower bound of I_0; kept as the differential reference."""
    h = exponents.R_HALF_STEP
    (sol1, _), (sol2, _) = _solved(rho, table, [0.5 + h, 0.5 + 2 * h])
    i_half = 2 * sol1.as_float() - sol2.as_float()
    d_half = (2 * alpha_derivative(0.5 + h, rho, sol1)
              - alpha_derivative(0.5 + 2 * h, rho, sol2))
    r = i_half - 0.25 * d_half
    try:
        i_zero = prmi_down_down(0.0, rho).as_float()
    except UnsupportedRegimeError:
        i_zero = 0.0
    if not np.isfinite(i_zero):
        i_zero = 0.0
    return float(min(max(r, i_zero), i_half))


FLOOR_STATES = {
    "2x2-42": random_bipartite(2, 2, 42),
    "2x2-8100": random_bipartite(2, 2, 8100),
    "2x3-0": random_bipartite(2, 3, 0),
    "2x3-1": random_bipartite(2, 3, 1),
    "3x3-0": random_bipartite(3, 3, 0),
    "2x3-rank2": random_bipartite(2, 3, 0, rank=2),
    "3x3-rank2": random_bipartite(3, 3, 0, rank=2),
    "3x3-rank3": random_bipartite(3, 3, 0, rank=3),
    "3x3-rank4": random_bipartite(3, 3, 0, rank=4),
    "pure-2x2": pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2),
    "pure-3x3": pure_bipartite(np.random.default_rng(3).normal(size=9), 3, 3),
    "copy-cc": CC_02,
    "diagonal-zero": cc_state(Pmf(np.array([[0.35, 0.15, 0], [0, 0.05, 0.45]]))),
}


@pytest.mark.parametrize("rho", FLOOR_STATES.values(), ids=FLOOR_STATES.keys())
def test_known_floor_matches_search_floor(rho, monkeypatch):
    """Flooring R_(1/2) at the closed form of I_0, or 0, changes no output
    against flooring it at the alpha = 0 solve."""
    i_one = prmi_down_down(1.0, rho).value
    rates = [frac * i_one for frac in (0.1, 0.8, 1.2)]
    new = [r_half_threshold(rho, {})] + [direct_exponent(rho, rate) for rate in rates]
    monkeypatch.setattr(exponents, "r_half_threshold", floored_at_search)
    old = [floored_at_search(rho, {})] + [direct_exponent(rho, rate) for rate in rates]
    assert new == old


@pytest.mark.parametrize("rho", [CC_02, DIFFERENTIAL_STATES[1], DIFFERENTIAL_STATES[3]],
                         ids=["copy-cc", "pure", "random"])
def test_curve_rates_never_read_below_plus_zero(rho):
    """An optimal rate is at least R_(1/2) >= 0. On the copy state, the rate at
    s = 0.501 rounded to -5.6e-17; every curve rate now reads +0 or above."""
    for point in rate_curve(rho, np.linspace(0.501, 0.999, 25)):
        assert point.rate >= 0 and math.copysign(1.0, point.rate) == 1.0, point


def test_the_package_reads_the_exponent_names_from_exponents():
    import petzmi
    for name in ("ExponentReport", "alpha_derivative", "direct_exponent", "rate_curve"):
        assert getattr(petzmi, name) is getattr(exponents, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        petzmi.no_such_name


def test_root_search_past_two_equal_values_of_g():
    """g is flat at -0.1 on [0.4, 0.6]: two of the four points nearest the
    bracket's midpoint share g, so Neville's scheme divides by zero. The search
    stops there, and still closes a bracket around the root 0.7."""
    def g(points):
        return [max(x**3 - 0.343, min(-0.1, x - 0.5)) for x in points]

    known = {x: g([x])[0] for x in (0.0, 0.4, 0.6, 1.0)}
    assert known[0.4] == known[0.6] == -0.1
    s_star, a, b = exponents._stacked_root(g, known)
    assert g([a])[0] < 0 <= g([b])[0] and b - a <= exponents.ROOT_WIDTH
    assert s_star == pytest.approx(0.7, abs=exponents.ROOT_WIDTH)

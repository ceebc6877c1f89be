import math

import numpy as np
import pytest

from petzmi.divergences import petz_divergence
from petzmi.errors import ResourceLimitError, UnsupportedRegimeError
from petzmi.divergences import relative_entropy
from petzmi import oracle
from petzmi.oracle import _batched_values, brute_force_dd
from petzmi.prmi import gen_prmi_down, prmi_down_down, prmi_up_down
from petzmi.states import (
    BipartiteState,
    cc_state,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
    random_density,
)
from reference import bloch_density, tensor_product


def test_bloch_density_is_state():
    rho = bloch_density(0.7, 1.1, 2.3)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_returned_pair_attains_value(qubit_pair):
    alpha = 0.8
    value, sigma, tau = brute_force_dd(alpha, qubit_pair, resolution=12)
    ref = tensor_product(sigma, tau).matrix
    assert petz_divergence(alpha, qubit_pair, ref).value == pytest.approx(value, abs=1e-9)


def test_oracle_upper_bounds_solver(qubit_pair):
    for alpha in (0.6, 0.9, 1.5):
        value, _, _ = brute_force_dd(alpha, qubit_pair, resolution=16)
        sol = prmi_down_down(alpha, qubit_pair)
        assert sol.value <= value + 1e-6
        assert value - sol.value < 5e-3


@pytest.mark.parametrize("seed", [42, 7, 0])
@pytest.mark.parametrize("alpha", [1 - 1e-7, 1 + 1e-7])
def test_oracle_never_reads_below_the_certified_minimum_next_to_one(seed, alpha):
    """Next to alpha = 1 the search ranks by the alpha = 1 objective, but the
    value it returns is D_alpha at its pair, as `gen_prmi_down` gives it: an
    upper bound on the certified minimum, which the alpha = 1 value with
    tau = rho_B undercut by about 1.5e-8."""
    rho = random_bipartite(2, 2, seed)
    value, sigma, tau = brute_force_dd(alpha, rho, resolution=12)
    assert value >= prmi_down_down(alpha, rho).value - 1e-14
    again, tau_again = gen_prmi_down(alpha, rho, sigma)
    assert value == again and np.array_equal(tau.matrix, tau_again.matrix)


def test_oracle_alpha_one(qubit_pair):
    value, _, _ = brute_force_dd(1.0, qubit_pair, resolution=12)
    sol = prmi_down_down(1.0, qubit_pair)
    assert sol.value <= value + 1e-6
    assert value - sol.value < 5e-3


def test_oracle_alpha_zero_pure():
    rho = pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2)
    value, _, _ = brute_force_dd(0.0, rho, resolution=12)
    # closed form: (1/(1-0)) H_inf(A) = -log(0.8)
    assert value == pytest.approx(-math.log(0.8), abs=5e-3)
    assert value >= -math.log(0.8) - 1e-9


def test_product_state_zero():
    a = random_density(2, 1)
    b = random_density(2, 2)
    rho = BipartiteState(np.kron(a.matrix, b.matrix), 2, 2)
    value, _, _ = brute_force_dd(0.8, rho, resolution=12)
    assert value == pytest.approx(0.0, abs=1e-5)


def test_qutrit_side_supported():
    rho = random_bipartite(3, 2, 4)
    value, sigma, tau = brute_force_dd(0.8, rho, resolution=6)
    sol = prmi_down_down(0.8, rho)
    assert sol.value <= value + 1e-6


def test_large_dimension_rejected():
    rho = random_bipartite(4, 2, 4)
    with pytest.raises(UnsupportedRegimeError):
        brute_force_dd(0.8, rho)


@pytest.mark.parametrize("d_a, resolution, points", [
    (2, 118, "3203228 "), (3, 125, "1953127 "), (2, 10**6, ""), (3, 10**6, "")])
def test_a_grid_above_the_point_bound_is_refused_before_it_is_built(d_a, resolution, points):
    """At d_B = 2, MAX_GRID_ENTRIES = 2.5e7 admits the qubit resolution 117
    (3,121,794 points with rho_A, 8 entries each) and the qutrit resolution 124
    (1,906,626 points, 13 entries each), not the next ones."""
    with pytest.raises(ResourceLimitError, match=f"{points}grid points"):
        brute_force_dd(0.8, random_bipartite(d_a, 2, 4), resolution=resolution)


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize("d_a, d_b, resolution, admitted", [
    (2, 2, 117, True), (3, 2, 124, True), (3, 4, 99, True),
    (2, 8, 57, True), (2, 8, 58, False), (2, 8, 80, False)])
def test_the_grid_bound_counts_the_entries_of_both_sides(monkeypatch, d_a, d_b, resolution,
                                                          admitted):
    """The bound is on points x (d_A^2 + d_B^2), the entries of the sigma and M
    stacks: a qubit A side with d_B = 8 is refused above resolution 57 (351,234
    points, 68 entries each), at 80 among them, which d_B = 2 admits. No grid
    is built here: building one raises _GridBuilt."""
    def built(*args):
        raise _GridBuilt

    monkeypatch.setattr(oracle, "_qubit_grid", built)
    monkeypatch.setattr(oracle, "_ginibre_grid", built)
    with pytest.raises(_GridBuilt if admitted else ResourceLimitError):
        brute_force_dd(0.8, random_bipartite(d_a, d_b, 0), resolution=resolution)


def test_resolution_one_is_maximally_mixed(qubit_pair):
    # with a single grid point the A side is pinned to the maximally mixed state
    value, sigma, _ = brute_force_dd(1.5, qubit_pair, resolution=1)
    sol = prmi_down_down(1.5, qubit_pair)
    assert value >= sol.value - 1e-9


@pytest.mark.parametrize("seed", [0, 4])
def test_three_dimensional_estimate_never_exceeds_up_down(seed):
    rho = random_bipartite(3, 3, seed)
    for alpha in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        value, _, _ = brute_force_dd(alpha, rho)
        assert value <= prmi_up_down(alpha, rho).as_float() + 1e-12


@pytest.mark.parametrize("alpha, rho", [
    (0.0, random_bipartite(2, 2, 42)),
    (0.0, cc_state([[0.35, 0.15], [0.05, 0.45]])),
    (1.0, BipartiteState(np.kron(random_density(2, 1).matrix, random_density(2, 2).matrix), 2, 2)),
], ids=["generic-0", "pmf-0", "product-1"])
def test_estimate_is_floored_at_plus_zero(alpha, rho):
    """On a full-rank state every sigma ties at D_0 = 0, and the search kept the
    most negative rounding (-1.3e-15 and -1.1e-16 on the first two): the value is
    gen_prmi_down's, floored at +0, and at alpha = 1 the grid's, floored alike."""
    value, _, _ = brute_force_dd(alpha, rho, resolution=12)
    assert value >= 0.0 and math.copysign(1.0, value) == 1.0


def test_leak_tolerance_matches_gen_prmi_down():
    # rho_A = diag(1 - 5e-11, 5e-11) leaks 5e-11 off supp(sigma) = span{|0>}:
    # below the support tolerance, so the grid objective is finite like the solver's.
    # There M = (1 - 5e-11)^alpha |0><0|: the grid reads (alpha / (alpha - 1)) log(1 - 5e-11)
    # = -1.5e-10, unfloored, and gen_prmi_down the same floored at +0
    rho = copy_cc_state([1 - 5e-11, 5e-11])
    sigma = np.diag([1.0, 0.0])
    grid = _batched_values(1.5, rho, sigma[None])[0]
    assert grid == pytest.approx(3.0 * math.log1p(-5e-11), abs=1e-12)
    value, _ = gen_prmi_down(1.5, rho, sigma)
    assert value == max(grid, 0.0) + 0.0 and math.copysign(1.0, value) == 1.0
    # at alpha = 1 both are finite too; they differ by the leaked term 5e-11 * log(5e-11)
    ref = relative_entropy(rho, np.kron(sigma, rho.marginal_b.matrix))
    assert not ref.is_infinite
    assert _batched_values(1.0, rho, sigma[None])[0] == pytest.approx(ref.value, abs=1e-8)


_SHAPES = [(2, 2, None), (2, 3, None), (3, 2, None), (3, 3, None), (2, 2, 2), (2, 3, 2), (3, 3, 2)]
_ORDERS = [0.0, 0.02, 0.05, 0.1, 0.25, 0.5]
# four of the six orders per state and seed, rotated so that every order meets every shape
_BELOW_HALF = [((d_a, d_b, seed, rank), _ORDERS[(2 * i + seed + j) % len(_ORDERS)])
               for i, (d_a, d_b, rank) in enumerate(_SHAPES) for seed in (0, 1) for j in range(4)]
# where rows stopped on the support gap alone sat 4.0e-5, 1.9e-3, 1.2e-4 and
# 3.7e-5 above the grid: an iterate had lost an eigenvalue under the support cut
_BELOW_HALF += [((2, 3, 6, 2), 0.05), ((2, 3, 9, 3), 0.02), ((2, 2, 9, 2), 0.02),
                ((2, 2, 1, 2), 0.0)]


@pytest.mark.parametrize("shape, alpha", _BELOW_HALF,
                         ids=[f"{a}x{b}-s{s}-r{r}-a{alpha}" for (a, b, s, r), alpha in _BELOW_HALF])
def test_solver_below_half_never_above_grid(shape, alpha):
    # the loop from ten starts replaced this grid search in prmi_down_down
    d_a, d_b, seed, rank = shape
    rho = random_bipartite(d_a, d_b, seed, rank=rank)
    sol = prmi_down_down(alpha, rho)
    grid, _, _ = brute_force_dd(alpha, rho)
    assert sol.value <= max(grid, 0.0) + 1e-12
    ref = tensor_product(sol.sigma_a, sol.tau_b).matrix
    assert abs(petz_divergence(alpha, rho, ref).value - sol.value) <= 1e-10

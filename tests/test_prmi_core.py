"""The array half-step against the operator-level loop it replaced, and the
work it does per iteration."""

import math

import numpy as np
import pytest

from petzmi.linalg import HermitianOperator, power_on_support
from petzmi.prmi import GAP_TOL, MAX_ITER, _run_fixed_point, gen_prmi_down, prmi_down_down
from petzmi.states import (
    BipartiteState,
    DensityOperator,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
)
from reference import permute_factors, trace_distance

ALPHAS = (0.55, 0.7, 0.9, 1.3, 1.7, 2.0)
DIMS = ((2, 2), (2, 3), (3, 3))
STATES = [
    pure_bipartite([math.sqrt(0.2), 0, 0, math.sqrt(0.8)], 2, 2),
    copy_cc_state([0.2, 0.8]),
] + [random_bipartite(*DIMS[k % 3], 7000 + k) for k in range(50)]


def reference_down(alpha, rho, sigma):
    """min over tau of D_alpha(rho || sigma x tau) through validated operators."""
    if alpha > 1:
        proj = power_on_support(sigma, 0.0).matrix
        if 1.0 - float(np.real(np.trace(rho.marginal_a.matrix @ proj))) > 1e-12:
            return math.inf, None
    s_pow = power_on_support(sigma, 1.0 - alpha).matrix
    r = power_on_support(rho, alpha).matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    m_pow = power_on_support(HermitianOperator(np.einsum("ibjd,ji->bd", r, s_pow)), 1.0 / alpha)
    norm = m_pow.trace()
    if norm <= 0:
        return math.inf, None
    return (alpha / (alpha - 1.0)) * math.log(norm), DensityOperator(m_pow.matrix / norm)


def reference_run(alpha, rho, sigma):
    """The alternating loop on operators: B -> A through the A <-> B swapped state."""
    swapped = BipartiteState(
        permute_factors(rho.matrix, [rho.d_a, rho.d_b], [1, 0]), rho.d_b, rho.d_a
    )
    for _ in range(MAX_ITER):
        _, tau = reference_down(alpha, rho, sigma)
        _, sigma_new = reference_down(alpha, swapped, tau)
        residual = trace_distance(sigma_new, sigma)
        sigma = sigma_new
        if residual <= GAP_TOL:
            break
    value, _ = reference_down(alpha, rho, sigma)
    return value, sigma


@pytest.mark.parametrize("alpha", ALPHAS)
def test_half_step_matches_operator_loop(alpha):
    for rho in STATES:
        value, tau = gen_prmi_down(alpha, rho, rho.marginal_a)
        ref_value, ref_tau = reference_down(alpha, rho, rho.marginal_a)
        assert value == pytest.approx(ref_value, abs=1e-12)
        assert trace_distance(tau, ref_tau) <= 1e-9
        sol = _run_fixed_point(alpha, rho, rho.marginal_a)
        ref_value, ref_sigma = reference_run(alpha, rho, rho.marginal_a)
        assert sol.value == pytest.approx(ref_value, abs=1e-12)
        assert trace_distance(sol.sigma_a, ref_sigma) <= 1e-9


def test_three_decompositions_per_iteration(monkeypatch):
    rho = random_bipartite(4, 4, 11)
    calls = []

    def counted(original):
        def wrapper(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    sol = prmi_down_down(0.7, rho)
    # the state's own decomposition was taken when it was built: no 16 x 16 here
    assert sol.certified
    assert len(calls) <= 3 * sol.iterations + 4
    assert (16, 16) not in calls

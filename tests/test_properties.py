"""Property tests of the three mutual-information variants and of the direct
exponent on random states."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from petzmi.exponents import direct_exponent, rate_curve
from petzmi.prmi import prmi_down_down, prmi_up_down, prmi_up_up
from petzmi.states import BipartiteState, random_bipartite, tensor_states

states = st.builds(
    random_bipartite, st.just(2), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1)
)
qubit_pairs = st.builds(random_bipartite, st.just(2), st.just(2), st.integers(0, 2**32 - 1))
alphas = st.floats(0.55, 2.0)


def slack(alpha):
    """1e-10 plus the rounding of (alpha/(alpha-1)) log(...), which grows near alpha = 1."""
    return 1e-10 + 64 * np.finfo(float).eps * alpha / max(abs(alpha - 1.0), 1e-6)


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=25, deadline=None)
@given(rho=states, alpha=st.one_of(alphas, st.floats(0.0, 0.5)))
def test_variants_are_ordered(rho, alpha):
    uu = prmi_up_up(alpha, rho).value
    ud = prmi_up_down(alpha, rho).value
    dd = prmi_down_down(alpha, rho).value
    assert uu >= ud - slack(alpha)
    assert ud >= dd - slack(alpha)
    assert dd >= 0.0


@settings(max_examples=10, deadline=None)
@given(rho=qubit_pairs, tau=qubit_pairs, alpha=alphas)
def test_dd_additive_on_tensor_products(rho, tau, alpha):
    lhs = prmi_down_down(alpha, tensor_states(rho, tau)).value
    rhs = prmi_down_down(alpha, rho).value + prmi_down_down(alpha, tau).value
    assert abs(lhs - rhs) <= slack(alpha)


@settings(max_examples=15, deadline=None)
@given(rho=states, alpha=alphas, seed=st.integers(0, 2**32 - 1))
def test_dd_invariant_under_local_unitaries(rho, alpha, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(random_unitary(rng, rho.d_a), random_unitary(rng, rho.d_b))
    rotated = BipartiteState(u @ rho.matrix @ u.conj().T, rho.d_a, rho.d_b)
    dd = prmi_down_down(alpha, rho).value
    assert abs(prmi_down_down(alpha, rotated).value - dd) <= slack(alpha)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), low=st.floats(0.05, 0.9), width=st.floats(0.02, 0.5))
def test_direct_exponent_convex_nonincreasing_in_rate(seed, low, width):
    rho = random_bipartite(2, 2, seed)
    i_one = prmi_down_down(1.0, rho).value
    rates = [i_one * low, i_one * (low + width / 2), i_one * (low + width), i_one]
    reports = [direct_exponent(rho, rate) for rate in rates]
    e = [r.exponent for r in reports]
    assert e[0] >= e[1] - 1e-10 and e[1] >= e[2] - 1e-10
    assert e[1] <= (e[0] + e[2]) / 2 + 1e-10
    for rate, report in zip(rates, reports):
        if rate >= i_one:
            assert report.exponent == 0.0
        elif 0.5 + 1e-4 < report.s_star < 1.0 - 1e-4:
            # s* is the root of psi(s) = rate, psi being the curve's rate
            assert abs(rate_curve(rho, [report.s_star])[0].rate - rate) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(rho=states, a=alphas, b=alphas)
def test_dd_nondecreasing_in_alpha(rho, a, b):
    low, high = sorted((a, b))
    dd_low = prmi_down_down(low, rho).value
    assert prmi_down_down(high, rho).value >= dd_low - slack(low) - slack(high)


def depolarize(rho, p_a, p_b):
    """(D_pa x D_pb)(rho) for the partial depolarizations D_p(x) = (1-p) x + p tr(x) I/d."""
    m = rho.matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    m = (1 - p_a) * m + p_a * np.einsum("ij,kbkd->ibjd", np.eye(rho.d_a) / rho.d_a, m)
    m = (1 - p_b) * m + p_b * np.einsum("ikjk,bd->ibjd", m, np.eye(rho.d_b) / rho.d_b)
    return BipartiteState(m.reshape(rho.dim, rho.dim), rho.d_a, rho.d_b)


@settings(max_examples=15, deadline=None)
@given(rho=states, alpha=alphas, p_a=st.floats(0.0, 1.0), p_b=st.floats(0.0, 1.0))
def test_dd_data_processing_under_local_depolarization(rho, alpha, p_a, p_b):
    dd = prmi_down_down(alpha, rho).value
    for noisy in (depolarize(rho, p_a, 0.0), depolarize(rho, 0.0, p_b), depolarize(rho, p_a, p_b)):
        assert prmi_down_down(alpha, noisy).value <= dd + slack(alpha)

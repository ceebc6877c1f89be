"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values come from closed-form entropy evaluations, independent grid
oracles, and analytic identities; tolerances are pinned per criterion.
"""

import math
import time

import numpy as np
import pytest

from petzmi.divergences import (
    relative_entropy_variance,
    renyi_entropy,
    sandwiched_q,
)
from petzmi.exponents import direct_exponent, rate_curve
from petzmi.hypotest import universal_divergence_rate
from petzmi.hypotest import test_errors as threshold_test_errors
from petzmi.linalg import HermitianOperator, power_on_support
from petzmi.oracle import brute_force_dd
from petzmi.prmi import (
    _run_fixed_point,
    fixed_point_map,
    prmi_closed_form,
    prmi_down_down,
    prmi_up_down,
    prmi_up_up,
)
from petzmi.states import (
    BipartiteState,
    DensityOperator,
    Pmf,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
    random_density,
)
from reference import entropy as pmf_entropy
from reference import geometric_mean, partial_trace_factors, petz_q, purify, tensor_product
from reference import rmi_down_down as classical_dd
from reference import rmi_up_down as classical_ud
from reference import rmi_up_up as classical_uu
from reference import tensor_states, trace_distance

P = 0.2
PURE = pure_bipartite([math.sqrt(P), 0, 0, math.sqrt(1 - P)], 2, 2)
CC = copy_cc_state([P, 1 - P])


def report(number, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    assert ok


def entropy(alpha):
    # Renyi entropy of the (p, 1-p) marginal, independent scalar evaluation
    return pmf_entropy([P, 1 - P], alpha)


def test_criterion_1_pure_state_figure():
    start = time.monotonic()
    ok = True
    for alpha in np.arange(0.0, 2.51, 0.1):
        alpha = round(float(alpha), 10)
        uu = prmi_up_up(alpha, PURE).as_float()
        ud = prmi_up_down(alpha, PURE).as_float()
        ok &= abs(uu - 2 * entropy(3 - 2 * alpha)) <= 1e-6
        expect_ud = 2 * entropy(math.inf if alpha == 0 else (2 - alpha) / alpha)
        ok &= abs(ud - expect_ud) <= 1e-6
        dd = prmi_down_down(alpha, PURE).as_float()
        if alpha <= 0.5:
            expect_dd = entropy(math.inf) / (1 - alpha)
        else:
            expect_dd = 2 * entropy(1 / (2 * alpha - 1))
        ok &= abs(dd - expect_dd) <= 1e-6
        if 0.5 < alpha <= 2.0 and alpha != 1.0:  # the loop, which dd does not run here
            ok &= abs(_run_fixed_point(alpha, PURE, PURE.marginal_a).value - expect_dd) <= 1e-6
    at_one = 2 * entropy(1.0)
    ok &= abs(at_one - 1.000805) <= 1e-5  # ~1.000805 nats
    for f in (prmi_up_up, prmi_up_down):
        ok &= abs(f(1.0, PURE).as_float() - at_one) <= 1e-6
    ok &= abs(prmi_down_down(1.0, PURE).value - at_one) <= 1e-6
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 5.0)


def test_criterion_2_copy_cc_figure():
    start = time.monotonic()
    ok = True
    pmf = Pmf(np.diag([P, 1 - P]))
    for alpha in np.arange(0.0, 2.51, 0.1):
        alpha = round(float(alpha), 10)
        uu = prmi_up_up(alpha, CC).as_float()
        ud = prmi_up_down(alpha, CC).as_float()
        ok &= abs(uu - entropy(2 - alpha)) <= 1e-6
        expect_ud = entropy(math.inf if alpha == 0 else 1 / alpha)
        ok &= abs(ud - expect_ud) <= 1e-6
        dd = prmi_down_down(alpha, CC).as_float()
        if alpha <= 0.5:
            expect_dd = (alpha / (1 - alpha)) * entropy(math.inf)
        else:
            expect_dd = entropy(alpha / (2 * alpha - 1))
        ok &= abs(dd - expect_dd) <= 1e-6
        # quantum vs classical module agreement
        ok &= abs(uu - classical_uu(alpha, pmf).as_float()) <= 1e-9
        if alpha > 0:
            ok &= abs(ud - classical_ud(alpha, pmf)) <= 1e-9
        if 0.5 < alpha <= 2.0:
            cval, _, _ = classical_dd(alpha, pmf)
            ok &= abs(prmi_down_down(alpha, CC).value - cval) <= 1e-9
            if alpha != 1.0:  # the loop, which dd does not run here
                loop = _run_fixed_point(alpha, CC, CC.marginal_a).value
                ok &= abs(loop - expect_dd) <= 1e-6 and abs(loop - cval) <= 1e-9
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 5.0)


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for seed in range(20):
        rho = random_bipartite(2, 2, 1000 + seed)
        for alpha in (0.6, 0.75, 0.9):
            solver = prmi_down_down(alpha, rho).value
            oracle, _, _ = brute_force_dd(alpha, rho, resolution=24)
            ok &= abs(solver - oracle) <= 2e-3
            ok &= solver <= oracle + 1e-6
    elapsed = time.monotonic() - start
    report(3, ok and elapsed < 120.0)


def test_criterion_4_additivity():
    start = time.monotonic()
    ok = True
    for seed in range(10):
        rho = random_bipartite(2, 2, 2000 + 2 * seed)
        tau = random_bipartite(2, 2, 2001 + 2 * seed)
        joint = tensor_states(rho, tau)
        for alpha in (0.6, 1.0, 1.5, 2.0):
            lhs = prmi_down_down(alpha, joint).value
            rhs = prmi_down_down(alpha, rho).value + prmi_down_down(alpha, tau).value
            ok &= abs(lhs - rhs) <= 1e-7
    elapsed = time.monotonic() - start
    report(4, ok and elapsed < 120.0)


def test_criterion_5_uniqueness_and_fixed_point():
    ok = True
    for seed in range(5):
        rho = random_bipartite(2, 2, 3000 + seed)
        # 8 starts: rho_A, I/2 and 6 random states
        rng = np.random.default_rng(97)
        starts = [rho.marginal_a, DensityOperator(np.eye(2) / 2)]
        starts += [random_density(2, rng) for _ in range(6)]
        for alpha in (0.56, 0.7, 0.85, 0.999):
            # run every start explicitly and compare the minimizers pairwise
            from petzmi.prmi import _run_fixed_point

            sols = [_run_fixed_point(alpha, rho, s0) for s0 in starts]
            for other in sols[1:]:
                ok &= trace_distance(other.sigma_a, sols[0].sigma_a) <= 1e-8
            best = prmi_down_down(alpha, rho)
            if best.certified:
                ok &= best.residual <= 1e-10
                mapped = fixed_point_map(alpha, rho, best.sigma_a)
                ok &= trace_distance(mapped, best.sigma_a) <= 1e-10
    report(5, ok)


def test_criterion_6_duality():
    ok = True
    for seed in range(10):
        rho = random_bipartite(2, 2, 4000 + seed)
        psi, d_c = purify(rho)
        full = np.outer(psi, psi.conj())
        rho_ac = BipartiteState(
            partial_trace_factors(full, [rho.d_a, rho.d_b, d_c], [0, 2]), rho.d_a, d_c
        )
        rho_a_inv = power_on_support(rho.marginal_a, -1.0).matrix
        ref = np.kron(rho_a_inv, rho_ac.marginal_b.matrix)
        for alpha in (0.5, 0.8, 1.25, 2.0):
            # singly minimized value against the sandwiched divergence of
            # order 1/alpha with the inverted-marginal reference
            i_ud = prmi_up_down(alpha, rho).as_float()
            beta = 1 / alpha
            expo = (1 - beta) / (2 * beta)
            ref_pow = power_on_support(HermitianOperator(ref), expo).matrix
            inner = HermitianOperator(ref_pow @ rho_ac.matrix @ ref_pow)
            q = float(np.real(np.trace(power_on_support(inner, beta).matrix)))
            d_tilde = math.log(q) / (beta - 1)
            ok &= abs(i_ud + d_tilde) <= 1e-7
            # non-minimized analogue: I_uu relates to the Petz functional of
            # order 2 - alpha with the same reference
            beta2 = 2 - alpha
            ra = power_on_support(HermitianOperator(rho_ac.matrix), beta2).matrix
            rb = power_on_support(HermitianOperator(ref), 1 - beta2).matrix
            q2 = float(np.real(np.trace(ra @ rb)))
            i_uu = prmi_up_up(alpha, rho).as_float()
            ok &= abs(i_uu + math.log(q2) / (beta2 - 1)) <= 1e-7
    report(6, ok)


def test_criterion_7_variance_link():
    ok = True
    h = 1e-4
    for seed in range(10):
        rho = random_bipartite(2, 2, 5000 + seed)
        v = relative_entropy_variance(
            rho, tensor_product(rho.marginal_a, rho.marginal_b).matrix
        )
        for f in (
            lambda a: prmi_up_up(a, rho).as_float(),
            lambda a: prmi_up_down(a, rho).as_float(),
            lambda a: prmi_down_down(a, rho).value,
        ):
            fd = (f(1 + h) - f(1 - h)) / (2 * h)
            ok &= abs(fd - v / 2) <= 1e-4
    report(7, ok)


def test_criterion_8_direct_exponent():
    ok = True
    i_one = prmi_down_down(1.0, CC).value
    for rate in (i_one, i_one + 0.2):
        ok &= direct_exponent(CC, rate).exponent == 0.0
    rep = direct_exponent(CC, 0.3)
    ok &= rep.exponent > 0
    # independent 1e4-point grid from the copy-cc closed form H_{s/(2s-1)}
    grid = np.linspace(0.5 + 1e-6, 1 - 1e-6, 10_000)
    closed = np.array([prmi_closed_form(s, CC, "dd") for s in grid])
    best = np.max((1 - grid) / grid * (closed - 0.3))
    ok &= abs(rep.exponent - best) <= 1e-6
    # rate-curve round trip
    for point in rate_curve(CC, [0.65, 0.8, 0.92]):
        ok &= abs(direct_exponent(CC, point.rate).exponent - point.exponent) <= 1e-5
    report(8, ok)


def test_criterion_9_achievability():
    ok = True
    rate = 0.25
    for n in (1, 2, 3):
        for s in (0.3, 0.5, 0.75):
            errs = threshold_test_errors(CC, n, rate, s)
            ok &= abs(errs.type_two_bound - math.exp(-n * rate)) <= 1e-10
            ok &= errs.type_one <= errs.type_one_bound + 1e-10
    # monotone bound chain at n in {1, 2}: the universal-state lower bound
    # cannot exceed the doubly minimized value
    for n in (1, 2):
        for alpha in (0.6, 1.0, 1.5, 2.0):
            bound = universal_divergence_rate(CC, alpha, n)
            ok &= prmi_down_down(alpha, CC).value >= bound - 1e-9
    report(9, ok)


def test_criterion_10_operator_inequalities():
    ok = True
    rng = np.random.default_rng(606)

    def psd(dim, rank=None):
        k = rank or dim
        g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        return g @ g.conj().T

    for trial in range(100):
        x, xp = psd(2), psd(2, rank=1 if trial % 3 == 0 else None)
        y, yp = psd(2), psd(2)
        # sqrt(X) o sqrt(Y) + sqrt(X') o sqrt(Y') <= sqrt(X + X') o sqrt(Y + Y')
        lhs = np.kron(
            power_on_support(HermitianOperator(x), 0.5).matrix,
            power_on_support(HermitianOperator(y), 0.5).matrix,
        ) + np.kron(
            power_on_support(HermitianOperator(xp), 0.5).matrix,
            power_on_support(HermitianOperator(yp), 0.5).matrix,
        )
        rhs = np.kron(
            power_on_support(HermitianOperator(x + xp), 0.5).matrix,
            power_on_support(HermitianOperator(y + yp), 0.5).matrix,
        )
        ok &= float(np.min(np.linalg.eigvalsh(rhs - lhs))) >= -1e-9
        # geometric-mean subadditivity: X#Y + X'#Y' <= (X+X')#(Y+Y')
        gm = (
            geometric_mean(x, y).matrix
            + geometric_mean(xp, yp).matrix
        )
        gm_sum = geometric_mean(x + xp, y + yp).matrix
        ok &= float(np.min(np.linalg.eigvalsh(gm_sum - gm))) >= -1e-9
    for seed in range(100):
        rho = random_density(3, 7000 + seed)
        sigma = random_density(3, 7100 + seed)
        for alpha in (0.3, 0.7, 1.0, 1.5, 2.2):
            if alpha == 1.0:
                continue
            qt = sandwiched_q(alpha, rho, sigma)
            qp = petz_q(alpha, rho, sigma)
            # minimal vs standard trace functional ordering flips at alpha = 1
            if alpha < 1.0:
                ok &= qt >= qp - 1e-10
            else:
                ok &= qt <= qp + 1e-10
    report(10, ok)

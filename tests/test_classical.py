import math

import numpy as np
import pytest

from petzmi.states import Pmf
from reference import (classical_divergence, entropy, mutual_information, rmi_down_down,
                       rmi_up_down, rmi_up_up)

COPY_02 = Pmf(np.diag([0.2, 0.8]))
BSC = Pmf(np.array([[0.4, 0.1], [0.1, 0.4]]))  # symmetric channel, uniform input


def test_divergence_matches_hand_value():
    # ln-based Bernoulli(0.2) vs Bernoulli(0.5) at alpha = 2:
    # log(0.04/0.5 + 0.64/0.5) = log(1.36)
    got = classical_divergence(2.0, [0.2, 0.8], [0.5, 0.5])
    assert got.value == pytest.approx(math.log(1.36), abs=1e-12)


def test_divergence_infinite_rules():
    assert classical_divergence(2.0, [0.5, 0.5], [1.0, 0.0]).is_infinite
    assert classical_divergence(0.5, [1.0, 0.0], [0.0, 1.0]).is_infinite
    assert not classical_divergence(0.5, [0.5, 0.5], [1.0, 0.0]).is_infinite


def test_rmi_up_up_at_one_is_mutual_information():
    assert rmi_up_up(1.0, BSC).value == pytest.approx(mutual_information(BSC), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0, 1.5, 2.0])
def test_copy_pmf_closed_forms(alpha):
    # perfectly correlated pmf: I_uu = H_{2-alpha}(p), I_ud = H_{1/alpha}(p),
    # I_dd = H_{alpha/(2 alpha - 1)}(p)
    p = [0.2, 0.8]
    assert rmi_up_up(alpha, COPY_02).value == pytest.approx(entropy(p, 2 - alpha), abs=1e-9)
    assert rmi_up_down(alpha, COPY_02) == pytest.approx(entropy(p, 1 / alpha), abs=1e-9)
    val, _, _ = rmi_down_down(alpha, COPY_02)
    assert val == pytest.approx(entropy(p, alpha / (2 * alpha - 1)), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
def test_copy_pmf_small_alpha(alpha):
    # below alpha = 1/2 the doubly minimized value degenerates to
    # (alpha/(1-alpha)) H_inf(p)
    val, _, _ = rmi_down_down(alpha, COPY_02)
    expect = (alpha / (1 - alpha)) * entropy([0.2, 0.8], math.inf)
    assert val == pytest.approx(expect, abs=2e-5)


def test_down_down_below_up_down():
    for alpha in (0.6, 0.9, 1.4, 2.0):
        val, _, _ = rmi_down_down(alpha, BSC)
        assert val <= rmi_up_down(alpha, BSC) + 1e-10
        assert rmi_up_down(alpha, BSC) <= rmi_up_up(alpha, BSC).value + 1e-10


def test_down_down_minimizers_feasible():
    val, r, q = rmi_down_down(1.5, BSC)
    assert r.sum() == pytest.approx(1.0, abs=1e-9)
    assert q.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.min(r) >= -1e-12 and np.min(q) >= -1e-12
    # the reported value is attained by the reported pair
    d = classical_divergence(1.5, BSC.table.reshape(-1), np.outer(r, q).reshape(-1))
    assert d.value == pytest.approx(val, abs=1e-8)


def test_down_down_beats_grid():
    # dense product grid can only do worse than the optimizer
    alpha = 0.75
    val, _, _ = rmi_down_down(alpha, BSC)
    grid = np.linspace(0.01, 0.99, 99)
    best = math.inf
    flat = BSC.table.reshape(-1)
    for r0 in grid:
        for q0 in grid:
            ref = np.outer([r0, 1 - r0], [q0, 1 - q0]).reshape(-1)
            best = min(best, classical_divergence(alpha, flat, ref).value)
    assert val <= best + 1e-10
    assert val == pytest.approx(best, abs=1e-3)


def test_independent_pmf_gives_zero():
    ind = Pmf(np.outer([0.3, 0.7], [0.6, 0.4]))
    for alpha in (0.3, 0.7, 1.0, 1.6):
        val, _, _ = rmi_down_down(alpha, ind)
        assert val == pytest.approx(0.0, abs=1e-9)
        assert rmi_up_up(alpha, ind).value == pytest.approx(0.0, abs=1e-12)

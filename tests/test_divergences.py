import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petzmi.divergences import (
    petz_divergence,
    relative_entropy,
    relative_entropy_variance,
    renyi_entropy,
    sandwiched_divergence,
)
from petzmi.errors import DomainError, InvalidInputError
from petzmi.states import DensityOperator, random_density


def diag(*probs):
    return DensityOperator(np.diag(probs))


# classical reference values computed directly from the scalar formulas
def scalar_renyi_divergence(alpha, p, q):
    p, q = np.asarray(p), np.asarray(q)
    if alpha == 1.0:
        m = p > 0
        return float(np.sum(p[m] * np.log(p[m] / q[m])))
    m = (p > 0) & (q > 0)
    return float(np.log(np.sum(p[m] ** alpha * q[m] ** (1 - alpha))) / (alpha - 1))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
def test_petz_matches_classical_on_diagonal(alpha):
    p = (0.2, 0.8)
    q = (0.6, 0.4)
    got = petz_divergence(alpha, diag(*p), diag(*q))
    assert not got.is_infinite
    assert got.value == pytest.approx(scalar_renyi_divergence(alpha, p, q), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_sandwiched_matches_classical_on_diagonal(alpha):
    p = (0.3, 0.7)
    q = (0.5, 0.5)
    got = sandwiched_divergence(alpha, diag(*p), diag(*q))
    assert got.value == pytest.approx(scalar_renyi_divergence(alpha, p, q), abs=1e-12)


def test_alpha_zero_value():
    # D_0 = -log tr[rho^0 sigma] = -log(q mass on supp p)
    got = petz_divergence(0.0, diag(1.0, 0.0), diag(0.25, 0.75))
    assert got.value == pytest.approx(-math.log(0.25), abs=1e-12)


def test_infinite_when_support_escapes():
    rho = diag(0.5, 0.5)
    sigma = diag(1.0, 0.0)
    assert petz_divergence(2.0, rho, sigma).is_infinite
    assert relative_entropy(rho, sigma).is_infinite
    # but finite below alpha = 1 since the supports overlap
    assert not petz_divergence(0.5, rho, sigma).is_infinite


def test_infinite_for_orthogonal_states_small_alpha():
    rho = diag(1.0, 0.0)
    sigma = diag(0.0, 1.0)
    assert petz_divergence(0.5, rho, sigma).is_infinite


def test_nonnegativity_random(rng):
    for _ in range(20):
        rho = random_density(3, rng)
        sigma = random_density(3, rng)
        for alpha in (0.3, 0.9, 1.0, 1.7):
            assert petz_divergence(alpha, rho, sigma).value >= -1e-12


def test_zero_iff_equal(rng):
    rho = random_density(3, rng)
    for alpha in (0.5, 1.0, 2.0):
        assert petz_divergence(alpha, rho, rho).value == pytest.approx(0.0, abs=1e-10)


def test_petz_monotone_in_alpha(rng):
    rho = random_density(3, rng)
    sigma = random_density(3, rng)
    alphas = [0.2, 0.5, 0.8, 1.0, 1.3, 1.8]
    vals = [petz_divergence(a, rho, sigma).value for a in alphas]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_sandwiched_below_petz_above_one(rng):
    rho = random_density(3, rng)
    sigma = random_density(3, rng)
    for alpha in (1.2, 1.8, 2.5):
        assert (
            sandwiched_divergence(alpha, rho, sigma).value
            <= petz_divergence(alpha, rho, sigma).value + 1e-10
        )


def test_variance_classical():
    # Bernoulli case: V = sum p (log(p/q) - D)^2
    p = np.array([0.2, 0.8])
    q = np.array([0.5, 0.5])
    d = float(np.sum(p * np.log(p / q)))
    v = float(np.sum(p * (np.log(p / q) - d) ** 2))
    got = relative_entropy_variance(diag(*p), diag(*q))
    assert got == pytest.approx(v, abs=1e-12)


def test_variance_requires_domination():
    with pytest.raises(DomainError):
        relative_entropy_variance(diag(0.5, 0.5), diag(1.0, 0.0))


def test_renyi_entropy_special_orders():
    rho = diag(0.2, 0.8)
    assert renyi_entropy(1.0, rho) == pytest.approx(
        -0.2 * math.log(0.2) - 0.8 * math.log(0.8), abs=1e-12
    )
    assert renyi_entropy(math.inf, rho) == pytest.approx(-math.log(0.8), abs=1e-12)
    assert renyi_entropy(-math.inf, rho) == pytest.approx(-math.log(0.2), abs=1e-12)
    assert renyi_entropy(0.0, rho) == pytest.approx(math.log(2), abs=1e-12)
    assert renyi_entropy(2.0, rho) == pytest.approx(-math.log(0.68), abs=1e-12)


@given(alpha=st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_renyi_entropy_between_limits(alpha):
    rho = diag(0.2, 0.3, 0.5)
    h = renyi_entropy(alpha, rho)
    assert -math.log(0.5) - 1e-10 <= h <= math.log(3) + 1e-10


def test_order_validation():
    with pytest.raises(DomainError):
        petz_divergence(-0.5, diag(1.0, 0.0), diag(0.5, 0.5))
    with pytest.raises(DomainError):
        sandwiched_divergence(0.0, diag(1.0, 0.0), diag(0.5, 0.5))


def test_a_nan_entropy_order_and_unequal_dimensions_are_rejected():
    with pytest.raises(DomainError):
        renyi_entropy(math.nan, random_density(2, 0))
    with pytest.raises(InvalidInputError, match="equal dimension"):
        petz_divergence(0.8, random_density(2, 0), random_density(3, 0))

"""A `BipartiteState` holds the order-free terms of its solves (`states.held`):
what a call returns does not depend on which calls the state served before."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from petzmi.errors import UnsupportedRegimeError
from petzmi.exponents import direct_exponent
from petzmi.prmi import PrmiSolution, prmi_down_down, prmi_up_down, prmi_up_up
from petzmi.states import BipartiteState, Pmf, cc_state, copy_cc_state, random_bipartite


def _probs(seed: int, shape) -> np.ndarray:
    p = np.random.default_rng(seed).random(shape)
    return p / p.sum()


seeds = st.integers(0, 2**32 - 1)
matrices = st.one_of(
    st.builds(random_bipartite, st.just(2), st.just(2), seeds),
    st.builds(random_bipartite, st.just(2), st.just(3), seeds),
    st.builds(random_bipartite, st.just(2), st.just(3), seeds, st.just(2)),  # rank-deficient
    st.builds(random_bipartite, st.just(2), st.just(2), seeds, st.just(1)),  # pure
    st.builds(lambda s: copy_cc_state(_probs(s, 2)), seeds),
    st.builds(lambda s: cc_state(Pmf(_probs(s, (2, 3)))), seeds),  # diagonal
).map(lambda rho: (rho.matrix, rho.d_a, rho.d_b))
orders = st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0, 1.7, 2.0, 2.5])
calls = st.lists(st.one_of(
    st.tuples(st.sampled_from(["uu", "ud", "dd"]), orders),
    st.tuples(st.just("exponent"), st.sampled_from([0.0, 0.02, 0.1])),
), min_size=2, max_size=6)


def _outcome(rho: BipartiteState, call):
    """Every field of a call's result, eigensystems as lists, so that == is bit for bit."""
    name, x = call
    try:
        if name == "exponent":
            return direct_exponent(rho, x)
        out = {"uu": prmi_up_up, "ud": prmi_up_down, "dd": prmi_down_down}[name](x, rho)
    except UnsupportedRegimeError as exc:
        return str(exc)
    if isinstance(out, PrmiSolution):
        ops = [[a.tolist() for a in op.eigensystem] for op in (out.sigma_a, out.tau_b)
               if op is not None]
        return (out.value, out.residual, out.iterations, out.objective_trace, out.certified,
                out.gap, ops)
    return out


@settings(max_examples=25, deadline=None)
@given(state=matrices, sequence=calls)
def test_results_do_not_depend_on_call_order(state, sequence):
    """uu, ud and dd at some orders and direct_exponent at some rates, in a random
    sequence on one state, against each call on a fresh state."""
    shared = BipartiteState(*state)
    for call in sequence:
        assert _outcome(shared, call) == _outcome(BipartiteState(*state), call), call


def test_a_state_that_holds_terms_pickles():
    """The held terms stay behind: the copy is built from the matrix and forms
    them again, to the same results."""
    rho = random_bipartite(2, 3, 4)
    before = _outcome(rho, ("dd", 0.7))
    copy = pickle.loads(pickle.dumps(rho))
    assert np.array_equal(copy.matrix, rho.matrix) and (copy.d_a, copy.d_b) == (2, 3)
    assert _outcome(copy, ("dd", 0.7)) == before

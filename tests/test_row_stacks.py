"""A row is the same alone or stacked: the stacked uu, ud and dd solves that
`sweep` runs give, row by row and bit for bit, what the one-order public calls
that `compute` runs give, and the closed form of dd what `prmi_closed_form` gives."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petzmi import cli
from petzmi.errors import UnsupportedRegimeError
from petzmi.prmi import (_solve_dd, _up_down, _up_up, prmi_closed_form, prmi_down_down,
                         prmi_up_down, prmi_up_up)
from petzmi.states import Pmf, cc_state, copy_cc_state, random_bipartite

PRMI = sys.modules["petzmi.prmi"]


def _probs(seed: int, shape) -> np.ndarray:
    p = np.random.default_rng(seed).random(shape)
    return p / p.sum()


seeds = st.integers(0, 2**32 - 1)
states = st.one_of(
    st.builds(random_bipartite, st.just(2), st.just(2), seeds),
    st.builds(random_bipartite, st.just(2), st.just(3), seeds),
    st.builds(random_bipartite, st.just(3), st.just(3), seeds),
    st.builds(random_bipartite, st.just(2), st.just(3), seeds, st.just(2)),  # rank-deficient
    st.builds(random_bipartite, st.sampled_from([2, 3]), st.just(3), seeds, st.just(1)),  # pure
    st.builds(lambda s, d: copy_cc_state(_probs(s, d)), seeds, st.sampled_from([2, 3])),
    # diagonal
    st.builds(lambda s, d: cc_state(Pmf(_probs(s, (2, d)))), seeds, st.sampled_from([2, 3])),
)
# 0, 1/2, 1, 2 and 2.5 with a few orders between, in any order
grids = st.lists(st.floats(0.0, 2.5), min_size=1, max_size=3).flatmap(
    lambda extra: st.permutations([0.0, 0.5, 1.0, 2.0, 2.5, *extra]))


def _spectrum(op):
    return None if op is None else op.spectrum.tolist()


@settings(max_examples=60, deadline=None)
@given(rho=states, grid=grids)
def test_stacked_rows_equal_their_one_order_calls(rho, grid):
    alphas = np.array(grid)
    uu, ud = _up_up(alphas, rho), _up_down(alphas, rho)
    dd = _solve_dd(alphas, rho)
    for alpha, uu_row, ud_row, dd_row in zip(grid, uu, ud, dd, strict=True):
        assert uu_row == prmi_up_up(alpha, rho).value, alpha
        assert ud_row == prmi_up_down(alpha, rho).value, alpha
        if isinstance(dd_row, UnsupportedRegimeError):
            with pytest.raises(UnsupportedRegimeError):
                prmi_down_down(alpha, rho)
            continue
        one = prmi_down_down(alpha, rho)
        for field in ("value", "alpha", "iterations", "gap", "residual", "certified"):
            assert getattr(dd_row, field) == getattr(one, field), (alpha, field)
        assert _spectrum(dd_row.sigma_a) == _spectrum(one.sigma_a), alpha
        assert _spectrum(dd_row.tau_b) == _spectrum(one.tau_b), alpha
        closed = prmi_closed_form(alpha, rho, "dd")
        if closed is not None and alpha != 1.0:  # pure and copy-cc states
            assert closed == dd_row.value, alpha


def _counting(monkeypatch, module, calls):
    for name in ("_up_up", "_up_down", "_solve_dd"):
        def wrapped(alphas, *args, _name=name, _f=getattr(module, name)):
            calls.append((_name, len(alphas)))
            return _f(alphas, *args)
        monkeypatch.setattr(module, name, wrapped)


def test_sweep_solves_each_variant_as_one_stack_and_compute_as_one_order(
        monkeypatch, tmp_path, capsys):
    rho = random_bipartite(2, 2, 42)
    calls = []
    _counting(monkeypatch, cli, calls)
    rows = cli.sweep_rows(rho, np.linspace(0.0, 2.5, 26))
    assert sorted(calls) == [("_solve_dd", 26), ("_up_down", 26), ("_up_up", 26)]
    monkeypatch.undo()
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dA": 2, "dB": 2, "matrix": [[z.real, z.imag]
                                                            for z in rho.matrix.ravel()]}))
    _counting(monkeypatch, PRMI, calls)
    for which, column in (("uu", 1), ("ud", 2), ("dd", 3)):
        calls.clear()
        assert cli.main(["--json", "compute", "--which", which, "--alpha", "0.7",
                         "--state", str(path)]) == 0
        assert calls == [({"uu": "_up_up", "ud": "_up_down", "dd": "_solve_dd"}[which], 1)]
        assert json.loads(capsys.readouterr().out)["value"] == cli._fmt(rows[7][column])


def test_solve_dd_runs_every_loop_row_in_one_stack(monkeypatch):
    """The orders above 1/2 from their one start and those at or below 1/2 from
    their ten starts share one `_run_fixed_point` call, and each row is what
    `prmi_down_down` gives at its order, field for field."""
    rho = random_bipartite(2, 2, 42)
    grid = [0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5]
    calls = []

    def recording(alphas, *args, _f=PRMI._run_fixed_point):
        calls.append(np.atleast_1d(alphas).tolist())
        return _f(alphas, *args)

    monkeypatch.setattr(PRMI, "_run_fixed_point", recording)
    rows = _solve_dd(grid, rho)
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted([0.0] * 10 + [0.3] * 10 + [0.5] * 10 + [0.7, 1.5, 2.0])
    monkeypatch.undo()
    assert isinstance(rows[-1], UnsupportedRegimeError)
    for alpha, row in zip(grid[:-1], rows):
        one = prmi_down_down(alpha, rho)
        for field in ("value", "alpha", "iterations", "gap", "residual", "certified",
                      "objective_trace"):
            assert getattr(row, field) == getattr(one, field), (alpha, field)
        assert _spectrum(row.sigma_a) == _spectrum(one.sigma_a), alpha
        assert _spectrum(row.tau_b) == _spectrum(one.tau_b), alpha

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import petzmi
from petzmi import exponents
from petzmi.cli import _fmt, main, parse_input, sweep_rows
from petzmi.prmi import _is_product
from petzmi.states import BipartiteState, cc_state, random_bipartite, random_density


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pure_file(tmp_path):
    amps = [[math.sqrt(0.2), 0.0], [0.0, 0.0], [0.0, 0.0], [math.sqrt(0.8), 0.0]]
    return write_json(tmp_path / "pure.json", {"amplitudes": amps, "dA": 2, "dB": 2})


@pytest.fixture
def cc_file(tmp_path):
    return write_json(tmp_path / "cc.json", {"pmf": [[0.2, 0.0], [0.0, 0.8]]})


def test_parse_matrix_input(tmp_path):
    diag = [0.25, 0.25, 0.25, 0.25]
    flat = []
    for i in range(4):
        for j in range(4):
            flat.append([diag[i] if i == j else 0.0, 0.0])
    rho = parse_input(write_json(tmp_path / "m.json", {"dA": 2, "dB": 2, "matrix": flat}))
    assert rho.d_a == 2 and rho.d_b == 2
    assert np.allclose(rho.matrix, np.eye(4) / 4)


def test_parse_pure_input(pure_file):
    rho = parse_input(pure_file)
    assert rho.is_pure()
    assert np.allclose(np.diag(rho.marginal_a.matrix).real, [0.2, 0.8])


def test_missing_file_exit_code(capsys):
    assert main(["compute", "--state", "/nonexistent.json", "--alpha", "1.0"]) == 2
    assert "not found" in capsys.readouterr().err


def test_schema_violation_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"dA": 2, "dB": 2})
    assert main(["compute", "--state", path, "--alpha", "1.0"]) == 3
    assert "$" in capsys.readouterr().err


def test_schema_error_names_field(tmp_path):
    path = write_json(
        tmp_path / "bad.json", {"dA": 2, "dB": 2, "matrix": [[0.1, 0.0]] * 3}
    )
    with pytest.raises(Exception, match=r"\$\.matrix"):
        parse_input(path)


@pytest.mark.parametrize("state, field", [
    ({"dA": True, "dB": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "$.dA"),
    ({"dA": 1, "dB": 2, "matrix": [[True, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
     "$.matrix[0]"),
    ({"pmf": [[True, 0.0], [0.0, 0.0]]}, "$.pmf"),
], ids=["dims", "matrix-pair", "pmf-row"])
def test_booleans_are_not_numbers(tmp_path, capsys, state, field):
    # JSON true is a Python bool, a subclass of int: it must not pass as 1
    path = write_json(tmp_path / "bool.json", state)
    assert main(["compute", "--state", path, "--alpha", "1.0"]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text, path", [
    ('{"dB": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}', "$.dA"),
    ('{"dA": 1, "dB": 1, "matrix": [[1.0, 0.0, 0.0]]}', "$.matrix[0]"),
    ('{"dA": 1, "dB": 1,', "bad.json"),
    ("[1.0, 0.0]", "$:"),
    ('{"pmf": [[0.2, 0.0], [0.0, 0.7]]}', "$.pmf"),
    ('{"dA": 2, "dB": 2, "amplitudes": [[1.0, 0.0]]}', "$.amplitudes"),
    ('{"pmf": [[0.5, NaN]]}', "$.pmf"),
], ids=["missing-dA", "matrix-triple", "not-json", "json-list", "pmf-sum", "amplitudes-length",
        "pmf-nan"])
def test_malformed_state_files_exit_3_naming_the_path(tmp_path, capsys, text, path):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["compute", "--state", str(bad), "--alpha", "1.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: state file schema: ") and path in err


def test_invariant_violation_exit_code(tmp_path, capsys):
    flat = []
    for i in range(4):
        for j in range(4):
            flat.append([0.2525 if i == j else 0.0, 0.0])  # trace 1.01
    path = write_json(tmp_path / "t.json", {"dA": 2, "dB": 2, "matrix": flat})
    assert main(["compute", "--state", path, "--alpha", "1.0"]) == 4
    assert "trace" in capsys.readouterr().err


@pytest.mark.parametrize("text, word", [
    ('{"dA": 1, "dB": 1, "matrix": [[NaN, 0.0]]}', "finite"),
    ('{"dA": 1, "dB": 2, "matrix": [[1.0, 0.0], [Infinity, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
     "finite"),
    ('{"dA": 1, "dB": 2, "amplitudes": [[1.0, 0.0], [0.0, NaN]]}', "finite"),
    ('{"dA": 1, "dB": 2, "amplitudes": [[1.0, 0.0], [-Infinity, 0.0]]}', "finite"),
    ('{"dA": 0, "dB": 5, "matrix": []}', "nonempty"),
], ids=["matrix-nan", "matrix-inf", "amplitudes-nan", "amplitudes-inf", "empty-matrix"])
def test_non_finite_and_empty_states_exit_4(tmp_path, capsys, text, word):
    # Python's json reads NaN and Infinity: the state's own checks reject them
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["compute", "--state", str(bad), "--alpha", "0.8"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err


def test_compute_json_output(pure_file, capsys):
    assert main(["--json", "compute", "--state", pure_file, "--alpha", "1.0", "--which", "uu"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["value"]) == pytest.approx(1.000804847, abs=1e-6)
    assert out["certified"] == 1


def test_sweep_round_trip(pure_file, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--state", pure_file, "--alpha-min", "0.6", "--alpha-max", "1.4",
        "--steps", "5", "--out", str(out_csv),
    ]) == 0
    capsys.readouterr()
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "alpha,rmi0,rmi1,rmi2,certified"
    assert len(lines) == 6
    # recomputing any sampled row reproduces the CSV text bit for bit
    for line in lines[1:]:
        alpha, rmi0, rmi1, rmi2, certified = line.split(",")
        for which, expect in (("uu", rmi0), ("ud", rmi1), ("dd", rmi2)):
            assert main([
                "--json", "compute", "--state", pure_file,
                "--alpha", alpha, "--which", which,
            ]) == 0
            got = json.loads(capsys.readouterr().out)
            assert got["value"] == expect
        assert certified == "1"


def test_sweep_grid_validation(pure_file, tmp_path):
    code = main([
        "sweep", "--state", pure_file, "--alpha-min", "0.0", "--alpha-max", "3.0",
        "--steps", "4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4


@pytest.mark.parametrize("bound", ["--alpha-min", "--alpha-max"])
def test_sweep_rejects_a_nan_bound(tmp_path, capsys, bound):
    """nan fails every comparison: the grid check names the grid, not the loop's start."""
    grid = {"--alpha-min": "0.5", "--alpha-max": "1.0", bound: "nan"}
    code = main(["sweep", "--state", generic_state_file(tmp_path), *sum(grid.items(), ()),
                 "--steps", "4", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "sweep grid must lie inside [0, 2.5]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rejects_nonpositive_steps(pure_file, tmp_path, capsys):
    code = main([
        "sweep", "--state", pure_file, "--alpha-min", "0.5", "--alpha-max", "1.0",
        "--steps", "-1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4
    assert "--steps" in capsys.readouterr().err


def test_formatting_literals():
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.nan) == "nan"
    assert _fmt(1 / 3) == f"{1 / 3:.12g}"


def generic_state_file(tmp_path):
    # Bell state mixed with white noise: neither pure nor diagonal
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    m = 0.7 * bell + 0.3 * np.eye(4) / 4
    flat = [[float(m[i, j]), 0.0] for i in range(4) for j in range(4)]
    return write_json(tmp_path / "g.json", {"dA": 2, "dB": 2, "matrix": flat})


def test_sweep_unsupported_regime_emits_nan(tmp_path, capsys):
    path = generic_state_file(tmp_path)
    out_csv = tmp_path / "s.csv"
    assert main([
        "sweep", "--state", path, "--alpha-min", "2.0", "--alpha-max", "2.5",
        "--steps", "2", "--out", str(out_csv),
    ]) == 0
    capsys.readouterr()
    rows = out_csv.read_text().strip().splitlines()[1:]
    # generic state at alpha = 2.5 has no supported solver: nan, uncertified
    last = rows[-1].split(",")
    assert last[3] == "nan"
    assert last[4] == "0"


def test_sweep_of_a_4x4_pmf_writes_nan_at_and_below_half(tmp_path, capsys):
    """A diagonal state with d_A = 4 has no dd route at or below 1/2, like a
    generic 4x4 state: the sweep writes nan there, goes on, and exits 0."""
    table = np.random.default_rng(5).dirichlet(np.ones(16)).reshape(4, 4)
    path = write_json(tmp_path / "p44.json", {"pmf": table.tolist()})
    out_csv = tmp_path / "s.csv"
    assert main(["sweep", "--state", path, "--alpha-min", "0", "--alpha-max", "1",
                 "--steps", "5", "--out", str(out_csv)]) == 0
    rows = [r.split(",") for r in out_csv.read_text().strip().splitlines()[1:]]
    assert [r[3] == "nan" for r in rows] == [float(r[0]) <= 0.5 for r in rows] == [
        True, True, True, False, False]


def test_compute_dd_of_a_diagonal_state_below_half_reports_its_loop(tmp_path, capsys):
    """Below 1/2 a diagonal state runs the loop from the faces of its simplex:
    compute --json reports a numeric gap and residual, uncertified."""
    path = write_json(tmp_path / "d.json", {"pmf": [[0.35, 0.15, 0], [0, 0.05, 0.45]]})
    assert main(["--json", "compute", "--which", "dd", "--alpha", "0.25", "--state", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["value"]) <= 0.2301142829 and out["certified"] == 0
    assert isinstance(out["gap"], float) and math.isfinite(float(out["residual"]))


def test_compute_dd_in_an_unsupported_regime_exits_4(tmp_path, capsys):
    """A generic state above 2, and a non-diagonal 4x4 state at alpha <= 1/2,
    have no dd route: compute prints no value and exits 4 with the reason on
    stderr."""
    m = random_bipartite(4, 4, 3).matrix
    big = write_json(tmp_path / "g44.json", {
        "dA": 4, "dB": 4, "matrix": [[z.real, z.imag] for z in m.ravel()]})
    for path, alpha in ((generic_state_file(tmp_path), "2.4"), (big, "0.4")):
        assert main(["--json", "compute", "--which", "dd", "--state", path, "--alpha", alpha]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "support" in err


def test_strict_exit_on_uncertified(tmp_path, capsys):
    path = generic_state_file(tmp_path)
    out_csv = tmp_path / "s.csv"
    code = main([
        "--strict", "sweep", "--state", path, "--alpha-min", "2.5",
        "--alpha-max", "2.5", "--steps", "1", "--out", str(out_csv),
    ])
    assert code == 5


def test_exponent_command(cc_file, capsys):
    assert main(["--json", "exponent", "--state", cc_file, "--rate", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["exponent"]) > 0
    assert out["guaranteed_exact"] == 1


def test_exponent_curve(cc_file, capsys):
    argv = ["exponent", "--state", cc_file, "--rate", "0.3", "--curve"]
    # --strict passes: every solve of the exponent and of the curve is certified
    assert main(["--json", "--strict"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] == 1
    assert [p["certified"] for p in out["curve"]] == [1] * 25
    points = [(float(p["s"]), float(p["rate"]), float(p["exponent"])) for p in out["curve"]]
    assert len(points) == 25
    s, rates, exponents = (np.array(col) for col in zip(*points))
    assert np.all((s > 0.5) & (s < 1.0)) and np.all(np.diff(s) > 0)
    assert np.all(np.diff(rates) >= 0)
    assert np.all(rates <= float(out["mutual_information"]) + 1e-9)
    assert np.all(exponents >= 0)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("s,rate,exponent,certified")
    assert len(lines[header + 1:]) == 25


def test_strict_exponent_exits_5_on_an_uncertified_solve(pure_file, capsys, monkeypatch):
    def uncertified(alphas, rho):
        return [dataclasses.replace(sol, certified=False) for sol in solve_dd(alphas, rho)]

    solve_dd = exponents._solve_dd
    monkeypatch.setattr(exponents, "_solve_dd", uncertified)
    argv = ["exponent", "--state", pure_file, "--rate", "0.1"]
    assert main(["--json"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["certified"] == 0
    assert main(["--strict"] + argv) == 5
    assert "certified: 0" in capsys.readouterr().out.splitlines()


def test_strict_exponent_exits_5_on_an_uncertified_curve_point(cc_file, capsys, monkeypatch):
    def one_uncertified(rho, grid):
        points = rate_curve(rho, grid)
        return points[:-1] + [dataclasses.replace(points[-1], certified=False)]

    rate_curve = exponents.rate_curve
    monkeypatch.setattr(exponents, "rate_curve", one_uncertified)
    argv = ["--json", "exponent", "--state", cc_file, "--rate", "0.1", "--curve"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] == 1 and out["curve"][-1]["certified"] == 0
    assert main(["--strict"] + argv) == 5


def test_exponent_rejects_nan_rate(cc_file, capsys):
    assert main(["exponent", "--state", cc_file, "--rate", "nan"]) == 4
    assert "rate" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compute", "--alpha", "0.7"],
    ["exponent", "--rate", "0.3"],
])
def test_global_flags_after_subcommand(cc_file, capsys, command):
    flags = ["--json", "--strict"]
    argv = [command[0], "--state", cc_file] + command[1:]
    assert main(flags + argv) == 0
    before = capsys.readouterr().out
    assert main(argv + flags) == 0
    assert capsys.readouterr().out == before
    json.loads(before)


def test_compute_dd_below_half_reports_uncertified_gap(tmp_path, capsys):
    path = generic_state_file(tmp_path)
    assert main(["--json", "compute", "--which", "dd", "--alpha", "0.3", "--state", path]) == 0
    out = json.loads(capsys.readouterr().out)
    # the loop's last iterate: finite figures, but no certificate below 1/2
    assert math.isfinite(float(out["residual"]))
    assert math.isfinite(out["gap"])
    assert out["certified"] == 0


@pytest.mark.parametrize("which, alpha", [
    *(pytest.param("dd", a, id=a) for a in ("0", "0.3", "0.7")),
    *(pytest.param("ud", a, id=f"ud-{a}") for a in ("0", "0.3", "0.7")),
])
def test_compute_dd_prints_positive_zero(tmp_path, capsys, which, alpha):
    path = write_json(tmp_path / "product.json", {"pmf": [[0.06, 0.14], [0.24, 0.56]]})
    assert main(["--json", "compute", "--which", which, "--alpha", alpha, "--state", path]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0"


def test_sweep_rmi0_is_never_negative():
    # uu of a product state is 0, which rounding can turn into -0 or -1.85e-16
    state = cc_state([[0.06, 0.14], [0.24, 0.56]])
    rows = sweep_rows(state, np.linspace(0.0, 2.5, 26))
    for alpha, rmi0, *_ in rows:
        assert rmi0 >= 0.0 and _fmt(rmi0) != "-0", alpha


@pytest.mark.parametrize("flag", ["--restarts", "--seed", "--tol", "--max-iter"])
def test_restart_flags_are_gone(cc_file, capsys, flag):
    argv = ["compute", "--state", cc_file, "--alpha", "0.7"]
    # after the subcommand and before it, where argparse would otherwise take
    # the flag's value for the subcommand
    for placed in (argv + [flag, "8"], [flag, "8"] + argv):
        with pytest.raises(SystemExit) as exc:
            main(placed)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


def test_simulate_command(cc_file, capsys):
    assert main(["--json", "simulate", "--state", cc_file, "--rate", "0.3", "--n-max", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["per_n"]) == 2
    assert out["asymptotic_exponent"] > 0


def test_simulate_reports_the_threshold_of_its_exponent(cc_file, capsys):
    """simulate prints the direct exponent's R_(1/2) and guaranteed_exact next to
    it, in text and in --json, as `exponent` reports them."""
    argv = ["simulate", "--state", cc_file, "--rate", "0.3", "--n-max", "1"]
    assert main(["--json"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert main(["--json", "exponent", "--state", cc_file, "--rate", "0.3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert _fmt(out["r_half"]) == report["r_half"] and 0 < out["r_half"] < 0.3
    assert out["guaranteed_exact"] is True and report["guaranteed_exact"] == 1
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == [f"r_half: {report['r_half']}", "guaranteed_exact: 1"]


def test_simulate_flags_vacuous_rows(cc_file, capsys):
    assert main(["--json", "simulate", "--state", cc_file, "--rate", "0.3", "--n-max", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)["per_n"]
    assert all(isinstance(r["vacuous"], bool) and r["vacuous"] == (r["exponent"] <= 0)
               for r in rows)
    # the plain-text table keeps its six columns
    assert main(["simulate", "--state", cc_file, "--rate", "0.3", "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == "n,s,exponent,type_one,type_one_bound,type_two_bound"
    assert [len(line.split(",")) for line in lines[5:]] == [6, 6]


def test_simulate_at_a_large_rate_exits_cleanly(cc_file, capsys):
    # at rate 40 the type-I bound at s = 0.05 leaves float range; the sweep
    # reads its exponents from the bounds' logarithms
    assert main(["--json", "simulate", "--state", cc_file, "--rate", "40", "--n-max", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["per_n"]
    assert len(rows) == 3 and all(r["vacuous"] is True for r in rows)


def test_simulate_json_writes_a_bound_beyond_float_range_as_null(cc_file, capsys):
    # at rate 100000 every type-I bound leaves float range: --json writes it as
    # null, as RFC 8259 JSON has no Infinity, and the text table as inf
    argv = ["simulate", "--state", cc_file, "--rate", "100000", "--n-max", "1"]
    assert main(["--json"] + argv) == 0

    def reject(constant):
        raise AssertionError(f"not JSON: {constant}")

    rows = json.loads(capsys.readouterr().out, parse_constant=reject)["per_n"]
    assert rows[0]["type_one_bound"] is None and rows[0]["vacuous"] is True
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[5].split(",")[4] == "inf"


@pytest.mark.parametrize("rate", ["1e308", "inf"])
def test_simulate_json_writes_an_overflowing_exponent_as_null(cc_file, capsys, rate):
    """At rate 1e308, n R overflows at n = 2: that row's exponent is -inf, and at
    rate inf the rate is too. --json writes every non-finite float as null."""
    argv = ["--json", "simulate", "--state", cc_file, "--rate", rate, "--n-max", "2"]
    assert main(argv) == 0

    def reject(constant):
        raise AssertionError(f"not JSON: {constant}")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["per_n"][1]["exponent"] is None
    if rate == "1e308":
        assert math.isfinite(out["per_n"][0]["exponent"]) and out["rate"] == 1e308
    else:
        assert out["rate"] is None


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_simulate_rejects_nonpositive_n_max(cc_file, capsys, n_max):
    assert main(["simulate", "--state", cc_file, "--rate", "0.1", "--n-max", n_max]) == 4
    assert "n_max" in capsys.readouterr().err


def test_simulate_rejects_nan_rate(cc_file, capsys):
    assert main(["simulate", "--state", cc_file, "--rate", "nan", "--n-max", "1"]) == 4
    assert "rate" in capsys.readouterr().err


def test_oracle_command(pure_file, capsys):
    assert main(["--json", "oracle", "--state", pure_file, "--alpha", "0.8",
                 "--resolution", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["value"]) > 0


def test_oracle_command_rejects_resolution_zero(tmp_path, capsys):
    rho = random_bipartite(3, 3, 1)
    flat = [[float(z.real), float(z.imag)] for z in rho.matrix.reshape(-1)]
    path = write_json(tmp_path / "g33.json", {"dA": 3, "dB": 3, "matrix": flat})
    assert main(["oracle", "--state", path, "--alpha", "0.8", "--resolution", "0"]) == 4
    assert "resolution" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out(tmp_path):
    """`import petzmi.cli`, then compute at 0.8 and at 0.3, the loop from ten
    starts, and sweep over [0.6, 1.6] on a generic 2x2 state, in a fresh
    process: no scipy module is loaded, and the four lazy modules are registered
    but unexecuted (type() does not load them); the package's exponent names
    still import, from the lazy `exponents`."""
    src = str(Path(petzmi.__file__).resolve().parents[1])
    state = write_json(tmp_path / "g22.json", {"dA": 2, "dB": 2, "matrix": [
        [float(z.real), float(z.imag)] for z in random_bipartite(2, 2, 42).matrix.ravel()]})
    code = f"""
import sys, types, petzmi.cli
argv = ["--state", {state!r}]
assert petzmi.cli.main(["compute", "--alpha", "0.8", *argv]) == 0
assert petzmi.cli.main(["compute", "--which", "dd", "--alpha", "0.3", *argv]) == 0
assert petzmi.cli.main(["sweep", "--alpha-min", "0.6", "--alpha-max", "1.6", "--steps", "6",
                        "--out", {str(tmp_path / "s.csv")!r}, *argv]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
print(all(type(sys.modules["petzmi." + m]) is not types.ModuleType
          for m in ("classical", "exponents", "hypotest", "oracle")))
from petzmi import ExponentReport, alpha_derivative, direct_exponent, rate_curve
print(direct_exponent.__module__, type(sys.modules["petzmi.exponents"]) is types.ModuleType)
"""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-3:] == ["[]", "True", "petzmi.exponents True"]


PRODUCTS = [cc_state(np.array([[0.06, 0.14], [0.24, 0.56]]))] + [
    BipartiteState(np.kron(random_density(d_a, seed).matrix,
                           random_density(d_b, 100 + seed).matrix), d_a, d_b)
    for seed, (d_a, d_b) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])] + [
    BipartiteState(np.kron(random_density(2, rng).matrix, random_density(3, rng, rank=1).matrix),
                   2, 3) for rng in [np.random.default_rng(0)]]


@pytest.mark.parametrize("rho", PRODUCTS,
                         ids=["cc-2x2"] + [f"product-{k}" for k in range(6)] + ["pure-factor"])
def test_sweep_of_a_product_state_reads_zero_in_every_column(rho):
    """(0.2, 0.8) x (0.3, 0.7) as a pmf, products of random full-rank
    marginals, and one with a pure factor, whose rho - rho_A x rho_B is rounding
    on the kernel of the product: uu, ud and dd are each +0 at every order,
    certified."""
    assert _is_product(rho)
    for alpha, *values, certified in sweep_rows(rho, np.linspace(0.0, 2.5, 26)):
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values), (alpha, values)
        assert certified == 1

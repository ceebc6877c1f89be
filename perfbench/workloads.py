"""The benchmark's workloads: inputs built from a seed, the top-level calls of
one pass, and an independent check of every output.

Each `Call` builds its state afresh from a plain matrix before calling into
petzmi, so a call does the same work whichever pass it is in and whatever ran
before it. The reference values are computed here with numpy from the
marginal spectra; none of them calls petzmi.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One rate per state, as a fraction of its I(A:B): 0.1 puts s* on the s = 1/2
# boundary, 0.45 and 0.8 inside. Copy-cc also gets a rate above I(A:B), where
# the exponent must be exactly 0: the call still computes r_half, whose
# alpha = 0 solve is a closed form there but a grid search on a generic state,
# which would dominate the call.
EXPONENT_RATE_FRACTIONS = {"g33": 0.1, "g22": 0.8, "g23": 0.45, "r22": 0.8, "cc": 0.45}
ZERO_RATE_FRACTION = 1.2
CURVE_POINTS = 25
SWEEP_ALPHAS = 11  # grid over [0, 2.5] in steps of 1/4: hits 1/2, 1, 2 and 2.5
DEFECT_ALPHAS = 26  # the CLI sweep's grid, for the rows of known_defect_calls
BLOCK_N_MAX = 4
BLOCK_S_POINTS = 20  # the s grid of hypotest.achievability_sweep
BLOCK_RATE_FRACTION = 0.6
CLI_SWEEP = ("0.6", "1.6", 6)  # alpha-min, alpha-max, steps: no brute-force rows

ABS_TOL = 1e-8  # solver outputs against closed forms (solver tol is 1e-12)
INVARIANT_SLACK = 1e-9


class CheckFailed(Exception):
    """An output broke an invariant or missed its reference value."""


@dataclass(frozen=True)
class Call:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], float]  # absolute error against the reference


# --------------------------------------------------------------------------
# inputs (Ginibre sampling, numpy only)

def ginibre(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    k = dim if rank is None else rank
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def copy_cc(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    table = np.diag(p)
    return np.diag(table.reshape(-1)).astype(complex)


# --------------------------------------------------------------------------
# references

def _probs(values: np.ndarray) -> np.ndarray:
    p = np.clip(np.real(values), 0.0, None)
    return p[p > p.size * p.max() * np.finfo(float).eps]


def renyi_entropy(beta: float, p: np.ndarray) -> float:
    p = _probs(p)
    if beta == math.inf:
        return -math.log(float(p.max()))
    if abs(beta - 1.0) <= 1e-6:
        return float(-np.sum(p * np.log(p)))
    return math.log(float(np.sum(p**beta))) / (1.0 - beta)


def marginals(m: np.ndarray, d_a: int, d_b: int):
    r = m.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ibjb->ij", r), np.einsum("aiaj->ij", r)


def mutual_information(m: np.ndarray, d_a: int, d_b: int) -> float:
    rho_a, rho_b = marginals(m, d_a, d_b)
    spec = [np.linalg.eigvalsh(x) for x in (rho_a, rho_b, m)]
    return renyi_entropy(1.0, spec[0]) + renyi_entropy(1.0, spec[1]) - renyi_entropy(1.0, spec[2])


def _power(m: np.ndarray, p: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    keep = vals > vals.size * vals.max() * np.finfo(float).eps
    powered = np.zeros_like(vals)
    powered[keep] = vals[keep] ** p
    return (vecs * powered) @ vecs.conj().T


def petz(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Petz D_alpha(rho || sigma) for alpha != 1 by direct spectral calculus."""
    q = float(np.real(np.trace(_power(rho, alpha) @ _power(sigma, 1.0 - alpha))))
    return math.log(q) / (alpha - 1.0)


def petz_uu(alpha: float, m: np.ndarray, d_a: int, d_b: int) -> float:
    """D_alpha(rho || rho_A x rho_B)."""
    if abs(alpha - 1.0) <= 1e-6:
        return mutual_information(m, d_a, d_b)
    return petz(alpha, m, np.kron(*marginals(m, d_a, d_b)))


def pure_forms(alpha: float, schmidt: np.ndarray) -> tuple[float, float, float]:
    """(uu, ud, dd) of a pure state from its Schmidt probabilities."""
    uu = 2.0 * renyi_entropy(3.0 - 2.0 * alpha, schmidt)
    ud = 2.0 * renyi_entropy(math.inf if alpha == 0 else (2.0 - alpha) / alpha, schmidt)
    if alpha <= 0.5:
        dd = renyi_entropy(math.inf, schmidt) / (1.0 - alpha)
    else:
        dd = 2.0 * renyi_entropy(1.0 / (2.0 * alpha - 1.0), schmidt)
    return uu, ud, dd


def copy_cc_forms(alpha: float, p: np.ndarray) -> tuple[float, float, float]:
    """(uu, ud, dd) of sum_x p(x)|xx><xx|."""
    uu = renyi_entropy(2.0 - alpha, p)
    ud = renyi_entropy(math.inf if alpha == 0 else 1.0 / alpha, p)
    if alpha <= 0.5:
        dd = alpha / (1.0 - alpha) * renyi_entropy(math.inf, p)
    else:
        dd = renyi_entropy(alpha / (2.0 * alpha - 1.0), p)
    return uu, ud, dd


def classical_ud(alpha: float, table: np.ndarray) -> float:
    """min over q of D_alpha(P || P_X x q) for a joint pmf table."""
    p_x = table.sum(axis=1)
    if abs(alpha - 1.0) <= 1e-6:
        prod = np.outer(p_x, table.sum(axis=0))
        mask = table > 0
        return float(np.sum(table[mask] * np.log(table[mask] / prod[mask])))
    if alpha == 0:
        return -math.log(float(np.max(np.where(table > 0, p_x[:, None], 0.0).sum(axis=0))))
    col = (table**alpha * p_x[:, None] ** (1.0 - alpha)).sum(axis=0)
    return alpha / (alpha - 1.0) * math.log(float(np.sum(col ** (1.0 / alpha))))


def copy_cc_dd_curve(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """I_s = H_{s/(2s-1)}(p) of the copy state, vectorized over s in (1/2, 1)."""
    beta = s / (2.0 * s - 1.0)
    return np.log(np.sum(p[:, None] ** beta[None, :], axis=0)) / (1.0 - beta)


# --------------------------------------------------------------------------
# checks

def _close(name: str, got: float, want: float, tol: float = ABS_TOL) -> float:
    err = abs(got - want)
    if not err <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r}")
    return err


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _ordered(values, name: str) -> None:
    """uu >= ud >= dd >= 0 where dd is not nan, certified or not."""
    uu, ud, dd = values
    _require(uu >= ud - INVARIANT_SLACK, f"{name}: uu {uu!r} < ud {ud!r}")
    if not math.isnan(dd):
        _require(dd >= -INVARIANT_SLACK, f"{name}: dd {dd!r} < 0")
        _require(ud >= dd - INVARIANT_SLACK, f"{name}: ud {ud!r} < dd {dd!r}")


# --------------------------------------------------------------------------
# workloads

def _library() -> SimpleNamespace:
    """petzmi's modules, looked up at call time so that a tracer's patches
    apply. (The package attribute `petzmi.prmi` is the function, not the
    module.)"""
    return SimpleNamespace(**{name: importlib.import_module(f"petzmi.{name}")
                              for name in ("exponents", "hypotest", "prmi", "states")})


def exponent_calls(seed: int, small: bool) -> list[Call]:
    """direct_exponent at one rate per state plus one rate_curve per state."""
    lib = _library()
    rng = np.random.default_rng(seed)
    # g33 first: its warm-up call is the cheapest that runs every lazy import
    inputs = [
        ("g33", ginibre(rng, 9), 3, 3),
        ("g22", ginibre(rng, 4), 2, 2),
        ("g23", ginibre(rng, 6), 2, 3),
        ("r22", ginibre(rng, 4, rank=2), 2, 2),
        ("cc", copy_cc([0.2, 0.8]), 2, 2),
    ]
    grid = np.linspace(0.5 + 1e-3, 1.0 - 1e-3, CURVE_POINTS)
    if small:
        inputs = [inputs[0], inputs[-1]]
        grid = grid[::12]
    calls = []
    for name, m, d_a, d_b in inputs:
        info = mutual_information(m, d_a, d_b)
        p = np.real(np.diag(m))[:: d_b + 1] if name == "cc" else None
        fractions = (EXPONENT_RATE_FRACTIONS[name],)
        for frac in fractions + ((ZERO_RATE_FRACTION,) if name == "cc" else ()):
            rate = frac * info
            calls.append(Call(
                f"{name}/direct_exponent/rate={frac}I",
                lambda m=m, d_a=d_a, d_b=d_b, rate=rate: lib.exponents.direct_exponent(
                    lib.states.BipartiteState(m, d_a, d_b), rate),
                lambda rep, name=name, info=info, rate=rate, p=p:
                    _check_exponent(rep, name, info, rate, p),
            ))
        calls.append(Call(
            f"{name}/rate_curve",
            lambda m=m, d_a=d_a, d_b=d_b: lib.exponents.rate_curve(
                lib.states.BipartiteState(m, d_a, d_b), grid),
            lambda pts, name=name, info=info, p=p: _check_curve(pts, name, info, grid, p),
        ))
    return calls


def _check_exponent(rep, name: str, info: float, rate: float, p) -> float:
    err = _close(f"{name}: mutual information", rep.mutual_information, info)
    _require(rep.exponent >= 0.0, f"{name}: negative exponent {rep.exponent!r}")
    _require((rep.exponent == 0.0) == (rate >= info),
             f"{name}: exponent {rep.exponent!r} at rate {rate!r}, I(A:B) = {info!r}")
    if p is not None:
        s = np.linspace(0.5 + 1e-4, 1.0 - 1e-4, 200001)
        # the objective tends to 0 as s -> 1, so the supremum is at least 0
        grid_best = max(0.0, float(np.max((1.0 - s) / s * (copy_cc_dd_curve(p, s) - rate))))
        _require(rep.exponent >= grid_best - INVARIANT_SLACK,
                 f"{name}: exponent {rep.exponent!r} below the dense s-grid value {grid_best!r}")
        err = max(err, _close(f"{name}: exponent vs dense s-grid", rep.exponent, grid_best, 1e-7))
    return err


def _check_curve(points, name: str, info: float, grid: np.ndarray, p) -> float:
    _require(len(points) == len(grid), f"{name}: {len(points)} curve points")
    err = 0.0
    for pt in points:
        _require(pt.exponent >= -INVARIANT_SLACK, f"{name}: negative exponent at s={pt.s}")
        _require(pt.rate <= info + INVARIANT_SLACK, f"{name}: rate above I(A:B) at s={pt.s}")
    if p is not None:
        s = np.array([pt.s for pt in points])
        h = 1e-6
        i_s = copy_cc_dd_curve(p, s)
        d_s = (copy_cc_dd_curve(p, s + h) - copy_cc_dd_curve(p, s - h)) / (2 * h)
        for pt, i, d in zip(points, i_s, d_s):
            err = max(err, _close(f"{name}: curve rate at s={pt.s}", pt.rate,
                                  float(i - pt.s * (1 - pt.s) * d), 1e-6))
            err = max(err, _close(f"{name}: curve exponent at s={pt.s}", pt.exponent,
                                  float((1 - pt.s) ** 2 * d), 1e-6))
    return err


def _sweep_inputs(seed: int):
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.ones(9)).reshape(3, 3)
    return [
        ("g33", ginibre(rng, 9), 3, 3),
        ("g22", ginibre(rng, 4), 2, 2),
        ("g44", ginibre(rng, 16), 4, 4),
        ("pure33", pure(rng, 9), 3, 3),
        ("cc", copy_cc([0.2, 0.8]), 2, 2),
        ("gcc33", np.diag(table.reshape(-1)).astype(complex), 3, 3),
    ]


def known_defect(name: str, alpha: float) -> bool:
    """The alpha rows on which the package failed its checks when the
    benchmark was added (README, "Failures of the package"): the uncertified
    3x3 grid estimate of dd above ud at 0 < alpha <= 1/2, and prmi_up_up
    raising on the pure 3x3 state at alpha > 1, where it takes a negative
    power of a marginal product with small eigenvalues. The timed solver
    workload leaves them out; known_defect_calls runs them."""
    return (name == "g33" and 0.0 < alpha <= 0.5) or (name == "pure33" and alpha > 1.0)


def _row_calls(inputs, alphas, keep) -> list[Call]:
    """One alpha row (uu, ud, dd) per call, for the (input, alpha) pairs kept."""
    lib = _library()
    from petzmi.errors import UnsupportedRegimeError

    def row(alpha: float, m, d_a: int, d_b: int):
        rho = lib.states.BipartiteState(m, d_a, d_b)
        uu = lib.prmi.prmi_up_up(alpha, rho).as_float()
        ud = lib.prmi.prmi_up_down(alpha, rho).as_float()
        try:
            sol = lib.prmi.prmi_down_down(alpha, rho)
        except UnsupportedRegimeError:
            return uu, ud, math.nan, False, None
        point = None
        if not sol.certified and sol.sigma_a is not None and sol.tau_b is not None:
            point = (sol.sigma_a.matrix, sol.tau_b.matrix)
        return uu, ud, sol.as_float(), sol.certified, point

    calls = []
    for name, m, d_a, d_b in inputs:
        for alpha in alphas:
            alpha = float(alpha)
            if not keep(name, alpha):
                continue
            calls.append(Call(
                f"{name}/alpha={alpha:.12g}",
                lambda alpha=alpha, m=m, d_a=d_a, d_b=d_b: row(alpha, m, d_a, d_b),
                lambda out, name=name, alpha=alpha, m=m, d_a=d_a, d_b=d_b:
                    _check_row(out, name, alpha, m, d_a, d_b),
            ))
    return calls


def sweep_calls(seed: int, small: bool) -> list[Call]:
    """One alpha row per call on the 11-point grid over [0, 2.5], without the
    rows of known defects."""
    inputs = _sweep_inputs(seed)
    alphas = np.linspace(0.0, 2.5, SWEEP_ALPHAS)
    if small:
        inputs = [inputs[1], inputs[4]]
        alphas = alphas[::2]
    return _row_calls(inputs, alphas, lambda name, alpha: not known_defect(name, alpha))


def known_defect_calls(seed: int) -> list[Call]:
    """The rows of known defects on the sweep's inputs for this seed, on the
    26-point grid of the CLI sweep, checked as every sweep row is."""
    return _row_calls(_sweep_inputs(seed), np.linspace(0.0, 2.5, DEFECT_ALPHAS), known_defect)


def _check_row(out, name: str, alpha: float, m, d_a: int, d_b: int) -> float:
    uu, ud, dd, certified, point = out
    label = f"{name}/alpha={alpha:.12g}"
    _require(math.isfinite(uu) and math.isfinite(ud), f"{label}: uu/ud not finite")
    _ordered((uu, ud, dd), label if certified or math.isnan(dd) else f"{label} (uncertified)")
    if name == "pure33":
        rho_a, _ = marginals(m, d_a, d_b)
        want = pure_forms(alpha, np.linalg.eigvalsh(rho_a))
    elif name == "cc":
        want = copy_cc_forms(alpha, np.real(np.diag(m))[:: d_b + 1])
    else:
        want = None
    if want is not None:
        return max(_close(f"{label}: {key}", got, ref)
                   for key, got, ref in zip(("uu", "ud", "dd"), (uu, ud, dd), want))
    # generic states: dd exists except above alpha = 2 and, for local
    # dimension > 3 and non-diagonal states, at alpha <= 1/2
    diagonal = name.startswith("gcc")
    expect_nan = alpha > 2.0 or (alpha <= 0.5 and not diagonal and max(d_a, d_b) > 3)
    _require(math.isnan(dd) == expect_nan, f"{label}: dd = {dd!r}")
    if 0.5 < alpha <= 2.0:
        _require(bool(certified), f"{label}: fixed point not certified")
    err = _close(f"{label}: uu", uu, petz_uu(alpha, m, d_a, d_b))
    if diagonal:
        table = np.real(np.diag(m)).reshape(d_a, d_b)
        err = max(err, _close(f"{label}: ud", ud, classical_ud(alpha, table)))
    if point is not None:
        # an uncertified dd (product-state grid search, alpha <= 1/2) must be
        # the objective at the product state it returns
        err = max(err, _close(f"{label}: dd at its minimizer", dd,
                              petz(alpha, m, np.kron(*point))))
    return err


def blocklength_calls(seed: int, small: bool) -> list[Call]:
    """hypotest.test_errors over n = 1..4 x the 20-point s grid."""
    lib = _library()
    rng = np.random.default_rng(seed)
    inputs = [("cc", copy_cc([0.2, 0.8])), ("g22", ginibre(rng, 4))]
    n_values = range(1, BLOCK_N_MAX + 1)
    s_values = np.linspace(0.05, 0.95, BLOCK_S_POINTS)
    if small:
        n_values, s_values = range(1, 3), s_values[::9]
    calls = []
    for name, m in inputs:
        rate = BLOCK_RATE_FRACTION * mutual_information(m, 2, 2)
        for n in n_values:
            for s in s_values:
                s = float(s)
                calls.append(Call(
                    f"{name}/n={n}/s={s:.12g}",
                    lambda m=m, n=n, rate=rate, s=s: lib.hypotest.test_errors(
                        lib.states.BipartiteState(m, 2, 2), n, rate, s),
                    lambda errs, name=name, n=n, rate=rate: _check_test(errs, name, n, rate),
                ))
    return calls


def _check_test(errs, name: str, n: int, rate: float) -> float:
    label = f"{name}/n={n}/s={errs.s:.12g}"
    want = math.exp(-n * rate)
    rel = abs(errs.type_two_bound - want) / want
    _require(rel <= 1e-9, f"{label}: type-II bound {errs.type_two_bound!r} != e^(-nR) = {want!r}")
    _require(0.0 <= errs.type_one <= 1.0 + INVARIANT_SLACK, f"{label}: type-I {errs.type_one!r}")
    _require(errs.type_one <= errs.type_one_bound * (1 + 1e-9) + 1e-15,
             f"{label}: type-I {errs.type_one!r} above its bound {errs.type_one_bound!r}")
    return rel


# --------------------------------------------------------------------------
# cli: one fresh petzmi process per call

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_state_file(path: Path, m: np.ndarray, d_a: int, d_b: int) -> str:
    flat = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    path.write_text(json.dumps({"dA": d_a, "dB": d_b, "matrix": flat}))
    return str(path)


class CliRunner:
    """Runs `petzmi` commands as child processes, plain or, once `spans_prefix`
    is set, through the traced child entry point (`clichild.py`), which writes
    its counters to a file in the work directory and its spans beside
    `spans_prefix`."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.spans_prefix: str | None = None
        self.dumps: list[str] = []

    def __call__(self, argv: list[str]) -> str:
        if self.spans_prefix is not None:
            k = len(self.dumps)
            out = str(self.workdir / f"child-{k}.json")
            self.dumps.append(out)
            cmd = [sys.executable, str(ROOT / "perfbench" / "clichild.py"), "--out", out,
                   "--spans", f"{self.spans_prefix}-child{k}.json.gz", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "petzmi.cli", *argv]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"petzmi {' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return proc.stdout


def cli_calls(seed: int, small: bool, runner: CliRunner) -> list[Call]:
    """Per pass: `sweep`, then `compute` dd and uu at one of the sweep's alphas."""
    rng = np.random.default_rng(seed)
    m = ginibre(rng, 4)
    state = write_state_file(runner.workdir / "g22.json", m, 2, 2)
    csv_path = runner.workdir / "sweep.csv"
    lo, hi, steps = CLI_SWEEP
    if small:
        steps = 3
    sweep_argv = ["--json", "sweep", "--state", state, "--alpha-min", lo, "--alpha-max", hi,
                  "--steps", str(steps), "--out", str(csv_path)]
    # the alpha that compute re-runs, as the CSV prints it
    alpha = f"{np.linspace(float(lo), float(hi), steps)[seed % steps]:.12g}"
    sweep_rows: dict = {}

    def run_sweep():
        out = json.loads(runner(sweep_argv).strip().splitlines()[-1])
        rows = csv_path.read_text().strip().splitlines()
        return out, rows

    def check_sweep(result) -> float:
        out, rows = result
        _require(rows[0] == "alpha,rmi0,rmi1,rmi2,certified", f"sweep header {rows[0]!r}")
        _require(len(rows) == steps + 1, f"sweep wrote {len(rows) - 1} rows")
        err = 0.0
        for line in rows[1:]:
            a, r0, r1, r2, cert = line.split(",")
            label = f"g22/sweep/alpha={a}"
            _ordered((float(r0), float(r1), float(r2)), label)
            _require(cert == "1", f"{label}: not certified")
            err = max(err, _close(f"{label}: rmi0", float(r0), petz_uu(float(a), m, 2, 2)))
            sweep_rows[a] = (r0, r2)
        _require(len(out["rows"]) == steps, "sweep --json row count")
        return err

    def compute(which: str):
        return json.loads(runner(["--json", "compute", "--state", state, "--alpha", alpha,
                                  "--which", which]).strip().splitlines()[-1])

    def check_compute(out, which: str) -> float:
        label = f"g22/compute/{which}/alpha={alpha}"
        csv_value = sweep_rows[alpha][0 if which == "uu" else 1]
        # re-running compute reproduces the sweep CSV entry bit for bit
        _require(out["value"] == csv_value,
                 f"{label}: value {out['value']!r} != sweep CSV {csv_value!r}")
        return _close(label, float(out["value"]), float(csv_value))

    return [
        Call("g22/sweep", run_sweep, check_sweep),
        Call(f"g22/compute/dd/alpha={alpha}", lambda: compute("dd"),
             lambda out: check_compute(out, "dd")),
        Call(f"g22/compute/uu/alpha={alpha}", lambda: compute("uu"),
             lambda out: check_compute(out, "uu")),
    ]


WORKLOADS = ("solver", "blocklength", "cli")


def build(workload: str, seed: int, small: bool, runner: CliRunner | None = None) -> list[Call]:
    if workload == "solver":
        # the exponent calls first: the first of them, the warm-up call, runs
        # every lazy import
        return exponent_calls(seed, small) + sweep_calls(seed, small)
    if workload == "blocklength":
        return blocklength_calls(seed, small)
    if workload == "cli":
        return cli_calls(seed, small, runner)
    raise ValueError(f"unknown workload {workload!r}")

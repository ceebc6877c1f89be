"""Command-line front end.

Subcommands:
  compute   one Renyi mutual information value at a single order
  sweep     all three variants over an alpha grid, written as CSV: one stack per
            variant, of which compute is the one-order case, bit for bit
  exponent  direct error exponent at a type-II rate (optionally the full curve)
  simulate  finite-blocklength universal tests versus the asymptotic exponent
  oracle    exhaustive product-state search at a single order

Exit codes: 0 success, 2 missing input file, 3 schema violation, 4 invariant
violation (state fails to be a valid density operator) or no supported route
(`compute --which dd` on a generic state above 2; `sweep` writes nan there),
5 solver result not certified (gap and residual within tolerance) under --strict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import exponents, hypotest, oracle
from .errors import InvalidInputError, PetzmiError, UnsupportedRegimeError
from .prmi import PrmiSolution, _solve_dd, _up_down, _up_up, prmi
from .states import BipartiteState, Pmf, cc_state, pure_bipartite

EXIT_OK = 0
EXIT_MISSING_FILE = 2
EXIT_SCHEMA = 3
EXIT_INVARIANT = 4
EXIT_NOT_CONVERGED = 5


class SchemaError(Exception):
    pass


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise SchemaError(f"{path}.{field}: missing required field")
    return obj[field]


# exact types: JSON true and false load as bool, a subclass of int
def _is_number(x) -> bool:
    return type(x) in (int, float)


def _dims(raw: dict) -> tuple[int, int]:
    d_a = _require(raw, "dA", "$")
    d_b = _require(raw, "dB", "$")
    if type(d_a) is not int or type(d_b) is not int:
        raise SchemaError("$.dA/$.dB: expected integers")
    return d_a, d_b


def _complex_array(entries, path: str) -> np.ndarray:
    out = []
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"{path}[{idx}]: expected a [re, im] pair")
        re, im = pair
        if not _is_number(re) or not _is_number(im):
            raise SchemaError(f"{path}[{idx}]: entries must be numbers")
        out.append(complex(re, im))
    return np.asarray(out)


def parse_input(path: str) -> BipartiteState:
    """Load a bipartite state from a JSON file.

    Accepted shapes: {"dA", "dB", "matrix": [[re, im], ...]} (row-major,
    A-major), {"pmf": [[...]]}, or {"amplitudes": [[re, im], ...], "dA", "dB"}.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SchemaError("$: expected a JSON object")
    if "pmf" in raw:
        table = raw["pmf"]
        if not isinstance(table, list) or not all(
                isinstance(r, list) and all(map(_is_number, r)) for r in table):
            raise SchemaError("$.pmf: expected a list of rows of numbers")
        try:
            return cc_state(Pmf(np.asarray(table, dtype=float)))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"$.pmf: {exc}") from exc
    if "amplitudes" in raw:
        d_a, d_b = _dims(raw)
        amps = _complex_array(raw["amplitudes"], "$.amplitudes")
        if amps.size != d_a * d_b:
            raise SchemaError(
                f"$.amplitudes: length {amps.size} does not equal dA*dB = {d_a * d_b}"
            )
        return pure_bipartite(amps, d_a, d_b)
    if "matrix" in raw:
        d_a, d_b = _dims(raw)
        flat = _complex_array(raw["matrix"], "$.matrix")
        dim = d_a * d_b
        if flat.size != dim * dim:
            raise SchemaError(
                f"$.matrix: length {flat.size} does not equal (dA*dB)^2 = {dim * dim}"
            )
        return BipartiteState(flat.reshape(dim, dim), d_a, d_b)
    raise SchemaError("$: expected one of 'matrix', 'pmf', or 'amplitudes'")


def _fmt(x: float) -> str:
    """Deterministic 12-significant-digit formatting; inf/nan as bare literals."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _emit(payload: dict, args) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        for key, value in payload.items():
            if isinstance(value, float):
                value = _fmt(value)
            print(f"{key}: {value}")


def cmd_compute(args) -> int:
    solution = prmi(args.alpha, parse_input(args.state), args.which)
    payload = {"which": args.which, "alpha": args.alpha, "value": _fmt(solution.as_float()),
               "certified": 1}
    if isinstance(solution, PrmiSolution):
        # gap: a certificate above 1/2, a stationarity figure below
        payload.update(certified=int(solution.certified), residual=_fmt(solution.residual),
                       iterations=solution.iterations, gap=solution.gap)
    _emit(payload, args)
    return EXIT_NOT_CONVERGED if args.strict and not payload["certified"] else EXIT_OK


def sweep_rows(state: BipartiteState, alphas):
    """(alpha, uu, ud, dd, certified) per order, each variant solved as one
    stack over the grid, of which `compute` is the one-order case; dd is nan and
    uncertified at an order with no supported route."""
    grid = np.asarray(alphas, dtype=float)
    dd = _solve_dd(grid, state, [state.marginal_a] * grid.size)
    return [(alpha, uu, ud, *((math.nan, 0) if isinstance(s, UnsupportedRegimeError)
                              else (s.value, int(s.certified))))
            for alpha, uu, ud, s in zip(alphas, _up_up(grid, state).tolist(),
                                        _up_down(grid, state).tolist(), dd)]


def emit_sweep(state: BipartiteState, alphas, out: str) -> list:
    """Write the rows of `sweep_rows` as CSV, in grid order, and return them."""
    rows = sweep_rows(state, alphas)
    with open(out, "w") as fh:
        fh.write("alpha,rmi0,rmi1,rmi2,certified\n")
        fh.writelines(f"{_fmt(a)},{_fmt(r0)},{_fmt(r1)},{_fmt(r2)},{c}\n"
                      for a, r0, r1, r2, c in rows)
    return rows


def cmd_sweep(args) -> int:
    state = parse_input(args.state)
    if not 0 <= args.alpha_min <= args.alpha_max <= 2.5:  # False for a nan bound
        raise InvalidInputError("sweep grid must lie inside [0, 2.5]")
    if args.steps < 1:
        raise InvalidInputError(f"--steps must be at least 1, got {args.steps}")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    rows = emit_sweep(state, alphas, args.out)
    if args.json:
        print(json.dumps({"out": args.out, "rows": [
            {"alpha": a, "rmi0": _fmt(r0), "rmi1": _fmt(r1), "rmi2": _fmt(r2), "certified": c}
            for a, r0, r1, r2, c in rows]}, sort_keys=True, allow_nan=False))
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    if args.strict and any(c == 0 for *_, c in rows):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_exponent(args) -> int:
    state = parse_input(args.state)
    report = exponents.direct_exponent(state, args.rate)
    payload = {
        "rate": _fmt(report.rate),
        "exponent": _fmt(report.exponent),
        "s_star": _fmt(report.s_star) if report.s_star is not None else None,
        "mutual_information": _fmt(report.mutual_information),
        "r_half": _fmt(report.r_half),
        "guaranteed_exact": int(report.guaranteed_exact),
        "certified": int(report.certified),
    }
    points = (exponents.rate_curve(state, np.linspace(0.5 + 1e-3, 1.0 - 1e-3, 25))
              if args.curve else [])
    if args.curve:
        payload["curve"] = [
            {"s": _fmt(p.s), "rate": _fmt(p.rate), "exponent": _fmt(p.exponent),
             "certified": int(p.certified)}
            for p in points
        ]
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        for key in ("rate", "exponent", "s_star", "mutual_information", "r_half",
                    "guaranteed_exact", "certified"):
            print(f"{key}: {payload[key]}")
        if args.curve:
            print("s,rate,exponent,certified")
            for p in payload["curve"]:
                print(f"{p['s']},{p['rate']},{p['exponent']},{p['certified']}")
    if args.strict and not (report.certified and all(p.certified for p in points)):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_simulate(args) -> int:
    state = parse_input(args.state)
    result = hypotest.achievability_sweep(state, args.rate, args.n_max)
    if args.json:
        # a type-I bound beyond float range is null: JSON has no Infinity
        rows = [{**row, "type_one_bound": row["type_one_bound"]
                 if math.isfinite(row["type_one_bound"]) else None} for row in result["per_n"]]
        print(json.dumps({**result, "per_n": rows}, sort_keys=True, allow_nan=False))
    else:
        for key in ("rate", "asymptotic_exponent", "r_half"):
            print(f"{key}: {_fmt(result[key])}")
        print(f"guaranteed_exact: {int(result['guaranteed_exact'])}")
        columns = ("s", "exponent", "type_one", "type_one_bound", "type_two_bound")
        print(",".join(("n",) + columns))
        for row in result["per_n"]:
            print(",".join([str(row["n"])] + [_fmt(row[key]) for key in columns]))
    return EXIT_OK


def cmd_oracle(args) -> int:
    state = parse_input(args.state)
    value, _, _ = oracle.brute_force_dd(args.alpha, state, resolution=args.resolution)
    _emit({"alpha": args.alpha, "value": _fmt(value), "resolution": args.resolution}, args)
    return EXIT_OK


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> argparse.ArgumentParser:
    """Add the flags accepted before or after the subcommand to parser, and
    return it. The subcommand copy has SUPPRESS defaults, so that it overrides
    the top-level value only when the flag is given after the subcommand."""
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--json", action="store_true", default=default(False))
    parser.add_argument("--strict", action="store_true", default=default(False),
                        help="exit 5 when a solver result is not certified")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petzmi",
        description="Renyi mutual informations of bipartite states and direct error exponents",
    )
    _global_flags(parser, suppress=False)
    common = _global_flags(argparse.ArgumentParser(add_help=False), suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("compute", help="one mutual-information value")
    p.add_argument("--state", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--which", choices=("uu", "ud", "dd"), default="dd")
    p.set_defaults(func=cmd_compute)

    p = add("sweep", help="alpha sweep of all three variants, as CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = add("exponent", help="direct error exponent at a type-II rate")
    p.add_argument("--state", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--curve", action="store_true")
    p.set_defaults(func=cmd_exponent)

    p = add("simulate", help="finite-blocklength universal tests")
    p.add_argument("--state", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = add("oracle", help="exhaustive product-state search")
    p.add_argument("--state", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--resolution", type=int, default=24)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads the value of an unknown flag given before the subcommand as
    # the subcommand: report such flags as unrecognized, as it does after it
    flags = _global_flags(argparse.ArgumentParser(add_help=False), suppress=True)
    head = itertools.takewhile(lambda a: a.startswith("-"), argv)
    unknown = flags.parse_known_args([a for a in head if a not in ("-h", "--help")])[1]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except SchemaError as exc:
        print(f"error: state file schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InvalidInputError, PetzmiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate the two reference alpha sweeps (pure and perfectly correlated
states with p = 0.2) as CSV files, one row per grid point."""

import argparse
import math

import numpy as np

from petzmi.cli import emit_sweep
from petzmi.states import copy_cc_state, pure_bipartite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.2)
    parser.add_argument("--steps", type=int, default=26)
    parser.add_argument("--out-prefix", default="data_prmi")
    args = parser.parse_args()

    alphas = np.linspace(0.0, 2.5, args.steps)
    states = {
        "pure": pure_bipartite([math.sqrt(args.p), 0, 0, math.sqrt(1 - args.p)], 2, 2),
        "cc": copy_cc_state([args.p, 1 - args.p]),
    }
    for label, state in states.items():
        out = f"{args.out_prefix}_{label}.csv"
        emit_sweep(state, alphas, out)
        print(f"wrote {out}")


if __name__ == "__main__":
    main()

"""Self-check of the benchmark harness; run from the root of a checkout.

    python3 perfbench/selfcheck.py [smoke] [determinism] [baseline] [determinism-full]

smoke             runs run.py on every workload at minimum input size, untraced
                  and traced, and validates its last line against BENCHMARK.json.
determinism       runs two traced workers per workload with the same seed, at
                  minimum size, and requires identical work counters.
baseline          recounts the work figures of the ROADMAP baseline with the
                  tracer and compares them with the figures given there.
determinism-full  the determinism check at full input size (about 4 minutes).

With no argument the first three run. The exit code is 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SEED = 1


def validate(line: str, spec_metrics: list) -> list[str]:
    """Schema problems of one result line; empty when it is valid."""
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1):
        problems.append(f"attempted {attempted!r}")
    if not (isinstance(failed, int) and 0 <= failed <= (attempted or 0)):
        problems.append(f"failed {failed!r}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec_metrics}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
        if entry.get("unit") != want.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
    return problems


def smoke() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace), "--small"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            else:
                problems = validate(lines[-1], spec["per_layer" if trace else "end_to_end"])
            ok &= not problems
            print(f"smoke {workload:12s} trace={trace}  {'ok' if not problems else problems}")
    return ok


def _traced_counters(workload: str, small: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(SMOKE_SEED), "--mode", "trace"] + (["--small"] if small else []),
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    # work counters only: no times, no ratios of times
    return {k: v for k, v in layers.items()
            if not k.endswith("_s") and not k.startswith(("trace.", "cli."))}


def determinism(small: bool = True) -> bool:
    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = _traced_counters(workload, small), _traced_counters(workload, small)
        differ = sorted(k for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k))
        ok &= not differ
        print(f"determinism {workload:12s} {len(first)} counters  "
              f"{'identical' if not differ else 'DIFFER: ' + str(differ)}")
    return ok


def baseline() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    from tracer import Tracer

    # called through their modules, so that the tracer's patches apply
    exponents, hypotest, prmi, states = (importlib.import_module(f"petzmi.{m}") for m in
                                         ("exponents", "hypotest", "prmi", "states"))

    def counted(fn) -> dict:
        tracer = Tracer()
        tracer.install()
        try:
            fn()
        finally:
            tracer.uninstall()
        return tracer.aggregate()["counts"]

    ok = True
    rho = states.random_bipartite(2, 2, 42)
    rate = 0.3 * prmi.prmi_down_down(1.0, rho).value
    c = counted(lambda: exponents.direct_exponent(rho, rate))
    solves = c["exponents.dd_solves"]
    ok &= solves == 69
    print(f"baseline prmi_down_down calls per direct_exponent: {solves} (ROADMAP: 69)")

    rho16 = states.random_bipartite(4, 4, 42)
    _ = (rho16.marginal_a, rho16.marginal_b)  # validated outside the count
    c = counted(lambda: prmi.prmi_down_down(1.5, rho16))
    d16 = c.get("linalg.eigh.matrices.d16", 0)
    ok &= d16 == 8
    print(f"baseline 16x16 eigh at alpha=1.5 (8 restarts): {d16} (ROADMAP: one per restart, 8)")

    roadmap = {2: 5221, 4: 170, 8: 40, 16: 100, 64: 60, 256: 60}
    for touched in (False, True):
        cc = states.copy_cc_state([0.2, 0.8])
        if touched:
            _ = (cc.marginal_a, cc.marginal_b)
        c = counted(lambda: hypotest.achievability_sweep(cc, 0.3, 4))
        sizes = {int(k.rsplit(".d", 1)[1]): v for k, v in c.items()
                 if k.startswith("linalg.eigh.matrices.d")}
        print(f"baseline achievability_sweep(copy_cc_state([0.2, 0.8]), 0.3, 4), marginals "
              f"{'validated before' if touched else 'validated inside'} the count: "
              f"{c['linalg.eigh.matrices']} eigendecompositions in {c['linalg.eigh.calls']} "
              f"calls, by size {dict(sorted(sizes.items()))}")
    print(f"  ROADMAP: 5651, by size {roadmap}")
    ok &= sizes == roadmap
    return ok


def main() -> int:
    checks = {"smoke": smoke, "determinism": determinism, "baseline": baseline,
              "determinism-full": lambda: determinism(small=False)}
    chosen = sys.argv[1:] or ["smoke", "determinism", "baseline"]
    ok = True
    for name in chosen:
        ok &= checks[name]()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

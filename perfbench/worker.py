"""One workload process, started by run.py.

    python3 perfbench/worker.py --workload W --seed N --mode setup|measure|trace
        [--seconds S] [--small]

Every mode builds the inputs and completes one warm-up call, then prints
READY so that the parent can time the set-up. `setup` stops there.
`measure` runs whole passes over the workload's calls for about --seconds,
then checks every output. `trace` runs one plain pass and then the same pass
under the tracer, probes the CLI layer and runs the rows of known defects.
The last line on stdout is a JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

P90_MIN_CALLS = 100  # at least ten samples beyond the 90th percentile
# The time each drift reference takes on a host at full speed; calls_per_s_adj
# is calls_per_s rescaled to a host on which the reference takes this long.
REF_NOMINAL_S = {"kernel": 2.0e-3, "process": 0.15}
REF_SHARE = 0.02  # of each call's time spent on its drift reference, at least one run
OUT_DIR = ROOT / ".bench_out"


def import_petzmi() -> None:
    import petzmi

    origin = Path(petzmi.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"petzmi imported from {origin}, not from {ROOT / 'src'}")


# --------------------------------------------------------------------------
# machine record

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    from importlib import metadata

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def ref_kernel_ms(repeats: int = 31) -> float:
    """Median time of a fixed numpy kernel: eigh of one 64x64 complex
    Hermitian matrix and a 128x128 complex matmul. Timed before and after each
    run, so that runs hit by host drift can be told apart."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = g @ g.conj().T
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def drift_reference(kind: str):
    """A task of fixed work whose time tracks the host's speed for the
    workload's kind of call; `measure` times it after every call.

    The host's speed swings up to twofold, in phases of seconds to minutes.
    Two eigendecompositions of one 64x64 complex Hermitian matrix track it
    for in-process calls (correlation 0.94 with the solver's pass times, 0.95
    with blocklength's). A fresh `python -c "import numpy"` tracks it for the
    cli workload's child processes, which the in-process kernel, timed in a
    parent that has just woken up, does not (correlation -0.2 to -0.1).

    Returns ref(call_s): the median time of as many runs of the task as take
    about REF_SHARE of call_s, so that a long call's host speed is sampled
    more often than a short one's."""
    if kind == "process":
        cmd, env = [sys.executable, "-c", "import numpy"], workloads.child_env()

        def once() -> float:
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True)
            return time.perf_counter() - t0
    else:
        g = np.random.default_rng(1).standard_normal((64, 128)).view(complex)
        h = g @ g.conj().T

        def once() -> float:
            t0 = time.perf_counter()
            np.linalg.eigh(h)
            np.linalg.eigh(h)
            return time.perf_counter() - t0

    def ref(call_s: float) -> float:
        reps = max(1, round(REF_SHARE * call_s / REF_NOMINAL_S[kind]))
        return statistics.median(once() for _ in range(reps))
    return ref


# --------------------------------------------------------------------------
# running calls

def run_pass(calls, latencies, outputs, tracer=None, span="bench.call",
             ref=None, ref_times=None) -> None:
    for call in calls:
        t0 = time.perf_counter()
        try:
            out = call.run() if tracer is None else tracer.call(call.run, span)
        except Exception:  # recorded as a failed call, reported by name
            out = _Raised(traceback.format_exc())
        latencies.append(time.perf_counter() - t0)
        outputs.append((call, out))
        if ref is not None:
            ref_times.append(ref(latencies[-1]))  # outside the call's measured time


class _Raised:
    def __init__(self, text: str) -> None:
        self.text = text


def check_outputs(outputs) -> dict:
    """Check every output. A call that raised, broke an invariant or missed
    its reference value counts as failed; a check that itself raises anything
    else is a fault of the benchmark and ends the run."""
    failures: dict[str, str] = {}
    failed = 0
    max_err = 0.0
    for call, out in outputs:
        if isinstance(out, _Raised):
            message = out.text.strip().splitlines()[-1]
        else:
            try:
                max_err = max(max_err, call.check(out))
                continue
            except workloads.CheckFailed as exc:
                message = str(exc)
        failed += 1
        failures.setdefault(call.name, message)
    return {"attempted": len(outputs), "failed": failed, "max_err": max_err,
            "failing_inputs": failures}


def timing_metrics(passes, ref_times, ref_kind: str) -> dict:
    """Timing figures over every call of whole passes. calls_per_s_adj
    divides each call's time by the drift reference's time beside it, and
    so the host's speed out of the whole: it is calls_per_s times the
    reference's mean time, weighted by call time, over the nominal time. In a
    150 s solver process whose passes varied 1.60-fold, the passes so
    adjusted varied 1.21-fold."""
    # Each workload's calls come in groups of very different cost (blocklength
    # n <= 2 against n >= 3, solver rows below and above alpha = 1), and the
    # plain sample median sits in the gap between two groups, where it jumps
    # between them with one noisy call. The Harrell-Davis estimate averages
    # the order statistics on both sides of the middle instead.
    from scipy.stats.mstats import hdquantiles

    latencies = [t for times in passes for t in times]
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3 if n >= P90_MIN_CALLS else None
    ref_weighted = sum(latencies) / sum(t / r for t, r in zip(latencies, ref_times))
    return {
        "calls_per_s": n / sum(latencies),
        "calls_per_s_adj": n / sum(latencies) * ref_weighted / REF_NOMINAL_S[ref_kind],
        "drift_ref_ms.weighted_mean": ref_weighted * 1e3,
        "call_ms.p50": float(hdquantiles(latencies, prob=[0.5])[0]) * 1e3,
        "call_ms.p50_sample_median": statistics.median(latencies) * 1e3,
        "call_ms.p90": p90,
        "samples": n,
        "pass_s": [sum(times) for times in passes],
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# CLI layer probes

def _wall(cmd, env) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stdout


def cli_probes(workdir: Path, seed: int) -> dict:
    """Interpreter start, numpy import, petzmi.cli import, and one `compute`
    command, each in a fresh process."""
    env = workloads.child_env()
    py = sys.executable
    interp = statistics.median(_wall([py, "-c", "pass"], env)[0] for _ in range(3))
    numpy_import = statistics.median(float(_wall([py, "-c", (
        "import time; t = time.perf_counter(); import numpy; "
        "print(time.perf_counter() - t)")], env)[1]) for _ in range(3))
    rng = np.random.default_rng(seed)
    state = workloads.write_state_file(workdir / "probe.json", workloads.ginibre(rng, 4), 2, 2)
    out = workdir / "probe-timing.json"
    _wall([py, str(ROOT / "perfbench" / "clichild.py"), "--out", str(out), "--",
           "--json", "compute", "--state", state, "--alpha", "0.8", "--which", "dd"], env)
    timing = json.loads(out.read_text())
    return {"cli.interpreter_s": interp, "cli.import_numpy_s": numpy_import,
            "cli.import_s": timing["import_s"], "cli.command_s": timing["command_s"]}


# --------------------------------------------------------------------------
# known defects

def known_defects(seed: int) -> dict:
    """Run and check the alpha rows that the timed solver workload leaves out
    because the package failed them when the benchmark was added. A fix
    lowers `failed`."""
    outputs: list = []
    run_pass(workloads.known_defect_calls(seed), [], outputs)
    return check_outputs(outputs)


# --------------------------------------------------------------------------
# traced-run metrics

def nest_children(agg: dict, children) -> dict:
    """Fold the traced child processes of the cli workload into the parent's
    aggregate: the children's root spans ran inside the parent's cli.process
    spans, so their covered time moves out of cli.process self time."""
    counts, self_s = dict(agg["counts"]), dict(agg["self_s"])
    for child in children:
        for k, v in child["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in child["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        self_s["cli.process"] -= child["covered_s"]
    return {"counts": counts, "self_s": self_s, "covered_s": agg["covered_s"]}


def layer_metrics(agg: dict, traced_wall: float, plain_wall: float, latencies) -> dict:
    """Per-layer figures of one traced pass. `latencies` are the pass's
    top-level call times as run_pass measured them, outside the tracer."""
    c, t = agg["counts"], agg["self_s"]
    out = {}
    for key in sorted(c):
        if key.startswith("linalg.eigh.matrices"):
            out[key] = c[key]
    out.update({
        "linalg.eigh.calls": c.get("linalg.eigh.calls", 0),
        "linalg.eigh.matrices": c.get("linalg.eigh.matrices", 0),
        "linalg.eigh.self_s": t.get("linalg.eigh", 0.0),
        "linalg.power_on_support.calls": c.get("linalg.power_on_support.calls", 0),
        "linalg.power_on_support.self_s": t.get("linalg.power_on_support", 0.0),
        "linalg.hermitian.constructions": c.get("linalg.hermitian.constructions", 0),
        "states.density.constructions": c.get("states.density.calls", 0),
        "states.density.self_s": t.get("states.density", 0.0),
        "divergences.petz_divergence.calls": c.get("divergences.petz_divergence.calls", 0),
        "divergences.petz_divergence.self_s": t.get("divergences.petz_divergence", 0.0),
        "prmi.dd.calls": c.get("prmi.dd.calls", 0),
        "prmi.dd.self_s": t.get("prmi.dd", 0.0),
        "prmi.dd.iterations": c.get("prmi.dd.iterations", 0),
        "prmi.dd.iterations_per_call": _ratio(c.get("prmi.dd.iterations", 0),
                                              c.get("prmi.dd.solutions", 0)),
        "prmi.dd.certified_frac": _ratio(c.get("prmi.dd.certified", 0),
                                         c.get("prmi.dd.solutions", 0)),
        "prmi.half_steps": c.get("prmi.half_steps", 0),
        "prmi.ud.calls": c.get("prmi.ud.calls", 0),
        "prmi.ud.self_s": t.get("prmi.ud", 0.0),
        "prmi.uu.calls": c.get("prmi.uu.calls", 0),
        "prmi.uu.self_s": t.get("prmi.uu", 0.0),
        "classical.rmi_down_down.calls": c.get("classical.rmi_down_down.calls", 0),
        "classical.rmi_down_down.self_s": t.get("classical.rmi_down_down", 0.0),
        "oracle.brute_force_dd.calls": c.get("oracle.brute_force_dd.calls", 0),
        "oracle.brute_force_dd.self_s": t.get("oracle.brute_force_dd", 0.0),
        "exponents.direct_exponent.calls": c.get("exponents.direct_exponent.calls", 0),
        "exponents.direct_exponent.self_s": t.get("exponents.direct_exponent", 0.0),
        "exponents.solves_per_exponent": _ratio(c.get("exponents.dd_solves", 0),
                                                c.get("exponents.direct_exponent.calls", 0)),
        "exponents.alpha_derivative.calls": c.get("exponents.alpha_derivative.calls", 0),
        "exponents.alpha_derivative.self_s": t.get("exponents.alpha_derivative", 0.0),
        "exponents.rate_curve.calls": c.get("exponents.rate_curve.calls", 0),
        "exponents.rate_curve.self_s": t.get("exponents.rate_curve", 0.0),
        "hypotest.universal_state.calls": c.get("hypotest.universal_state.calls", 0),
        "hypotest.universal_state.self_s": t.get("hypotest.universal_state", 0.0),
        "hypotest.iid_block.calls": c.get("hypotest.iid_block.calls", 0),
        "hypotest.iid_block.self_s": t.get("hypotest.iid_block", 0.0),
        "hypotest.np_test.calls": c.get("hypotest.np_test.calls", 0),
        "hypotest.np_test.self_s": t.get("hypotest.np_test", 0.0),
        "hypotest.projector_bytes": c.get("hypotest.projector_bytes", 0),
    })
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, secs in t.items():
        by_layer[name.split(".")[0]] += secs
    for layer, secs in by_layer.items():
        out[f"layer.{layer}.self_s"] = secs
    # The self times must account for the measured call time: a lost span
    # leaves a gap, a span counted twice an excess. Each call's own span sits
    # inside its measurement, which adds only the wrapper's bookkeeping.
    self_total = sum(by_layer.values())
    calls_s = sum(latencies)
    if not 0.0 <= calls_s - self_total <= 1e-3 * calls_s + 2e-5 * len(latencies):
        raise RuntimeError(f"layer self times {self_total!r} s do not account for the "
                           f"measured call time {calls_s!r} s")
    untraced = traced_wall - self_total
    out.update({
        "trace.wall_s": traced_wall,
        "trace.plain_wall_s": plain_wall,
        "trace.untraced_s": untraced,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.coverage_frac": agg["covered_s"] / traced_wall,
    })
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    import_petzmi()
    workdir = OUT_DIR / f"work-{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    runner = workloads.CliRunner(workdir)
    calls = workloads.build(args.workload, args.seed, args.small, runner)
    calls[0].run()  # warm-up: lazy imports, first use of every code path it touches
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    record = machine_record()
    outputs: list = []
    report = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "calls_per_pass": len(calls), "machine": record}
    calib = [ref_kernel_ms()]

    if args.mode == "measure":
        ref_kind = "process" if args.workload == "cli" else "kernel"
        ref = drift_reference(ref_kind)
        ref(0.0)  # warm-up
        ref_times: list[float] = []
        elapsed = 0.0
        passes: list[list[float]] = []
        while True:
            t0 = time.perf_counter()
            passes.append([])
            run_pass(calls, passes[-1], outputs, ref=ref, ref_times=ref_times)
            elapsed += time.perf_counter() - t0
            calib.append(ref_kernel_ms())  # between passes, outside the measured time
            # stop where the end of the next pass would overshoot --seconds by
            # more than half a pass, so that a run measures --seconds on average
            if elapsed + 0.5 * elapsed / len(passes) > args.seconds:
                break
        report["peak_rss_mb"] = peak_rss_mb(args.workload)  # before timing_metrics imports
        report.update(timing_metrics(passes, ref_times, ref_kind))
        report["passes"] = len(passes)
        report["measured_s"] = elapsed
    else:
        t0 = time.perf_counter()
        run_pass(calls, [], outputs)
        plain_wall = time.perf_counter() - t0
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer = Tracer()
        tracer.install()
        runner.spans_prefix = str(trace_path).removesuffix(".json.gz")
        traced_latencies: list[float] = []
        try:
            # a cli call's span covers its whole child process
            run_pass(calls, traced_latencies, outputs, tracer,
                     "cli.process" if args.workload == "cli" else "bench.call")
        finally:
            runner.spans_prefix = None
            tracer.uninstall()
        calib.append(ref_kernel_ms())
        agg = tracer.aggregate()
        if runner.dumps:
            agg = nest_children(agg, [json.loads(Path(p).read_text())["trace"]
                                      for p in runner.dumps])
        layers = layer_metrics(agg, tracer.t_end - tracer.t_begin, plain_wall,
                               traced_latencies)
        layers.update(cli_probes(workdir, args.seed))
        defects = known_defects(args.seed)
        layers["known_defects.failed_rows"] = defects["failed"]
        report["layers"] = layers
        report["known_defects"] = defects
        tracer.dump(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))

    report["calib.ref_kernel_ms"] = calib
    report.update(check_outputs(outputs))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

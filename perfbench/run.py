"""Benchmark of the abprime library: three seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload identity-ladder --seed 1 --seconds 30 --trace 0

``--workload`` is ``pipeline-c2``, ``identity-ladder``, ``census-exact`` or
``all`` (the three in turn, in one process).  With ``--trace 0`` each
workload prints its end-to-end metrics; with ``--trace 1`` it runs one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics that
BENCHMARK.json lists for the mode.  Everything else a run measures, with
the inputs, the environment and (traced) the spans, is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.

The library is imported from ``src/`` of the checkout and nowhere else.
``abprime bench`` is not reused: every N it samples has a factor at most
log2 N, so it never reaches the identity check.
"""
from __future__ import annotations

import os

# one process, one thread: set before anything imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_IMPORTS = 5
SETUP_SNIPPET = ("import time, calibrate; r0 = calibrate.reference_seconds(); "
                 "t0 = time.perf_counter(); import abprime; t = time.perf_counter() - t0; "
                 "print(t, calibrate.speed(r0, calibrate.reference_seconds()))")

UNITS = {
    "calls_per_s": "1/s", "latency_p50_s": "s", "ab_s_per_bit": "s/bit",
    "mr_s_per_bit": "s/bit", "fail_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MiB",
    "calls_per_s_wall": "1/s", "latency_p50_s_wall": "s", "setup_s_wall": "s",
}


def _import_library() -> None:
    """Import abprime from this checkout's src/, or exit non-zero."""
    if not (SRC / "abprime" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'abprime'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import abprime
    if Path(abprime.__file__).resolve().parent != SRC / "abprime":
        sys.exit(f"error: abprime was imported from {abprime.__file__}, not {SRC}")


def setup_seconds() -> tuple[float, float]:
    """Median time of `import abprime` in fresh interpreters, one at a time:
    at the reference CPU speed, and on the wall clock."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT / "perfbench")]))
    scaled, wall = [], []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        t, speed = map(float, done.stdout.split())
        scaled.append(t * speed)
        wall.append(t)
    return statistics.median(scaled), statistics.median(wall)


def environment() -> dict:
    import numpy
    import sympy
    try:
        import gmpy2
        gmpy = gmpy2.version()
    except ImportError:
        gmpy = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "gmpy2": gmpy,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, int, list[str], dict]:
    import workloads as wls

    setup, setup_wall = setup_seconds()
    calls = wls.WORKLOADS[name](seed)
    loop = wls.closed_loop(calls, seconds)
    rss = peak_rss_mb()
    attempted, failures = wls.check_outputs(name, calls, loop)
    metrics = wls.end_to_end(calls, loop)
    metrics.update(setup_s=setup, setup_s_wall=setup_wall, peak_rss_mb=rss,
                   fail_frac=len(failures) / attempted)
    detail = {"passes": loop.passes, "calls": sum(len(s.times) for s in loop.calls),
              "elapsed_s": loop.elapsed, "inputs": wls.input_records(calls, loop)}
    return metrics, attempted, failures, detail


def run_traced(name: str, seed: int) -> tuple[dict, int, list[str], dict]:
    import tracing
    import workloads as wls

    calls = wls.WORKLOADS[name](seed)
    plain = wls.new_result(calls)
    wls.one_pass(calls, plain)
    untraced_wall = sum(s.times[0] for s in plain.calls + plain.baselines if s.times)
    tr, problems, traced_wall = tracing.traced_pass(calls)
    attempted, failures = wls.check_outputs(name, calls, plain)
    failures += [f"FAIL {name}: {p}" for p in problems]
    attempted += len(calls)
    metrics = tracing.layer_metrics(tr, calls)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics.update(tracing.kernel_probes(seed))
    metrics.update(tracing.count_overhead(seed))
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "spans": tr.spans}
    return metrics, attempted, failures, detail


def _number(value: float) -> float:
    return value if math.isfinite(value) else None


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    env = environment()
    if trace:
        metrics, attempted, failures, detail = run_traced(name, seed)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failures, detail = run_untraced(name, seed, seconds)
        wanted = spec["end_to_end"]
    for line in failures:
        print(line)
    print(f"# workload {name} seed {seed} trace {int(trace)}: "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if not trace:
        print(f"# {detail['calls']} calls in {detail['passes']} pass(es), "
              f"{detail['elapsed_s']:.2f} s; latency_p50_s is the median of "
              f"{detail['calls']} calls")
        for key in UNITS:
            if key in metrics:
                print(f"{key:<16} {metrics[key]:.6g} {UNITS[key]}")
    else:
        for key in sorted(metrics):
            print(f"{key:<48} {metrics[key]:.6g}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": int(trace), "environment": env,
              "attempted": attempted, "failed": len(failures), "failures": failures,
              "metrics": {k: _number(v) for k, v in metrics.items()}, **detail}
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-c2", "identity-ladder", "census-exact", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    _import_library()
    names = (["pipeline-c2", "identity-ladder", "census-exact"]
             if args.workload == "all" else [args.workload])
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

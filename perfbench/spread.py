"""Run-to-run spread of the end-to-end metrics, to check the benchmark is steady.

    python3 perfbench/spread.py --workload census-exact --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints per metric the
median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound BENCHMARK.json fixes for it.  The bound holds when the spread is
below it; a steady benchmark keeps it below a third of the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<16} median {med:.6g} {metric['unit']}  "
              f"spread {(q3 - q1) / med:.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

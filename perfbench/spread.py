"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload large-n --seeds 1 10

Runs run.py once per seed, one after another, with tracing off and the
run_seconds of BENCHMARK.json.  Prints for each end-to-end metric its median,
its quartiles and the quartile distance as a share of the median, next to the
bound BENCHMARK.json fixes for it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median), quartiles as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(next(iter(values.values()))) < 2:
        return 0
    for metric in bench["end_to_end"]:
        q1, median, q3, share = quartile_spread(values[metric["name"]])
        print(f"{metric['name']}: median {median:.4f} quartiles {q1:.4f}..{q3:.4f} "
              f"spread {share:.4f} bound {metric['bound']} (a third: {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

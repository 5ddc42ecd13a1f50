"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --workload NAME --runs 10 --seconds S

Runs the benchmark once per seed (1..runs), one run at a time, and prints
for each metric the median, the quartile spread as a share of the median,
and the metric's bound from BENCHMARK.json.  A metric is steady when its
spread stays below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    took = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["log"] = done.stderr
    return result, took


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results, durations = [], []
    for seed in range(1, args.runs + 1):
        result, took = run_once(args.workload, seed, seconds, 0)
        results.append(result)
        durations.append(took)
        print(f"seed {seed}: {took:.1f} s, {result['attempted']} attempted, "
              f"{result['failed']} failed", file=sys.stderr)

    out = HERE / "out" / f"spread_{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "durations": durations, "runs": results}, indent=1))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs of {seconds} s, longest {max(durations):.1f} s, "
          f"failed shares {sorted(shares)}")
    print(f"{'metric':<18}{'median':>14}{'spread':>9}{'bound':>7}  steady")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        spread = stats.quartile_spread(values)
        bound = bounds.get(name, float("nan"))
        print(f"{name:<18}{stats.median(values):>14.6g}{spread:>9.4f}{bound:>7.2f}  "
              f"{'yes' if spread < bound / 3 else 'NO'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

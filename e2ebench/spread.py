"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 e2ebench/spread.py --seeds 10                      # all workloads
    python3 e2ebench/spread.py --workload serve-zipf --seeds 5
    python3 e2ebench/spread.py --seeds 10 --out e2ebench/reference.json
    python3 e2ebench/spread.py --seeds 3 --trace 1 --out e2ebench/reference_traced.json

Runs are sequential, one fresh process each, seeds ``first-seed ..
first-seed + seeds - 1``. For every metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``; ``--out`` also writes them, with every value, as
JSON. The committed ``reference*.json`` files were made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list[float]) -> dict[str, object]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def run_seed(workload: str, seed: int, seconds: int, trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {child.returncode}:\n{child.stderr}"
        )
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict[str, dict] = {}
    for workload in names if args.workload == "all" else [args.workload]:
        results = [
            run_seed(workload, seed, args.seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        report[workload] = {
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "correct": all(r["correct"] for r in results),
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "metrics": metrics,
        }
        print(f"== {workload}: correct={report[workload]['correct']} "
              f"failed/attempted={sorted(set(report[workload]['failed_share']))}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
            print(f"  {name:40s} median {s['median']:14.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Train -> serve benchmark: one workload per fresh process.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload train-amazon --seed 0 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. ``--workload all`` runs every workload in its own
child process and prints one such line per workload, each tagged with
its ``workload`` name. Exit status: 0 when the outputs passed every
check, 1 when a check failed, 2 when the program's sources are missing,
3 when the result does not match ``BENCHMARK.json`` (a metric missing or
under another unit, or no operation counts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("train-amazon", "serve-zipf", "serve-upsert")

#: Fig. 2's serial setting: one BLAS thread. Set before numpy loads.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def warm_bytecode() -> None:
    """Compile the program and the benchmark to bytecode before timing,
    so the first timed import does not pay for compilation."""
    import compileall

    for directory in (SOURCES / "repro", BENCH_DIR):
        compileall.compile_dir(str(directory), quiet=1)


def check_result(result: dict, spec: dict, trace: bool) -> list[str]:
    """Ways ``result`` departs from the metrics ``spec`` names."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            problems.append(f"{key} missing or not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    for name in sorted(set(wanted) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(wanted)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(wanted) & set(metrics)):
        entry = metrics[name]
        if entry.get("unit") != wanted[name]:
            problems.append(f"metric {name} in {entry.get('unit')!r}, expected {wanted[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
    return problems


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result line."""
    os.environ.update(BLAS_THREADS)
    warm_bytecode()
    spec = json.loads(SPEC.read_text())
    sys.path[:0] = [str(SOURCES), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import workloads  # noqa: E402 - imports numpy and the program

    tracer = None
    if args.trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    import_s = time.perf_counter() - t0
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, import_s
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    mismatch = check_result(result, spec, bool(args.trace))
    if mismatch:
        for problem in mismatch:
            print(f"result does not match BENCHMARK.json: {problem}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, one result line each."""
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        status = max(status, child.returncode)
        if child.returncode in (0, 1) and lines:
            print(json.dumps({"workload": name, **json.loads(lines[-1])}))
        else:
            print(f"{name}: exited {child.returncode} without a result", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro").is_dir() or not SPEC.is_file():
        print(f"program sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

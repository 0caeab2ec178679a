"""Run one benchmark workload; the last line of standard output is its JSON result.

    python3 bench/run.py --workload train-d10 --seed 0 --seconds 10 --trace 0

Run it from anywhere inside a source checkout: the program is imported from
the checkout's src/. BLAS and OpenMP are pinned to one thread before NumPy
loads, and all times are CPU seconds of this one process. With --trace 1 the
run also repeats its passes with spans around varsparse's public functions,
prints the per-layer metrics instead, and writes the spans to
.bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; pick one of {names}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "varsparse" / "__init__.py").is_file():
        print(f"no varsparse sources under {src}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads  # loads NumPy, so only after the thread pinning above

    try:
        metrics, outcome, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out"
        )
    except workloads.BenchmarkError as err:
        print(err, file=sys.stderr)
        return 3
    if tracer:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(tracer.to_dicts()))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        print(f"measured {sorted(metrics)} but BENCHMARK.json declares others", file=sys.stderr)
        return 3
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark round in a fresh process; prints its result as one JSON
line.

    python3 perfbench/worker.py round --workload heap --seed 1 [--trace] [--size tiny]
    python3 perfbench/worker.py setup --workload relate --seed 1
"""

from __future__ import annotations

import argparse
import json

import workloads


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("round", "setup"))
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    if args.mode == "setup":
        result = workloads.run_setup(args.workload, args.seed, args.size)
    else:
        result = workloads.run_round(args.workload, args.seed, args.size, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

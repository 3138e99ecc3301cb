"""Benchmark entry point.

    python3 perfbench/run.py --workload {laws,heap,relate} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of the workload's fixed work
runs in a fresh process (``worker.py``), one after another, until ``S``
seconds of rounds have passed and, untraced, at least four rounds have run;
every round checks its own outputs.  The last line printed is one JSON
object: ``correct``, ``attempted`` and ``failed`` operations, and the
metrics.  With ``--trace 0`` these are the end-to-end metrics (medians over
rounds, times at the reference speed of ``CALIB_REF_S``); with ``--trace 1``
the rounds run with the per-layer wrappers of ``layers.py`` and the metrics
are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Untraced rounds are repeated until --seconds have passed and at least this
# many have run, so that the median of a run rests on several rounds.
MIN_ROUNDS = 4
# Set-up is timed in every round; extra set-up-only processes top the
# samples up to this many, so that its median is steady.
SETUP_SAMPLES = 9
# The whole run must end within 180 s.
DEADLINE_S = 170.0
# Every set-up and work time is reported at one reference speed of the host:
# divided by the mean time of the calibration slice (``workloads.calib_slice``)
# measured in the same process alongside it, and multiplied by this, about
# what the slice takes on the reference host (2 vCPU Xeon, Python 3.11).
CALIB_REF_S = 0.0008


def at_ref_speed(seconds: float, calib_s: float) -> float:
    return seconds / calib_s * CALIB_REF_S


def child(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` with ``args`` and return its JSON result.

    Children may write bytecode even where the environment forbids it, so
    that set-up is timed with ``__pycache__`` in place, as after an install.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-check")
    args = p.parse_args()
    if not (ROOT / "src" / "blockmem" / "__init__.py").is_file():
        print(f"no blockmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    child(["setup", *common], left())  # compiles the bytecode; not counted
    round_args = ["round", *common] + (["--trace"] if args.trace else [])
    rounds = []
    began = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(child(round_args, left()))
        last = time.monotonic() - t0
        enough = args.trace or len(rounds) >= MIN_ROUNDS
        done = enough and time.monotonic() - began >= args.seconds
        if done or last * 1.5 > left():
            break
    setups = [(r["setup_s"], r["setup_calib_s"]) for r in rounds]
    while not args.trace and len(setups) < SETUP_SAMPLES and left() > 30:
        sample = child(["setup", *common], left())
        setups.append((sample["setup_s"], sample["setup_calib_s"]))

    problems = [f"round {k}: {msg}" for k, r in enumerate(rounds) for msg in r["problems"]]
    for key in ("items", "digest"):
        if len({r[key] for r in rounds}) > 1:
            problems.append(f"rounds at one seed disagree on {key}")
    items = rounds[0]["items"]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {items} items")
    print(f"  measured wall_s {['%.4f' % r['wall_s'] for r in rounds]}, "
          f"setup_s {['%.4f' % s for s, _ in setups]}")
    print(f"  calibration slice in the work {['%.6f' % r['calib_s'] for r in rounds]}, "
          f"in the set-up {['%.6f' % c for _, c in setups]}")
    for msg in problems:
        print(f"problem: {msg}")

    if args.trace:
        print(f"traced wall_s median {statistics.median(r['wall_s'] for r in rounds):.4f}")
        # Counts repeat exactly from round to round; keep them whole.
        metrics = {
            name: {
                "value": (statistics.median_low if unit == "count" else statistics.median)(
                    r["layers"][name] for r in rounds
                ),
                "unit": unit,
            }
            for name, unit, _ in layers.METRICS
        }
    else:
        wall = statistics.median(at_ref_speed(r["wall_s"], r["calib_s"]) for r in rounds)
        metrics = {
            "setup_s": {"value": statistics.median(at_ref_speed(*s) for s in setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": sum(r["items"] for r in rounds),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figures that the benchmark does not gate.

    python3 perfbench/reference.py

1. ``blockmem laws --jobs 2`` at its default case counts and seed: wall
   time, and the CPU time of its worker processes.
2. ``mem_inject`` on one 1 MB block and its relocated copy, in a fresh
   process: time of the check and the process's peak resident memory.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

from workloads import ROOT, SRC

_INJECT = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from blockmem import memstate, relations
from blockmem.chunks import Chunk, Vint
span = 1 << 20
b, m1 = memstate.alloc(memstate.empty(), 0, span)
_, m2 = memstate.alloc(memstate.empty(), 8, span + 8)
for ofs in range(0, span, span // 16):
    m1 = memstate.store(Chunk.INT32, m1, b, ofs, Vint(ofs))
    m2 = memstate.store(Chunk.INT32, m2, b, ofs + 8, Vint(ofs))
t0 = time.perf_counter()
holds = relations.mem_inject({b: (b, 8)}, m1, m2)
seconds = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"holds": holds, "seconds": seconds, "peak_rss_mb": rss}))
"""


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    laws = subprocess.run(
        [sys.executable, "-m", "blockmem.cli", "laws", "--jobs", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    print(f"blockmem laws --jobs 2: exit {laws.returncode}, {wall:.1f} s wall, {cpu:.1f} s CPU")
    print("  " + next(line for line in laws.stdout.splitlines() if " laws, " in line))
    inject = subprocess.run(
        [sys.executable, "-c", _INJECT, str(SRC)], capture_output=True, text=True, timeout=600
    )
    r = json.loads(inject.stdout)
    print(f"mem_inject on one 1 MB block: holds={r['holds']}, {r['seconds']:.2f} s, "
          f"peak RSS {r['peak_rss_mb']:.0f} MB")
    return 0 if laws.returncode == 0 and r["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())

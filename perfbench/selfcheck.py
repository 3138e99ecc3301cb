"""Fast self-check of the benchmark, at tiny input sizes.

    python3 perfbench/selfcheck.py

It checks that:
1. every workload runs through ``run.py`` at tiny size, untraced and
   traced, passes its output checks, and prints exactly the metrics that
   ``BENCHMARK.json`` names;
2. two ``laws`` runs at one seed give byte-identical JSON-lines reports;
3. the checks catch wrong results: ``heap`` under two seeded bugs of
   ``blockmem.lawcheck.mutations``, ``laws`` under one, and ``relate`` with a
   ``mem_lessdef`` that ignores block contents;
4. the timer of ``workloads.CalibSampler`` takes calibration slices while
   work runs;
5. the full-size heap input has thousands of live blocks and dense blocks of
   hundreds of cells, and loads that expect defined values.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import gen
import workloads

ROOT = workloads.ROOT
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def through_run_py(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for traced, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "0", "--trace", str(traced), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            what = f"run.py {workload} --trace {traced}"
            if proc.returncode != 0:
                expect(False, f"{what} exits {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            names = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(
                out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
                and got == names,
                f"{what}: correct, nothing failed, the {section} metrics",
            )


def one_round(workload: str, seed: int = 3):
    inputs = workloads.make_inputs(workload, seed, "tiny")
    ctx = workloads.setup(workload, inputs)
    return inputs, ctx


def laws_reports_identical() -> None:
    from blockmem.lawcheck import laws_base, runner

    inputs, cfg = one_round("laws")
    reports = []
    for _ in range(2):
        laws_base.clear_caches()
        reports.append(runner.jsonl_report(runner.run_suite(cfg)).encode("utf-8"))
    expect(reports[0] == reports[1], "two laws runs at one seed give identical report bytes")


def checks_bite() -> None:
    from blockmem import memstate, relations
    from blockmem.lawcheck import mutations

    inputs, ctx = one_round("heap")
    for name in ("alignment-check-dropped", "sign-extension-zeroed"):
        with mutations.applied(name):
            out = workloads.work("heap", inputs, ctx)
        _, _, problems = workloads.check("heap", inputs, ctx, out)
        expect(bool(problems), f"heap check catches {name}")

    inputs, cfg = one_round("laws")
    with mutations.applied("continuation-clear-skipped"):
        out = workloads.work("laws", inputs, cfg)
    _, _, problems = workloads.check("laws", inputs, cfg, out)
    expect(bool(problems), "laws check catches continuation-clear-skipped")

    inputs, ctx = one_round("relate")
    original = relations.mem_lessdef
    relations.mem_lessdef = memstate.same_domain
    try:
        out = workloads.work("relate", inputs, ctx)
    finally:
        relations.mem_lessdef = original
    _, _, problems = workloads.check("relate", inputs, ctx, out)
    expect(bool(problems), "relate check catches a mem_lessdef that ignores contents")


def calibration_sampled() -> None:
    def busy(seconds: float) -> int:
        end, n = time.perf_counter() + seconds, 0
        while time.perf_counter() < end:
            n += 1
        return n

    sampler = workloads.CalibSampler()
    t0 = time.perf_counter()
    with sampler:
        busy(0.45)
    elapsed = time.perf_counter() - t0
    expect(len(sampler.slices) >= 3 and sum(sampler.slices) < elapsed,
           f"the timer took {len(sampler.slices)} calibration slices in 0.45 s of work")


def heap_shape() -> None:
    h = gen.heap_input(1)
    live = sum(b.live for b in h.blocks)
    dense_cells = [len({ofs for ofs, _ in b.anchors}) for b in h.blocks if b.var.startswith("$d")]
    expect(live >= 1000, f"full heap input ends with {live} live blocks")
    expect(min(dense_cells) >= 100, f"dense blocks hold {dense_cells} cells")
    expect(h.defined_loads >= h.loads // 5, f"{h.defined_loads} of {h.loads} loads expect a value")


def main() -> int:
    t0 = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    through_run_py(spec)
    workloads.import_program()
    laws_reports_identical()
    checks_bite()
    calibration_sampled()
    heap_shape()
    print(f"{len(failures)} failed, {time.perf_counter() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

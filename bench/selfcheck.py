#!/usr/bin/env python3
"""Self-check of the benchmark itself, at tiny durations (about a minute).

    python3 bench/selfcheck.py

Checks that every run prints the result line with every metric BENCHMARK.json
names, in its unit; that every per-layer metric is measured on some workload;
that the output checks catch planted faults (a perturbed h column, a flipped
CSV byte, a forced infeasible rejection, which must count as failed and not
as incorrect); that the tracer reports a removed function instead of
raising; that attempted and failed do not depend on how many passes fit in
the time; and that the benchmark refuses to run without the safecut source.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import invariants  # noqa: E402
import worker  # noqa: E402
from safecut import safety  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result_lines(bench: dict) -> None:
    measured = set()
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_bench(ROOT, w["name"], trace)
            what = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True, f"{what}: outputs correct")
            expect(0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1,
                   f"{what}: attempted {result['attempted']}, failed {result['failed']}")
            metrics = result["metrics"]
            expect(list(metrics) == [m["name"] for m in declared], f"{what}: metric names")
            expect(all(metrics[m["name"]]["unit"] == m["unit"] for m in declared
                       if m["name"] in metrics), f"{what}: metric units")
            expect(all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in metrics.values()), f"{what}: finite values")
            if trace == 0:
                expect(all(v["value"] > 0 for v in metrics.values()),
                       f"{what}: end-to-end metrics non-zero")
            measured |= {name for name, v in metrics.items() if v["value"] != 0}
    unmeasured = [m["name"] for m in bench["per_layer"] if m["name"] not in measured]
    expect(not unmeasured, f"every per-layer metric measured on some workload {unmeasured}")


def check_planted_faults(work: Path) -> None:
    loop = worker.LoopFiltered(7, True, work)
    _, logs = loop.timed(0, None)
    outcome = loop.check(0, logs, True)
    expect(not outcome.incorrect and not outcome.failures, "clean filtered pass has no findings")
    spec, log = loop.specs[0], logs[0]
    log.h[len(log) // 2, 0] += 1e-6
    expect(any("deviates" in p for p in invariants.log_problems(log, spec, len(log))),
           "perturbed h column is caught")
    log.h[len(log) // 2, 0] -= 1e-6
    spec, log = next((s, g) for s, g in zip(loop.specs, logs) if (g.active_rows == 0).any())
    k = int(np.nonzero(log.active_rows == 0)[0][0])
    log.xdot_safe[k, 0] = np.nextafter(log.xdot_safe[k, 0], np.inf)
    expect(any("idle" in p for p in invariants.log_problems(log, spec, len(log))),
           "idle step off xdot_des by one ulp is caught")

    export = worker.LoopExport(7, True, work)
    first = export.check(0, export.timed(0, None)[1], True)
    expect(not first.incorrect and not first.failures, "clean export pass has no findings")
    _, out = export.timed(0, None)
    csv = out[0][1]
    data = bytearray(csv.read_bytes())
    row = data.index(b"\n", data.index(b"\n") + 1) + 5     # inside the first data row
    data[row] = ord("7") if data[row] != ord("7") else ord("3")
    csv.write_bytes(bytes(data))
    flipped = export.check(0, out, True)
    expect(any("export_csv(read_csv(f))" in p for p in flipped.incorrect),
           "flipped CSV byte breaks the round trip")
    expect(flipped.digest.digest() != first.digest.digest(),
           "flipped CSV byte changes the pass digest")

    oracles = worker.Oracles(7, True, work)
    oracles.suites = []
    original = safety.safety_filter

    def refuse(v_d, rows):
        raise safety.InfeasibleQPError("planted rejection")

    safety.safety_filter = refuse
    try:
        _, out = oracles.timed(0, None)
    finally:
        safety.safety_filter = original
    rejected = oracles.check(0, out, True)
    feasible = sum(expected is not None for expected, _ in out[0])
    expect(len(rejected.failures) == feasible and not rejected.incorrect,
           f"forced rejections counted failed ({len(rejected.failures)} of {feasible} feasible)")
    expect(invariants.classify_qp(None, np.zeros(3)) == "incorrect",
           "solving an infeasible program is incorrect")
    expect(invariants.classify_qp(np.ones(3), np.ones(3) * 1.01) == "incorrect",
           "a velocity 1% off the oracle is incorrect")


def check_counts_fixed(work: Path) -> None:
    loop = worker.LoopFiltered(7, True, work)
    oracles = worker.Oracles(7, True, work)
    oracles.suites = []
    for name, wl in (("loop-filtered", loop), ("oracles", oracles)):
        short, long = worker.measure(wl, 0.0), worker.measure(wl, 1.0)
        expect(len(long["walls"]) > len(short["walls"]) == wl.keys
               and (short["attempted"], short["failed"]) == (long["attempted"], long["failed"]),
               f"{name}: attempted and failed do not depend on the number of passes "
               f"({len(short['walls'])} and {len(long['walls'])} passes)")


def check_tracer_robust() -> None:
    modules = dict(worker.MODULES, dynamics=types.SimpleNamespace())
    tracer = Tracer()
    tracer.install(modules)
    try:
        wrapped = worker.sim.rk4_step is not worker.dynamics.rk4_step
    finally:
        tracer.uninstall()
    expect("dynamics.rk4_step" in tracer.missing and not wrapped,
           "a removed function is reported missing, not wrapped")
    expect(worker.sim.run.__module__ == "safecut.sim", "uninstall restores the originals")
    expect("cli.main" in tracer.uncalled(), "an uncalled function is reported uncalled")


def check_refuses_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "loop-filtered", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "refuses to run without src/safecut")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_tracer_robust()
        check_planted_faults(work)
        check_counts_fixed(work)
        check_refuses_bare_directory(work)
        check_result_lines(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

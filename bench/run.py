#!/usr/bin/env python3
"""safecut benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout root is the parent of this file's directory; it must hold
BENCHMARK.json and the package source under src/safecut, which is used in
place (there is nothing to build).  BENCHMARK.json names the workloads and
the metrics with their units.

--trace 0 measures the end-to-end metrics.  SETUP_PROBES processes only set
the workload up, then one process sets up again and times passes over the
workload for --seconds.  setup_s is the median set-up time of all of them,
counted from just before each process was started.
--trace 1 runs one process whose passes alternate untraced and traced on the
same inputs and reports the per-layer metrics.

Every process is a fresh interpreter with single-threaded BLAS and OpenMP,
set only in its environment.  Lines starting with '#' are diagnostics; the
last stdout line is the result JSON.  --tiny shortens every operation for
the self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10
BUDGET_S = 170.0        # everything must end within the 180 s a run may take
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, mode: str, workdir: Path, timeout: float) -> dict:
    """Start worker.py in a new workdir, wait for it (killed on timeout), return its result.

    Each process gets its own directory, so no process truncates a file that
    another wrote (see LoopExport in worker.py).
    """
    workdir.mkdir()
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--t0", repr(t0),
           "--root", str(ROOT), "--workdir", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description="safecut benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shortened operations, for the self-check only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "safecut" / "__init__.py").is_file():
        return fail(f"no safecut source under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    print("# machine " + json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
        "threads": THREAD_ENV}))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = run_worker(args, "setup", workdir / f"setup{i}",
                                   BUDGET_S - (time.monotonic() - start))
                setups.append(probe["setup_s"])
        res = run_worker(args, "measure", workdir / "measure",
                         BUDGET_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        work_root = ROOT / ".bench_work"
        if not any(work_root.iterdir()):
            work_root.rmdir()

    setups.append(res["setup_s"])
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")

    print("# versions " + json.dumps(res["versions"]))
    print("# run " + json.dumps({"walls": res["walls"], "setup_s": setups,
                                  "failed_ratio": res["failed"] / res["attempted"],
                                  "failures": res["failures"][:20]}))
    if args.trace:
        print("# layers " + json.dumps(res["layers"]))
    for line in res["incorrect"][:20]:
        print(f"# incorrect: {line}")
    print(json.dumps({
        "correct": not res["incorrect"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

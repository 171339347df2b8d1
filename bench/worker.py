"""One benchmark process: set up a workload, time passes over it, check outputs.

run.py starts this file in a fresh single-threaded process with the checkout's
``src`` first on PYTHONPATH.  It calls only public functions of safecut.

    --mode setup    import, build and validate the inputs, report setup_s, exit
    --mode measure  the same, then time passes for --seconds and check them

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import safecut
from safecut import checks, cli, control, dynamics, kinematics, safety, scenario, sim

import invariants
from tracing import Tracer

MODULES = {"scenario": scenario, "sim": sim, "safety": safety, "control": control,
           "kinematics": kinematics, "dynamics": dynamics, "checks": checks, "cli": cli}

TEMPLATES = (1, 2, 3, 4)        # catalog scenarios the closed loops are seeded from
DURATION_S = 10.0               # approach plus the first part of the marking loop
TINY_DURATION_S = 1.5             # long enough for the depth gate to engage
MARKING_PLANE = (0.0, 0.0, 1.0)
ALPHAS = (0.2, 0.4, 0.8)        # one per keep-out template, in seeded order
SPEED_MM_S = (1.5, 3.0)
DEPTH_MM = (0.8, 2.5)
FACING = 3                      # loop points nearest the preserve tumor may intrude it
DISTURBANCE_AMP = (50.0, 200.0)
DISTURBANCE_HZ = (0.5, 3.0)
QP_PROGRAMS = 10000             # programs per oracles pass, as in `safecut verify`
TINY_QP_PROGRAMS = 200
QP_BATCHES = 4                  # distinct program batches an oracles run cycles through
EMIT = "csv,plotdata,report"


def seeded_specs(seed: int, duration: float) -> list:
    """Seeded variants of the catalog templates, validated.

    Per template the seed picks which loop points are unsafe (as many as the
    template has), the tumor each one intrudes, the intrusion depth and the
    speed.  The keep-out templates get a seeded permutation of ALPHAS; the
    gated depth template keeps its catalog alpha.
    """
    rng = np.random.default_rng(seed)
    alphas = iter(rng.permutation(ALPHAS).tolist())
    specs = []
    for tid in TEMPLATES:
        base = scenario.scenario_catalog(tid)
        removable = base.tumors[0]
        loop = scenario.generate_marking_points(removable, len(base.markings[0].points),
                                                MARKING_PLANE)
        facing = set()
        if len(base.tumors) > 1:
            dist = np.linalg.norm(loop.points - base.tumors[1].center, axis=1)
            facing = set(np.argsort(dist)[:FACING].tolist())
        intrusions = []
        for i in sorted(rng.choice(len(loop.points), int(base.markings[0].unsafe.sum()),
                                   replace=False).tolist()):
            target = base.tumors[1] if i in facing and rng.random() < 0.5 else removable
            intrusions.append((i, target, float(rng.uniform(*DEPTH_MM))))
        alpha = base.filter.alpha if base.filter.activation_gate else next(alphas)
        spec = replace(base, markings=[scenario.inject_unsafe_points(loop, intrusions)],
                       speed=float(rng.uniform(*SPEED_MM_S)),
                       filter=replace(base.filter, alpha=alpha), duration=duration)
        spec.validate()
        specs.append(spec)
    return specs


def steps_of(spec) -> int:
    return int(round(spec.duration / spec.dt)) + 1


class Outcome:
    """What one pass did: units of work, operations, and check results.

    Each workload has keys, the number of distinct inputs a run cycles
    through; timed(key, wrap) -> (wall seconds, raw outputs), where key in
    range(keys) selects the pass's inputs and wrap, when tracing, wraps the
    calls the benchmark makes directly; and check(key, outputs, first) ->
    Outcome, untimed, which also runs the costly checks when first is set.
    """

    def __init__(self):
        self.steps = 0
        self.attempted = 0
        self.incorrect = []  # one line per broken output check
        self.failures = []  # one line per failed operation
        self.digest = hashlib.sha256()
        self.csv_bytes = 0


class LoopFiltered:
    """sim.run + sim.summarize in-process, filter on."""

    keys = 1

    def __init__(self, seed, tiny, workdir):
        self.specs = seeded_specs(seed, TINY_DURATION_S if tiny else DURATION_S)

    def timed(self, key, wrap):
        out = []
        t0 = time.perf_counter()
        for spec in self.specs:
            try:
                log = sim.run(spec)
                sim.summarize(log, spec)
            except Exception as exc:  # a failed operation, reported and counted
                log = exc
            out.append(log)
        return time.perf_counter() - t0, out

    def check(self, key, out, first):
        o = Outcome()
        for spec, log in zip(self.specs, out):
            o.attempted += 1
            o.steps += steps_of(spec)
            if isinstance(log, Exception):
                o.failures.append(f"scenario {spec.scenario_id}: {type(log).__name__}: {log}")
                continue
            o.incorrect += invariants.log_problems(log, spec, steps_of(spec))
            if invariants.breached(log, spec):
                o.failures.append(f"scenario {spec.scenario_id}: breach to "
                                f"{invariants.worst_h_after_gate(log, spec):.4g} mm")
            o.digest.update(invariants.log_digest(log))
        return o


class LoopExport:
    """`safecut run --config ... --emit csv,plotdata,report`, then read the CSV back.

    Every pass writes into a new directory, removed after its checks: on a
    filesystem mounted with discard, truncating an old output file costs tens
    of milliseconds that belong to the disk, not to the program.
    """

    keys = 1

    def __init__(self, seed, tiny, workdir):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.passes = 0
        self.items = []
        for i, spec in enumerate(seeded_specs(seed, TINY_DURATION_S if tiny else DURATION_S)):
            spec = replace(spec, filter=replace(spec.filter, enabled=False),
                           disturbance=control.DisturbanceSpec(
                               waveform="sinusoid",
                               amplitude=tuple(rng.uniform(*DISTURBANCE_AMP, 3).tolist()),
                               frequency=float(rng.uniform(*DISTURBANCE_HZ)),
                               seed=int(rng.integers(2 ** 31))))
            text = scenario.scenario_to_config(spec)
            if scenario.scenario_to_config(scenario.load_scenario(text)) != text:
                raise ValueError(f"config of spec {i} does not round-trip")
            config = workdir / f"spec{i}.cfg"
            config.write_text(text)
            self.items.append((spec, config))

    def timed(self, key, wrap):
        passdir = self.workdir / f"pass{self.passes}"
        self.passes += 1
        out = []
        t0 = time.perf_counter()
        for i, (spec, config) in enumerate(self.items):
            outdir = passdir / f"out{i}"
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                code = cli.main(["run", "--config", str(config), "--emit", EMIT,
                                 "--out", str(outdir)])
            csv = outdir / f"scenario{spec.scenario_id}_log.csv"
            out.append((outdir, csv, code, sim.read_csv(csv) if code == 0 else None,
                        report.getvalue()))
        return time.perf_counter() - t0, out

    def check(self, key, out, first):
        o = Outcome()
        for i, ((spec, _), (outdir, csv, code, log, report)) in enumerate(zip(self.items, out)):
            o.attempted += 1
            o.steps += steps_of(spec)
            if code != 0:
                o.failures.append(f"scenario {spec.scenario_id}: exit code {code}")
                continue
            data = csv.read_bytes()
            o.csv_bytes += len(data)
            o.digest.update(hashlib.sha256(data).digest())
            o.incorrect += invariants.log_problems(log, spec, steps_of(spec))
            if not report.strip():
                o.incorrect.append(f"scenario {spec.scenario_id}: empty report")
            plots = sorted(outdir.glob(f"scenario{spec.scenario_id}_*.dat"))
            if len(plots) != 3 or not all(p.stat().st_size for p in plots):
                o.incorrect.append(f"scenario {spec.scenario_id}: plot data files missing")
            if first:
                again = outdir / "roundtrip.csv"
                sim.export_csv(log, again)
                if again.read_bytes() != data:
                    o.incorrect.append(f"scenario {spec.scenario_id}: "
                                      "export_csv(read_csv(f)) differs from f")
        if out:
            shutil.rmtree(out[0][0].parent)
        return o


class Oracles:
    """Random programs one at a time against the oracle, then the fixed suites.

    Key k draws its batch of programs from default_rng([seed, k]).
    """

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.keys = QP_BATCHES
        self.programs = TINY_QP_PROGRAMS if tiny else QP_PROGRAMS
        # the QP suite is replaced by the per-program loop above it
        self.suites = [(name, fn) for name, fn in checks.VERIFY_SUITES if name != "qp-oracle"]
        if not self.suites:
            raise ValueError("no verify suites besides qp-oracle")

    def timed(self, key, wrap):
        """wrap, when tracing, turns each suite call into a checks.<suite> span."""
        rng = np.random.default_rng([self.seed, key])
        programs = []
        t0 = time.perf_counter()
        for _ in range(self.programs):
            v_d, rows = checks.random_qp_instance(rng)
            expected = checks.qp_reference(v_d, rows)
            try:
                got = safety.safety_filter(v_d, rows)
            except safety.InfeasibleQPError:
                got = None
            programs.append((expected, got))
        suites = [(name, (wrap(f"checks.{name}", fn) if wrap else fn)())
                  for name, fn in self.suites]
        return time.perf_counter() - t0, (programs, suites)

    def check(self, key, out, first):
        o = Outcome()
        programs, suites = out
        o.attempted = len(programs) + len(suites)
        o.steps = o.attempted
        for i, (expected, got) in enumerate(programs):
            verdict = invariants.classify_qp(expected, got)
            if verdict == "failed":
                o.failures.append(f"program {key}:{i}: feasible program rejected")
            elif verdict == "incorrect":
                o.incorrect.append(f"program {key}:{i}: filter disagrees with the oracle")
            o.digest.update(b"x" if got is None else got.tobytes())
        for name, (passed, detail) in suites:
            if not passed:
                o.incorrect.append(f"suite {name} failed: {detail}")
            o.digest.update(f"{name}:{passed}:{detail}".encode())
        return o


WORKLOADS = {"loop-filtered": LoopFiltered, "loop-export": LoopExport, "oracles": Oracles}


def _passthrough_hook(counter):
    def hook(args, result):
        if result.tobytes() == np.asarray(args[0], dtype=float).tobytes():
            counter[0] += 1
    return hook


def measure(wl, seconds: float, layer_names=None) -> dict:
    """Time passes until seconds have elapsed; traced runs alternate with untraced.

    layer_names, the per-layer metrics to report, makes the run traced.

    Passes cycle through the workload's keys, and the run goes on until every
    key has had a pass.  attempted and failed count the operations of each
    key's first pass only, so they depend on the seed and not on how many
    passes fit in the time; later passes on the same key must repeat its
    digest.  In a traced run pass 2k is untraced and pass 2k+1 traced on the
    same inputs, so their digests must match and their walls give the overhead.
    """
    trace = layer_names is not None
    tracer = Tracer()
    passthrough = [0]
    posts = {"safety.safety_filter": _passthrough_hook(passthrough)}
    digests = {}
    walls = {False: [], True: []}
    per_step = []
    traced_outcomes = []
    attempted = failed = 0
    incorrect, failures = [], []
    deadline = time.perf_counter() + seconds
    p = 0
    while (len(digests) < wl.keys or time.perf_counter() < deadline
           or (trace and p % 2)):
        traced = trace and p % 2 == 1
        key = (p // 2 if trace else p) % wl.keys
        first = key not in digests
        if traced:
            tracer.install(MODULES, posts)
        try:
            wall, out = wl.timed(key, tracer.wrap if traced else None)
        finally:
            tracer.uninstall()
        o = wl.check(key, out, first=first)
        digest = o.digest.hexdigest()
        if digests.setdefault(key, digest) != digest:
            incorrect.append(f"pass {p} ({'traced' if traced else 'untraced'}) output "
                            "differs from an earlier pass on the same inputs")
        walls[traced].append(wall)
        if not traced:
            per_step.append(wall / o.steps * 1e6)
        else:
            traced_outcomes.append((wall, o))
        if first:
            attempted += o.attempted
            failed += len(o.failures)
            failures += o.failures
        incorrect += o.incorrect
        p += 1

    result = {"attempted": attempted, "failed": failed, "walls": walls[False],
              "incorrect": incorrect, "failures": failures}
    if not trace:
        result["metrics"] = {"wall_s": statistics.median(walls[False]),
                             "step_us": statistics.median(per_step)}
        return result

    passes = len(traced_outcomes)
    steps = sum(o.steps for _, o in traced_outcomes)
    traced_wall = sum(w for w, _ in traced_outcomes)
    runs = tracer.calls("sim.run")
    special = {
        "safety.safety_filter.passthrough_ratio":
            passthrough[0] / max(1, tracer.calls("safety.safety_filter")),
        "sim.export_csv.bytes_per_step": sum(o.csv_bytes for _, o in traced_outcomes) / steps,
        "trace.overhead_ratio": statistics.median(walls[True]) / statistics.median(walls[False]),
        "trace.step_us": traced_wall / steps * 1e6,
        "trace.accounted_ratio": tracer.total_self_s() / traced_wall,
    }
    derive = {
        "self_us_per_step": lambda layer: tracer.self_s(layer) / steps * 1e6,
        "calls_per_step": lambda layer: tracer.calls(layer) / steps,
        "calls_per_run": lambda layer: tracer.calls(layer) / runs if runs else 0.0,
        "calls": lambda layer: tracer.calls(layer) / passes,
        "infeasible": lambda layer: tracer.errors(layer) / passes,
        "s": lambda layer: tracer.inclusive_s(layer) / passes,
        "self_s": lambda layer: tracer.self_s(layer) / passes,
    }
    metrics = {}
    for name in layer_names:
        layer, _, stat = name.rpartition(".")
        if name in special:
            metrics[name] = float(special[name])
        elif stat in derive:
            metrics[name] = float(derive[stat](layer))
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    result["metrics"] = metrics
    result["layers"] = {"missing": tracer.missing, "uncalled": tracer.uncalled(),
                        "edges": tracer.edge_list(), "hook_s": tracer.hook_s}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--root", required=True, help="checkout root")
    ap.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    if src not in Path(safecut.__file__).resolve().parents:
        raise SystemExit(f"safecut imported from {safecut.__file__}, not from {src}")

    wl = WORKLOADS[args.workload](args.seed, args.tiny, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "measure":
        names = None
        if args.trace:
            bench = json.loads((root / "BENCHMARK.json").read_text())
            names = [m["name"] for m in bench["per_layer"]]
        result.update(measure(wl, args.seconds, names))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {"python": platform.python_version(),
                              "numpy": np.__version__, "scipy": scipy.__version__,
                              "safecut": safecut.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

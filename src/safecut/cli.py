"""Command-line front end.

`safecut run` simulates one scenario (or a filter-gain sweep of it) and
writes figure data, logs and a report.  `safecut verify` executes the
independent numeric check suites.

Exit codes: 0 success, 1 a filter-enabled run breached a barrier beyond
tolerance or a verification suite failed, 2 usage or configuration error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import checks, sim
from .scenario import SCENARIO_IDS, load_scenario, scenario_catalog

_VIOLATION_TOL = 1e-3
_EMIT_CHOICES = ("csv", "plotdata", "report")


class _UsageError(ValueError):
    pass


def _print_report(spec, report, log) -> None:
    state = f"on (alpha {spec.filter.alpha:g})" if spec.filter.enabled else "off"
    print(f"scenario {spec.scenario_id}  filter {state}")
    for name, h in report.min_h.items():
        print(f"  min barrier {name} [mm]:      {h: .6f}")
    fv = report.first_violation_time
    print(f"  first violation [s]:         {'none' if fv is None else f'{fv:.3f}'}")
    print(f"  max tracking error [mm/s]:   {report.max_tracking_error:.6f}")
    print(f"  velocity-error decay [1/s]:  {report.decay_rate:.3f}")
    for i, (turns, excess) in enumerate(zip(report.enclosure_turns, report.radial_excess)):
        print(f"  loop {i} enclosure [turns]:    {turns:.4f}")
        print(f"  loop {i} radial excess [mm]:   " + "p50 %.3f  p95 %.3f  max %.3f" % excess)
    print(f"  deviation integral [mm]:     {report.deviation_integral:.6f}")
    if spec.filter.enabled and spec.filter.activation_gate:
        tg = sim.gate_engage_time(log)
        print(f"  gate engaged [s]:            {'never' if tg is None else f'{tg:.3f}'}")


def _run_one(spec, out_dir: Path, emit) -> float:
    """Simulate spec, write the requested outputs into out_dir, return the worst h.

    Runs with the filter off are deliberate baselines and never count
    toward the violation exit code.
    """
    log = sim.run(spec)
    report = sim.summarize(log, spec)
    if "csv" in emit:
        sim.export_csv(log, out_dir / f"scenario{spec.scenario_id}_log.csv")
    if "plotdata" in emit:
        sim.export_plot_data(log, spec, out_dir)
    if "report" in emit:
        _print_report(spec, report, log)
    if not spec.filter.enabled:
        return float("inf")
    return min(report.min_h.values(), default=float("inf"))


def cmd_run(args) -> int:
    if args.config is None:
        spec = scenario_catalog(args.scenario)
    else:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read config: {exc}") from exc
        spec = load_scenario(text)

    emit = tuple(tok for tok in args.emit.split(",") if tok)
    for tok in emit:
        if tok not in _EMIT_CHOICES:
            raise _UsageError(f"unknown emit target {tok!r}")

    out = Path(args.out)
    runs = [(out, spec)]
    if args.alpha is not None:
        try:   # FilterParams refuses values out of range
            alphas = [float(v) for v in args.alpha.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --alpha list {args.alpha!r}") from exc
        gains = {}
        for v in alphas:
            name = f"alpha_{v:g}"
            if name in gains:
                raise _UsageError(f"--alpha gains {gains[name]!r} and {v!r} both map to the "
                                  f"one {name}/ directory")
            gains[name] = v
        runs = [(out / "unfiltered", replace(spec, filter=replace(spec.filter, enabled=False)))]
        runs += [(out / name, replace(spec, filter=replace(spec.filter, alpha=v, enabled=True)))
                 for name, v in gains.items()]
    for out_dir, _ in runs:    # before any run, so a run never ends with nowhere to write
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"--out: cannot make {out_dir} a directory: {exc.strerror}") from exc
    worst = min(_run_one(sub, out_dir, emit) for out_dir, sub in runs)
    return 1 if worst < -_VIOLATION_TOL else 0


def cmd_verify(args) -> int:
    if args.qp_instances < 1:
        raise _UsageError(f"--qp-instances must be at least 1, got {args.qp_instances}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    failed = 0
    for name, fn in checks.VERIFY_SUITES:
        if name == "qp-oracle":
            passed, detail = fn(args.qp_instances, args.seed)
        else:
            passed, detail = fn()
        print(f"{name}: {'PASS' if passed else 'FAIL'}  ({detail})")
        failed += not passed
    print(f"{len(checks.VERIFY_SUITES) - failed}/{len(checks.VERIFY_SUITES)} suites passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safecut",
        description="marking-point cutting simulation with a safety velocity filter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a scenario and write its data files")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", type=int, choices=SCENARIO_IDS,
                        help="catalog scenario id")
    source.add_argument("--config",
                        help="scenario config file: its scenario_id names the catalog "
                             "scenario whose values its other keys override")
    p.add_argument("--alpha",
                   help="comma list of filter gains; runs each into out/alpha_<v>/ "
                        "plus an unfiltered baseline into out/unfiltered/")
    p.add_argument("--emit", default="plotdata",
                   help="comma list of outputs: csv, plotdata, report (default plotdata)")
    p.add_argument("--out", default=os.environ.get("SAFECUT_OUT", "safecut_out"),
                   help="output directory (default $SAFECUT_OUT or ./safecut_out)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the independent numeric check suites")
    p.add_argument("--qp-instances", type=int, default=10000,
                   help="random programs for the filter oracle (default 10000)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"safecut: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"safecut: bad configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"safecut: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

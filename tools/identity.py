"""Byte identity of safecut's outputs between this tree and a git revision.

    python tools/identity.py --against REV

extracts REV with `git archive` into a temporary directory (no network, no
change to .git), runs one fixed manifest on each tree's src/ and bench/, each
tree in its own process, and prints one line per output: `same`, or where the
two first differ (step and column of a log, line and field of a text).  It
exits 0 only when every line is `same`.

The manifest:
- the log data of sim.run(spec) and the repr of sim.summarize, filter on and
  off, for catalog 1-4, the specs of bench/worker.seeded_specs, seeds
  100-109 at the loop-filtered workload's 10 s, and the specs the
  loop-export workload runs, seeds 100-109, each with a sinusoid disturbance;
- the files, stdout and exit code of `safecut run --scenario N --emit
  csv,plotdata,report` for N = 1-4, and of the sweeps `--alpha 0.2,0.4,0.8`
  on catalog 1 and `--alpha 0.4,0.8,1.5` on catalog 4;
- the stdout and exit code of `safecut verify`, default and `--seed 100
  --qp-instances 40000`;
- the saved config text, scenario_to_config, of catalog 1-4 and of the
  loop-export specs, seeds 100-109, whose markings are seeded and which
  carry a disturbance.

Each tree's process streams its outputs as frames, a JSON header line and the
payload bytes, and the two streams are compared as they arrive, so no log is
kept on disk and at most one entry's outputs per tree are held in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CATALOG = (1, 2, 3, 4)
SEEDS = range(100, 110)
SEEDED_SPECS = 4                # bench/worker.seeded_specs: one per catalog template
SEEDED_DURATION_S = 10.0        # bench/worker.DURATION_S
EMIT = ["--emit", "csv,plotdata,report"]
COMMANDS = ([["run", "--scenario", str(n), *EMIT] for n in CATALOG]
            + [["run", "--scenario", "1", "--alpha", "0.2,0.4,0.8", *EMIT],
               ["run", "--scenario", "4", "--alpha", "0.4,0.8,1.5", *EMIT],
               ["verify"], ["verify", "--seed", "100", "--qp-instances", "40000"]])


# ---------------------------------------------------------------------------
# one tree's process

def _entries(tree: Path):
    """(name, make) per manifest entry, in order; make() yields the entry's
    outputs as (sub-name, kind "log" or "text", payload bytes, extra header)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from safecut import cli, scenario, sim
    import worker
    if not Path(sim.__file__).resolve().is_relative_to(tree.resolve()):
        raise ImportError(f"safecut imported from {sim.__file__}, not from {tree}")

    def logged(build, enabled):
        def make():
            spec = build()
            spec = replace(spec, filter=replace(spec.filter, enabled=enabled))
            log = sim.run(spec)
            yield "log", "log", log.data.tobytes(), {"columns": sim._csv_columns(log.barrier_names)}
            yield "summary", "text", repr(sim.summarize(log, spec)).encode(), {}
        return make

    def command(argv):
        def make():
            with tempfile.TemporaryDirectory() as tmp:
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = cli.main(argv + (["--out", tmp] if argv[0] == "run" else []))
                yield "exit code", "text", str(code).encode(), {}
                yield "stdout", "text", printed.getvalue().encode(), {}
                files = sorted(p.relative_to(tmp).as_posix()
                               for p in Path(tmp).rglob("*") if p.is_file())
                yield "files", "text", "\n".join(files).encode(), {}
                for name in files:
                    yield name, "text", (Path(tmp) / name).read_bytes(), {}
        return make

    def export_spec(seed, i):
        # LoopExport writes each spec's config file into its directory
        with tempfile.TemporaryDirectory() as tmp:
            return worker.LoopExport(seed, False, Path(tmp)).items[i][0]

    def config(build):
        def make():
            yield "text", "text", scenario.scenario_to_config(build()).encode(), {}
        return make

    catalog = [(f"catalog {n}", lambda n=n: scenario.scenario_catalog(n)) for n in CATALOG]
    exported = [(f"loop-export seed {s} spec {i}", lambda s=s, i=i: export_spec(s, i))
                for s in SEEDS for i in range(SEEDED_SPECS)]
    seeded = [(f"seed {s} spec {i}",
               lambda s=s, i=i: worker.seeded_specs(s, SEEDED_DURATION_S)[i])
              for s in SEEDS for i in range(SEEDED_SPECS)]
    for label, build in catalog + seeded + exported:
        for state, enabled in (("on", True), ("off", False)):
            yield f"{label}, filter {state}", logged(build, enabled)
    for argv in COMMANDS:
        yield "safecut " + " ".join(argv), command(argv)
    for label, build in catalog + exported:
        yield f"{label}, config", config(build)


def _emit_manifest(tree: Path) -> None:
    """Run the manifest on tree, writing its frames to stdout; each entry ends
    with an "end" frame, and an entry that raises gives an "error" frame."""
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)        # anything else the runs print goes to stderr, not into the frames

    def write(name, sub, kind, payload=b"", extra=None):
        head = dict(extra or {}, name=name, sub=sub, kind=kind, size=len(payload))
        out.write(json.dumps(head).encode() + b"\n" + payload)

    with out:
        for name, make in _entries(tree):
            try:
                for sub, kind, payload, extra in make():
                    write(name, sub, kind, payload, extra)
            except Exception as exc:
                write(name, "error", "error", f"{type(exc).__name__}: {exc}".encode())
            write(name, "", "end")


# ---------------------------------------------------------------------------
# the comparison

def _frames(stream):
    """(header, payload) per frame of a tree's process, until its stdout closes."""
    while line := stream.readline():
        head = json.loads(line)
        yield head, stream.read(head["size"])


def _entry(frames):
    """The next entry's (header, payload) frames, up to its end frame."""
    for head, payload in frames:
        if head["kind"] == "end":
            return
        yield head, payload


def _text_difference(a: str, b: str, rev: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            sep = "," if "," in x else None
            fx, fy = x.split(sep), y.split(sep)
            f = next((i for i, (u, v) in enumerate(zip(fx, fy)) if u != v), min(len(fx), len(fy)))
            field = [fields[f] if f < len(fields) else "<none>" for fields in (fx, fy)]
            return f"line {n}, field {f + 1}: {rev} {field[0]!r}, this tree {field[1]!r}"
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines in {rev}, {len(lines_b)} in this tree"
    return "line endings differ"


def _difference(a, b, rev: str) -> str:
    """'same', or where the outputs a and b, each (header, payload), first differ."""
    (head_a, pa), (head_b, pb) = a, b
    errors = [f"{side} raised {p.decode()}" for side, (h, p) in ((rev, a), ("this tree", b))
              if h["kind"] == "error"]
    if errors:
        return "; ".join(errors)
    if head_a.get("columns") != head_b.get("columns"):
        return f"log columns {head_a['columns']} in {rev}, {head_b['columns']} in this tree"
    if pa == pb:
        return "same"
    if head_a["kind"] == "log":
        columns = head_a["columns"]
        # compared as bit patterns: -0.0 is not 0.0 and nan is nan
        x, y = (np.frombuffer(p, np.uint64).reshape(-1, len(columns)) for p in (pa, pb))
        steps = min(len(x), len(y))
        differ = np.argwhere(x[:steps] != y[:steps])
        if not differ.size:
            return f"{len(x)} steps in {rev}, {len(y)} in this tree"
        step, col = differ[0].tolist()
        u, v = (float(z[step].view(np.float64)[col]) for z in (x, y))
        return f"step {step}, column {columns[col]}: {rev} {u!r}, this tree {v!r}"
    return _text_difference(pa.decode(errors="replace"), pb.decode(errors="replace"), rev)


def _compare(entry_a, entry_b, rev: str):
    """(name, sub-name, verdict) per output of one entry.  Outputs are paired by
    sub-name as they arrive; one that only one tree made is reported as such."""
    pending = ({}, {})
    for frames in zip_longest(entry_a, entry_b):
        for side, frame in zip(pending, frames):
            if frame is not None:
                side[frame[0]["name"], frame[0]["sub"]] = frame
        for key in [key for key in pending[0] if key in pending[1]]:
            yield *key, _difference(pending[0].pop(key), pending[1].pop(key), rev)
    for side, where in zip(pending, (rev, "this tree")):
        for key, (head, payload) in side.items():
            yield *key, (f"{where} raised {payload.decode()}" if head["kind"] == "error"
                         else f"only in {where}")


def against(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="safecut-identity-") as tmp:
        done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                              capture_output=True)
        if done.returncode:
            print(f"identity: git archive {rev!r} failed: {done.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        procs = [subprocess.Popen([sys.executable, __file__, "--manifest", str(tree)],
                                  stdout=subprocess.PIPE)
                 for tree in (Path(tmp), ROOT)]
        streams = [_frames(p.stdout) for p in procs]
        same = total = 0
        while outputs := list(_compare(*(_entry(s) for s in streams), rev)):
            for name, sub, verdict in outputs:
                print(f"{name}: {sub}: {verdict}", flush=True)
                same += verdict == "same"
                total += 1
        for tree, proc in zip((rev, "this tree"), procs):
            proc.stdout.close()
            if proc.wait():
                print(f"identity: the manifest process of {tree} exited {proc.returncode}",
                      file=sys.stderr)
                total += 1
    print(f"{same} of {total} outputs same")
    return 0 if total and same == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare safecut's outputs on a fixed manifest with those of a git revision")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV", help="git revision to compare with")
    group.add_argument("--manifest", type=Path, help=argparse.SUPPRESS)   # one tree's process
    args = parser.parse_args(argv)
    if args.manifest is not None:
        _emit_manifest(args.manifest)
        return 0
    return against(args.against)


if __name__ == "__main__":
    sys.exit(main())

"""Output checks of the benchmark.

Every check is an invariant that any correct build of safecut satisfies, so
none of them compares against values recorded from one commit or one seed.
A faster build that changes results only at roundoff level passes them all.
"""

from __future__ import annotations

import hashlib

import numpy as np

H_TOL_MM = 1e-9      # logged h against h recomputed from the logged x
BREACH_MM = 1e-3     # the CLI's violation tolerance (exit code 1)
QP_REL_TOL = 1e-3    # filter velocity against the brute-force oracle

LOG_FIELDS = ("t", "q", "qdot", "x", "xdot", "xdot_des", "xdot_safe",
              "u", "d", "edot", "h", "active_rows", "gate")
_FLOAT_FIELDS = LOG_FIELDS[:-2]


def log_digest(log) -> bytes:
    """sha256 over every logged array, its dtype and shape, and the barrier names."""
    digest = hashlib.sha256(repr(list(log.barrier_names)).encode())
    for field in LOG_FIELDS:
        a = np.ascontiguousarray(getattr(log, field))
        digest.update(f"{field}:{a.dtype}:{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.digest()


def expected_barriers(spec, x: np.ndarray) -> dict:
    """h per barrier name recomputed from tip positions x, (n, 3) in mm."""
    out = {}
    for i, tumor in enumerate(spec.tumors):
        out[f"tumor{i}"] = np.linalg.norm(x - tumor.center, axis=1) - tumor.margin
    for j, shell in enumerate(spec.shells):
        out[f"shell{j}"] = shell.outer_radius - np.linalg.norm(x - shell.center, axis=1)
    return out


def log_problems(log, spec, steps: int) -> list:
    """Violated invariants of one closed-loop log; empty when all hold.

    - the log has the step count the spec's fixed duration implies;
    - every float column is finite;
    - every h column equals the barrier recomputed from the logged x;
    - steps without an active row pass xdot_des through bit for bit.
    """
    if len(log) != steps:
        return [f"log has {len(log)} steps, expected {steps}"]
    problems = [f"non-finite values in {f}" for f in _FLOAT_FIELDS
                if not np.all(np.isfinite(getattr(log, f)))]
    if problems:
        return problems
    expected = expected_barriers(spec, log.x)
    if list(log.barrier_names) != list(expected):
        return [f"barrier names {log.barrier_names} != {list(expected)}"]
    for i, name in enumerate(log.barrier_names):
        err = float(np.max(np.abs(log.h[:, i] - expected[name]), initial=0.0))
        if err > H_TOL_MM:
            problems.append(f"h_{name} deviates {err:.3e} mm from ||x - c|| geometry")
    idle = log.active_rows == 0
    if log.xdot_safe[idle].tobytes() != log.xdot_des[idle].tobytes():
        problems.append("an idle step changed xdot_des")
    return problems


def worst_h_after_gate(log, spec) -> float:
    """Smallest h from the gate's first engagement (the whole run when ungated).

    A gated run whose gate never engaged has no steps after the gate.
    """
    start = 0
    if spec.filter.activation_gate:
        engaged = np.nonzero(log.gate)[0]
        start = int(engaged[0]) if engaged.size else len(log)
    return float(log.h[start:].min(initial=np.inf))


def breached(log, spec) -> bool:
    """A filtered run that dips below -BREACH_MM after the gate (CLI exit 1)."""
    return spec.filter.enabled and worst_h_after_gate(log, spec) < -BREACH_MM


def classify_qp(expected, got) -> str:
    """'ok', 'failed' (feasible program rejected) or 'incorrect'.

    expected is the oracle's velocity or None for an infeasible program;
    got is the filter's velocity or None when it raised InfeasibleQPError.
    """
    if expected is None:
        return "ok" if got is None else "incorrect"
    if got is None:
        return "failed"
    scale = max(1.0, float(np.linalg.norm(expected)))
    return "ok" if float(np.linalg.norm(got - expected)) / scale <= QP_REL_TOL else "incorrect"

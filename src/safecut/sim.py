"""Closed-loop simulation: reference -> desired velocity -> filter -> plant.

Each control step is strictly causal.  At step k the loop reads the reference
sample, forms the desired tip velocity, assembles the barrier rows at the
current tip position, filters the velocity, runs the model-free controller,
adds the (unlogged) disturbance to the applied input, and integrates the
plant one RK4 interval.  Everything observable is appended to the log before
the state advances, so two runs of the same scenario produce bit-identical
logs.

The log also round-trips through a versioned CSV schema, and three plain
data files per scenario mirror the figures a run is meant to reproduce:
the 3-D path with markings and boundaries, barrier values over time, and
the velocity triplet (desired, safe, actual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import control as ctl
from . import safety
from .dynamics import SingularMassError, rk4_step
from .kinematics import tip_kinematics
from .scenario import ReferenceTrajectory, ScenarioSpec

_CSV_VERSION = "# safecut-log v1"


class EmptyLogError(ValueError):
    """summarize was given a log with no recorded steps."""


class PlantDivergedError(RuntimeError):
    """The plant state stopped being finite during a run.

    step, t, q, qdot: the last logged step whose joint state was finite
    (step 0 if none was); integrating on from it gave non-finite angles.
    """

    def __init__(self, step: int, t: float, q: tuple, qdot: tuple):
        super().__init__(f"plant diverged: the joint state stopped being finite after "
                         f"step {step} (t = {t:g} s, q = {q}, qdot = {qdot})")
        self.step, self.t, self.q, self.qdot = step, t, q, qdot


@dataclass
class TrajectoryLog:
    """Per-step record arrays of one run.

    h has one column per barrier, ordered tumors first then shells, named in
    barrier_names.  d is the disturbance that was added to the applied input;
    u is the controller output before that addition.
    """

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    xdot_des: np.ndarray
    xdot_safe: np.ndarray
    u: np.ndarray
    d: np.ndarray
    edot: np.ndarray
    h: np.ndarray
    active_rows: np.ndarray
    gate: np.ndarray
    barrier_names: list

    def __len__(self):
        return len(self.t)


@dataclass
class SafetyReport:
    """Headline numbers of a run."""

    min_h: dict
    first_violation_time: Optional[float]
    max_tracking_error: float
    decay_rate: float
    path_completion: float
    deviation_integral: float


def desired_velocity(x, t: float, ref: ReferenceTrajectory, kp_gain: float):
    """Feedforward plus proportional pull toward the reference sample, as floats."""
    p_ref, v_ref = ref.sample(t)
    (px, py, pz), (vx, vy, vz) = p_ref.tolist(), v_ref.tolist()
    return (vx + kp_gain * (px - x[0]), vy + kp_gain * (py - x[1]), vz + kp_gain * (pz - x[2]))


def _barrier_names(spec: ScenarioSpec) -> list:
    return [f"tumor{i}" for i in range(len(spec.tumors))] + \
           [f"shell{j}" for j in range(len(spec.shells))]


# t, then nine 3-vectors in TrajectoryLog field order; the h columns follow.
# The CSV file uses the same column order.
_VECTOR_FIELDS = ("q", "qdot", "x", "xdot", "xdot_des", "xdot_safe", "u", "d", "edot")
_H_COLUMN = 1 + 3 * len(_VECTOR_FIELDS)


def _log_from_columns(data: np.ndarray, active_rows: np.ndarray, gate: np.ndarray,
                      names: list) -> TrajectoryLog:
    """TrajectoryLog whose float fields are column views of data."""
    vectors = {f: data[:, 1 + 3 * i:4 + 3 * i] for i, f in enumerate(_VECTOR_FIELDS)}
    return TrajectoryLog(t=data[:, 0], h=data[:, _H_COLUMN:_H_COLUMN + len(names)],
                         active_rows=active_rows, gate=gate, barrier_names=names, **vectors)


def run(spec: ScenarioSpec) -> TrajectoryLog:
    """Simulate the scenario over its full duration at fixed dt.

    One control step evaluates the kinematics (tip position and Jacobian),
    every barrier value and the filter rows once, in plain floats; the
    controller reuses the step's Jacobian, and each step is written to the
    log as one row.  Raises PlantDivergedError when the joint state stops
    being finite.
    """
    ref = spec.reference()
    dt = spec.dt
    n = int(round(spec.run_duration(ref) / dt)) + 1
    safe_set = spec.safe_set()
    fp, cp, kin, dyn = spec.filter, spec.controller, spec.kinematics, spec.dynamics
    names = _barrier_names(spec)
    data = np.zeros((n, _H_COLUMN + len(names)))
    active_rows = np.zeros(n, dtype=np.int64)
    gate = np.zeros(n, dtype=bool)

    q, qdot = spec.initial_q, spec.initial_qdot
    gate_engaged = not (fp.enabled and fp.activation_gate)
    quiet = spec.disturbance.waveform == "none"
    d = (0.0, 0.0, 0.0)

    for k in range(n):
        t = k * dt
        x, J = tip_kinematics(*q, kin)
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
        v1, v2, v3 = qdot
        xdot = (j00 * v1 + j01 * v2 + j02 * v3,
                j10 * v1 + j11 * v2 + j12 * v3,
                j20 * v1 + j21 * v2 + j22 * v3)
        v_d = desired_velocity(x, t, ref, spec.kp_gain)
        values = safety.barrier_values(x, safe_set)

        v_s = v_d
        if fp.enabled:
            selected = safety.selected_barrier_values(x, safe_set, fp, values)
            if not gate_engaged and all(h >= 0.0 for _, _, h, _ in selected):
                gate_engaged = True
            if gate_engaged and selected:
                rows = safety.constraint_rows(selected, fp.alpha)
                v_s = safety.safety_filter(v_d, rows).tolist()
                active_rows[k] = safety.count_active_rows(v_s, rows)
                gate[k] = True

        edot = ctl.velocity_error(J, xdot, v_s, cp)
        u = ctl.control_law(edot, cp)
        if not quiet:
            d = ctl.disturbance(t, spec.disturbance).tolist()
        data[k] = (t, *q, *qdot, *x, *xdot, *v_d, *v_s, *u, *d, *edot, *values[0])

        if k + 1 < n:
            try:
                q, qdot = rk4_step(q, qdot, (u[0] + d[0], u[1] + d[1], u[2] + d[2]), dt, dyn)
            except SingularMassError as exc:
                # at finite angles the arm itself is singular; else the state blew up
                if math.isfinite(exc.theta2) and math.isfinite(exc.theta3):
                    raise
                while k > 0 and not np.isfinite(data[k, 1:7]).all():
                    k -= 1
                t, *state = data[k, :7].tolist()
                raise PlantDivergedError(k, t, tuple(state[:3]), tuple(state[3:])) from exc
    return _log_from_columns(data, active_rows, gate, names)


def gate_engage_time(log: TrajectoryLog) -> Optional[float]:
    """Time of the first step with the filter engaged, None if it never was."""
    idx = np.nonzero(log.gate)[0]
    return float(log.t[idx[0]]) if idx.size else None


def summarize(log: TrajectoryLog, spec: ScenarioSpec,
              completion_tol: float = 0.5) -> SafetyReport:
    """Condense a log into the report numbers.

    path_completion counts reference samples approached within
    completion_tol [mm] at any time; reference samples pushed inside a
    keep-out sphere are unreachable by a safe run and lower the fraction.

    With an activation gate the run legitimately starts outside the safe
    set, so barrier statistics begin at the engagement step.
    """
    if len(log) == 0:
        raise EmptyLogError("cannot summarize an empty log")
    start = 0
    if log.h.size and spec.filter.enabled and spec.filter.activation_gate:
        idx = np.nonzero(log.gate)[0]
        if idx.size:
            start = int(idx[0])
    h = log.h[start:]
    min_h = {name: float(h[:, i].min()) for i, name in enumerate(log.barrier_names)}
    viol = np.nonzero((h < 0.0).any(axis=1))[0] if h.size else np.array([])
    first_violation = float(log.t[start + viol[0]]) if viol.size else None
    tracking = np.linalg.norm(log.xdot - log.xdot_safe, axis=1)
    try:
        decay = ctl.measure_decay_rate(log.t, log.edot)
    except ctl.InsufficientTransientError:
        decay = math.nan
    ref = spec.reference()
    # samples farther than completion_tol count as missed whatever their
    # distance, so the search is bounded there (inf beyond it)
    dist, _ = cKDTree(log.x).query(ref.pos,
                                   distance_upper_bound=np.nextafter(completion_tol, np.inf))
    completion = float(np.mean(dist <= completion_tol))
    deviation = float(np.trapezoid(np.linalg.norm(log.xdot_safe - log.xdot_des, axis=1),
                                   log.t))
    return SafetyReport(
        min_h=min_h,
        first_violation_time=first_violation,
        max_tracking_error=float(tracking.max()),
        decay_rate=decay,
        path_completion=completion,
        deviation_integral=deviation,
    )


# ---------------------------------------------------------------------------
# CSV round-trip

def _csv_columns(nb: int, names: list) -> list:
    cols = ["t_s",
            "d1_mm", "theta2_rad", "theta3_rad",
            "d1dot_mm_s", "theta2dot_rad_s", "theta3dot_rad_s",
            "x_mm", "y_mm", "z_mm",
            "xdot_mm_s", "ydot_mm_s", "zdot_mm_s",
            "xdot_des_x_mm_s", "xdot_des_y_mm_s", "xdot_des_z_mm_s",
            "xdot_safe_x_mm_s", "xdot_safe_y_mm_s", "xdot_safe_z_mm_s",
            "u_d1_gmm_s2", "u_th2_gmm2_s2", "u_th3_gmm2_s2",
            "d_d1_gmm_s2", "d_th2_gmm2_s2", "d_th3_gmm2_s2",
            "edot_d1_mm_s", "edot_th2_rad_s", "edot_th3_rad_s"]
    cols += [f"h_{name}_mm" for name in names]
    cols += ["active_rows", "gate"]
    return cols


def export_csv(log: TrajectoryLog, path) -> None:
    """Write the log; floats use shortest round-trip decimal form."""
    cols = _csv_columns(log.h.shape[1] if log.h.ndim == 2 else 0, log.barrier_names)
    with open(path, "w") as f:
        f.write(_CSV_VERSION + "\n")
        f.write(",".join(cols) + "\n")
        for k in range(len(log)):
            row = [log.t[k], *log.q[k], *log.qdot[k], *log.x[k], *log.xdot[k],
                   *log.xdot_des[k], *log.xdot_safe[k], *log.u[k], *log.d[k],
                   *log.edot[k], *log.h[k]]
            f.write(",".join(repr(float(v)) for v in row))
            f.write(f",{int(log.active_rows[k])},{int(log.gate[k])}\n")


def read_csv(path) -> TrajectoryLog:
    """Inverse of export_csv; raises ValueError on a foreign or damaged file."""
    with open(path) as f:
        version = f.readline().rstrip("\n")
        if version != _CSV_VERSION:
            raise ValueError(f"not a safecut log (header {version!r})")
        header = f.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    names = [c[2:-3] for c in header if c.startswith("h_") and c.endswith("_mm")]
    if _csv_columns(len(names), names) != header:
        raise ValueError("unexpected column layout")
    nb = len(names)
    data = np.array([[float(v) for v in r] for r in rows]) if rows else np.zeros((0, len(header)))
    return _log_from_columns(data, data[:, _H_COLUMN + nb].astype(np.int64),
                             data[:, _H_COLUMN + nb + 1].astype(bool), names)


# ---------------------------------------------------------------------------
# figure data files

def _circle_samples(center, radius, count=256) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(count) / count
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang),
                     np.full(count, center[2])], axis=1)


def export_plot_data(log: TrajectoryLog, spec: ScenarioSpec, out_dir) -> list:
    """Write scenario<id>_{path,barrier,velocity}.dat under out_dir.

    path: actual and reference trajectories, marking points with their
    unsafe flag, and boundary circles (cutting margins and depth shells)
    sampled in the marking plane.  barrier: every barrier value over time.
    velocity: desired, safe and actual tip velocity components.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sid = spec.scenario_id
    ref = spec.reference()
    written = []

    p = out / f"scenario{sid}_path.dat"
    with open(p, "w") as f:
        f.write(f"# scenario {sid} tip path, alpha = {spec.filter.alpha}\n")
        f.write("# section: actual  columns: t_s x_mm y_mm z_mm\n")
        for k in range(len(log)):
            f.write(f"{log.t[k]:.6f} {log.x[k, 0]:.6f} {log.x[k, 1]:.6f} {log.x[k, 2]:.6f}\n")
        f.write("\n# section: reference  columns: t_s x_mm y_mm z_mm\n")
        for k in range(len(ref.t)):
            f.write(f"{ref.t[k]:.6f} {ref.pos[k, 0]:.6f} {ref.pos[k, 1]:.6f} {ref.pos[k, 2]:.6f}\n")
        f.write("\n# section: markings  columns: loop point x_mm y_mm z_mm unsafe\n")
        for i, ms in enumerate(spec.markings):
            for j, (pt, bad) in enumerate(zip(ms.points, ms.unsafe)):
                f.write(f"{i} {j} {pt[0]:.6f} {pt[1]:.6f} {pt[2]:.6f} {int(bad)}\n")
        f.write("\n# section: boundary  columns: barrier x_mm y_mm z_mm\n")
        for i, tumor in enumerate(spec.tumors):
            for pt in _circle_samples(tumor.center, tumor.margin):
                f.write(f"tumor{i} {float(pt[0])!r} {float(pt[1])!r} {float(pt[2])!r}\n")
        for j, shell in enumerate(spec.shells):
            for pt in _circle_samples(shell.center, shell.outer_radius):
                f.write(f"shell{j} {float(pt[0])!r} {float(pt[1])!r} {float(pt[2])!r}\n")
    written.append(p)

    p = out / f"scenario{sid}_barrier.dat"
    with open(p, "w") as f:
        f.write(f"# scenario {sid} barrier values, alpha = {spec.filter.alpha}\n")
        f.write("# columns: t_s " + " ".join(f"h_{n}_mm" for n in log.barrier_names)
                + " gate\n")
        for k in range(len(log)):
            hs = " ".join(f"{v:.9f}" for v in log.h[k])
            f.write(f"{log.t[k]:.6f} {hs} {int(log.gate[k])}\n")
    written.append(p)

    p = out / f"scenario{sid}_velocity.dat"
    with open(p, "w") as f:
        f.write(f"# scenario {sid} tip velocities\n")
        f.write("# columns: t_s vdes_x vdes_y vdes_z vsafe_x vsafe_y vsafe_z "
                "vact_x vact_y vact_z  [mm/s]\n")
        for k in range(len(log)):
            vals = [*log.xdot_des[k], *log.xdot_safe[k], *log.xdot[k]]
            f.write(f"{log.t[k]:.6f} " + " ".join(f"{v:.6f}" for v in vals) + "\n")
    written.append(p)
    return written

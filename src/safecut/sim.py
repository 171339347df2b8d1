"""Closed-loop simulation: reference -> desired velocity -> filter -> plant.

Each control step is strictly causal.  At step k the loop reads the reference
sample, forms the desired tip velocity, assembles the barrier rows at the
current tip position, filters the velocity, runs the model-free controller,
adds the disturbance to the applied input, and integrates the plant one RK4
interval.  Everything observable is appended to the log before the state
advances, so two runs of the same scenario produce bit-identical logs.

The log also round-trips through a versioned CSV schema, and three plain
data files per scenario mirror the figures a run is meant to reproduce:
the 3-D path with markings and boundaries, barrier values over time, and
the velocity triplet (desired, safe, actual).
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import control as ctl
from . import safety
from .dynamics import rk4_step
from .kinematics import tip_kinematics
from .scenario import ScenarioSpec, reference_rows

_CSV_VERSION = "# safecut-log v1"


class PlantDivergedError(RuntimeError):
    """The plant state stopped being finite during a run.

    step, t, q, qdot: the last logged step, whose joint state is finite;
    one integration step on from it gave a non-finite state.
    """

    def __init__(self, step: int, t: float, q: tuple, qdot: tuple):
        super().__init__(f"plant diverged: the joint state stopped being finite after "
                         f"step {step} (t = {t:g} s, q = {q}, qdot = {qdot})")
        self.step, self.t, self.q, self.qdot = step, t, q, qdot


# float field of the log -> its CSV columns, in row order.  The run's row buffer
# and the CSV share this layout: h follows, then active_rows and gate.
_COLUMNS = {
    "t": ("t_s",),
    "q": ("d1_mm", "theta2_rad", "theta3_rad"),
    "qdot": ("d1dot_mm_s", "theta2dot_rad_s", "theta3dot_rad_s"),
    "x": ("x_mm", "y_mm", "z_mm"),
    "xdot": ("xdot_mm_s", "ydot_mm_s", "zdot_mm_s"),
    "xdot_des": ("xdot_des_x_mm_s", "xdot_des_y_mm_s", "xdot_des_z_mm_s"),
    "xdot_safe": ("xdot_safe_x_mm_s", "xdot_safe_y_mm_s", "xdot_safe_z_mm_s"),
    "u": ("u_d1_gmm_s2", "u_th2_gmm2_s2", "u_th3_gmm2_s2"),
    "d": ("d_d1_gmm_s2", "d_th2_gmm2_s2", "d_th3_gmm2_s2"),
    "edot": ("edot_d1_mm_s", "edot_th2_rad_s", "edot_th3_rad_s"),
}
_BLOCK_ROWS = 1024   # rows held as Python objects at a time by _write_rows
_CIRCLE_POINTS = 256    # samples per boundary circle in the path data file


def _csv_columns(barrier_names: list) -> list:
    return [c for names in _COLUMNS.values() for c in names] + \
           [f"h_{name}_mm" for name in barrier_names] + ["active_rows", "gate"]


def _with_column_views(cls):
    """Give cls one property per log field: that field's column view of data."""
    start, views = 0, {}
    for field, names in _COLUMNS.items():
        views[field] = start if len(names) == 1 else slice(start, start + len(names))
        start += len(names)
    views.update(h=slice(start, -2), active_rows=-2, gate=-1)
    for field, cols in views.items():
        setattr(cls, field, property(lambda log, cols=cols: log.data[:, cols]))
    return cls


@_with_column_views
@dataclass
class TrajectoryLog:
    """Per-step record of one run: one row of data per control step.

    data is the (steps, 30 + barriers) float table the run writes and the CSV
    holds, in _csv_columns order.  Its column views are the fields t (steps,),
    the 3-vectors q through edot (steps, 3), h (steps, barriers), one column
    per barrier named in barrier_names, tumors first then shells, and the
    filter's active-row count active_rows and its engagement flag gate (1.0
    or 0.0), both (steps,).  d is the disturbance added to the applied input;
    u is the controller output before that addition.
    """

    data: np.ndarray
    barrier_names: list

    def __len__(self):
        return len(self.data)


@dataclass
class SafetyReport:
    """Headline numbers of a run; enclosure_turns and radial_excess hold one
    entry per marking loop (see _cut_measures), none without tumors.  Each
    barrier's min_h and violations count from its first step with h >= 0;
    a barrier never satisfied has min_h inf."""

    min_h: dict
    first_violation_time: Optional[float]
    max_tracking_error: float
    decay_rate: float
    enclosure_turns: list
    radial_excess: list
    deviation_integral: float


def desired_velocity(x, p, v, kp_gain: float):
    """Feedforward v plus proportional pull from x toward the reference position p, as floats."""
    return (v[0] + kp_gain * (p[0] - x[0]), v[1] + kp_gain * (p[1] - x[1]),
            v[2] + kp_gain * (p[2] - x[2]))


def run(spec: ScenarioSpec) -> TrajectoryLog:
    """Simulate the scenario over its full duration at fixed dt.

    One control step reads its reference row and evaluates the kinematics
    (tip position and Jacobian), the barrier table (every h, the rows' normals)
    and the filter (safe velocity, active-row count) once, in plain floats; the
    controller reuses the step's Jacobian, and the step is one row of the log.
    Raises PlantDivergedError when the joint state stops being finite.
    """
    dt = spec.dt
    n = int(round(spec.run_duration() / dt)) + 1
    safe_set = spec.safe_set
    fp, kin, dyn, dist = spec.filter, spec.kinematics, spec.dynamics, spec.disturbance
    alpha, kp_gain, k_d, enabled = fp.alpha, spec.kp_gain, spec.k_d, fp.enabled
    columns = len(_csv_columns(safe_set.names))
    log = TrajectoryLog(np.zeros((n, columns)), safe_set.names)
    # one row in _csv_columns order, packed into the C-contiguous float64 buffer
    row = struct.Struct(f"{columns}d")
    pack, data, size = row.pack_into, log.data, row.size
    # the step's callees, looked up once per run
    barrier_values, filter_rows = safety.selected_barrier_values, safety.filter_rows
    velocity_error, control_law, disturbance = ctl.velocity_error, ctl.control_law, ctl.disturbance

    q, qdot = spec.initial_q, spec.initial_qdot
    gate_engaged = not (enabled and fp.activation_gate)

    for k, (p_ref, v_ref) in zip(range(n), reference_rows(*spec.path, spec.speed, dt)):
        t = k * dt
        x, J = tip_kinematics(*q, kin)
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
        v1, v2, v3 = qdot
        xdot = (j00 * v1 + j01 * v2 + j02 * v3,
                j10 * v1 + j11 * v2 + j12 * v3,
                j20 * v1 + j21 * v2 + j22 * v3)
        v_d = desired_velocity(x, p_ref, v_ref, kp_gain)
        h, normals = barrier_values(x, safe_set, enabled)

        v_s, active, gated = v_d, 0, 0
        if not gate_engaged and all(hb >= 0.0 for hb in h):
            gate_engaged = True
        if gate_engaged and normals:
            v_s, active = filter_rows(v_d, normals, [-alpha * hb for hb in h])
            gated = 1

        edot = velocity_error(J, xdot, v_s)
        u = control_law(edot, k_d)
        d = disturbance(t, dist)
        pack(data, k * size, t, *q, *qdot, *x, *xdot, *v_d, *v_s, *u, *d, *edot, *h,
             active, gated)

        if k + 1 < n:
            try:
                q1, qdot1 = rk4_step(q, qdot, (u[0] + d[0], u[1] + d[1], u[2] + d[2]), dt, dyn)
            except ValueError as exc:
                # math.cos raises on a stage angle gone to inf; a nan one reaches the test below
                raise PlantDivergedError(k, t, tuple(q), qdot) from exc
            # one sum tests all six values: it is nan or inf if any of them is
            (a1, a2, a3), (b1, b2, b3) = q1, qdot1
            if not math.isfinite(a1 + a2 + a3 + (b1 + b2 + b3)):
                raise PlantDivergedError(k, t, tuple(q), qdot)
            q, qdot = q1, qdot1
    return log


def gate_engage_time(log: TrajectoryLog) -> Optional[float]:
    """Time of the first step with the filter engaged, None if it never was."""
    return float(log.t[np.argmax(log.gate)]) if log.gate.any() else None


def _cut_measures(log: TrajectoryLog, spec: ScenarioSpec):
    """Per marking loop, the enclosure turns and the radial excess of the cut.

    A loop's window is its stretch of reference time: arc / speed at the
    waypoints of its first point and of its return there, on spec.path.
    Turns is the angle the tip sweeps about the loop's tumor centre c, in
    the best-fit plane of the loop's points, over 2 pi: 0 for an empty
    window, nan if they span no plane.  The excess ||x - c|| - margin [mm]
    is (p50, p95, max), nan if empty.
    """
    turns, excess = [], []
    _, arcs = spec.path
    first = 1                        # waypoint of the loop's first point
    for ms in spec.markings:
        start, stop = np.searchsorted(log.t, arcs[[first, first + len(ms.points)]] / spec.speed)
        first += len(ms.points) + 1
        tumor = spec.tumors[ms.tumor_index]
        r = log.x[start:stop] - tumor.center
        rel = ms.points - ms.points.mean(axis=0)
        _, _, (e1, e2, _) = np.linalg.svd(rel)
        if np.cross(e1, e2) @ np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0) < 0.0:
            e2 = -e2                 # the loop turns from e1 toward e2
        angle = np.unwrap(np.arctan2(r @ e2, r @ e1))
        turns.append(float(np.diff(angle).sum()) / math.tau
                     if np.linalg.matrix_rank(rel) > 1 else math.nan)
        dist = np.linalg.norm(r, axis=1) - tumor.margin
        excess.append((*np.percentile(dist, (50, 95)).tolist(), float(dist.max()))
                      if dist.size else (math.nan,) * 3)
    return turns, excess


def summarize(log: TrajectoryLog, spec: ScenarioSpec) -> SafetyReport:
    """Condense a log into the report numbers.

    Each barrier's statistics begin at its first step with h >= 0, filter on
    or off: the first step for a tumor, whose keep-out the initial tip is
    outside of, and the step the tip enters for a shell it starts outside of.
    """
    # inf before a barrier's first satisfied step, so it counts toward no statistic
    h = np.where(np.logical_or.accumulate(log.h >= 0.0, axis=0), log.h, math.inf)
    min_h = dict(zip(log.barrier_names, h.min(axis=0).tolist()))
    viol = np.flatnonzero((h < 0.0).any(axis=1))
    first_violation = float(log.t[viol[0]]) if viol.size else None
    tracking = np.linalg.norm(log.xdot - log.xdot_safe, axis=1)
    turns, excess = _cut_measures(log, spec) if spec.tumors else ([], [])
    deviation = float(np.trapezoid(np.linalg.norm(log.xdot_safe - log.xdot_des, axis=1),
                                   log.t))
    return SafetyReport(
        min_h=min_h,
        first_violation_time=first_violation,
        max_tracking_error=float(tracking.max()),
        decay_rate=ctl.measure_decay_rate(log.t, log.edot),
        enclosure_turns=turns,
        radial_excess=excess,
        deviation_integral=deviation,
    )


# ---------------------------------------------------------------------------
# CSV round-trip

def _write_rows(f, fmt: str, table: np.ndarray) -> None:
    """One line fmt % row per row of a 2-D table, converted a block at a time."""
    for start in range(0, len(table), _BLOCK_ROWS):
        f.writelines(fmt % tuple(row) for row in table[start:start + _BLOCK_ROWS].tolist())


def export_csv(log: TrajectoryLog, path) -> None:
    """Write the log; floats use shortest round-trip decimal form."""
    header = _csv_columns(log.barrier_names)
    with open(path, "w") as f:
        f.write(_CSV_VERSION + "\n" + ",".join(header) + "\n")
        _write_rows(f, "%r," * (len(header) - 2) + "%d,%d\n", log.data)


def read_csv(path) -> TrajectoryLog:
    """Inverse of export_csv; raises ValueError on a foreign or damaged file."""
    with open(path) as f:
        version = f.readline().rstrip("\n")
        if version != _CSV_VERSION:
            raise ValueError(f"not a safecut log (header {version!r})")
        header = f.readline().rstrip("\n").split(",")
        names = [c[2:-3] for c in header if c.startswith("h_") and c.endswith("_mm")]
        if _csv_columns(names) != header:
            raise ValueError("unexpected column layout")
        with warnings.catch_warnings():
            # numpy warns about a file with no rows, which is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
    if not len(data):
        raise ValueError("no rows: a run logs at least its first step")
    # loadtxt refuses a ragged body; this refuses rows that are all too short or long
    if data.shape[1] != len(header):
        raise ValueError(f"rows of {data.shape[1]} fields under {len(header)} columns")
    return TrajectoryLog(data, names)


# ---------------------------------------------------------------------------
# figure data files

def _circle_samples(center, radius) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang),
                     np.full(_CIRCLE_POINTS, center[2])], axis=1)


def export_plot_data(log: TrajectoryLog, spec: ScenarioSpec, out_dir) -> list:
    """Write scenario<id>_{path,barrier,velocity}.dat under out_dir.

    path: actual trajectory, the reference waypoints of spec.path (from the
    initial tip) with the time the reference reaches each, marking points
    with their unsafe flag, and boundary circles (cutting margins and depth
    shells) sampled in the marking plane.  barrier: every barrier value over time.
    velocity: desired, safe and actual tip velocity components.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sid = spec.scenario_id
    waypoints, arcs = spec.path
    paths = [out / f"scenario{sid}_{kind}.dat" for kind in ("path", "barrier", "velocity")]

    with open(paths[0], "w") as f:
        f.write(f"# scenario {sid} tip path, alpha = {spec.filter.alpha}\n")
        f.write("# section: actual  columns: t_s x_mm y_mm z_mm\n")
        _write_rows(f, "%.6f %.6f %.6f %.6f\n", np.column_stack((log.t, log.x)))
        f.write("\n# section: reference  columns: t_s x_mm y_mm z_mm\n")
        _write_rows(f, "%r %r %r %r\n", np.column_stack((arcs / spec.speed, waypoints)))
        f.write("\n# section: markings  columns: loop point x_mm y_mm z_mm unsafe\n")
        for i, ms in enumerate(spec.markings):
            _write_rows(f, f"{i} %d %.6f %.6f %.6f %d\n",
                        np.column_stack((np.arange(len(ms.points)), ms.points, ms.unsafe)))
        f.write("\n# section: boundary  columns: barrier x_mm y_mm z_mm\n")
        safe_set = spec.safe_set
        for name, (*center, radius, _) in zip(safe_set.names, safe_set.barriers):
            _write_rows(f, name + " %r %r %r\n", _circle_samples(center, radius))

    with open(paths[1], "w") as f:
        f.write(f"# scenario {sid} barrier values, alpha = {spec.filter.alpha}\n")
        f.write("# columns: t_s " + " ".join(f"h_{n}_mm" for n in log.barrier_names)
                + " gate\n")
        _write_rows(f, "%.6f " + " ".join(["%.9f"] * len(log.barrier_names)) + " %d\n",
                    np.column_stack((log.t, log.h, log.gate)))

    with open(paths[2], "w") as f:
        f.write(f"# scenario {sid} tip velocities\n")
        f.write("# columns: t_s vdes_x vdes_y vdes_z vsafe_x vsafe_y vsafe_z "
                "vact_x vact_y vact_z  [mm/s]\n")
        _write_rows(f, "%.6f" + " %.6f" * 9 + "\n",
                    np.column_stack((log.t, log.xdot_des, log.xdot_safe, log.xdot)))
    return paths

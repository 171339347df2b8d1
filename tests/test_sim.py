"""Closed-loop simulation, logging, summary metrics and file round-trips."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from safecut import control, safety, sim
from safecut.control import DisturbanceSpec
from safecut.dynamics import DynamicParams, rk4_step
from safecut.kinematics import JointConfig, tip_kinematics
from safecut.safety import DepthShell, FilterParams, SafeSetSpec, TumorSpec
from safecut.scenario import (MarkingSet, ScenarioSpec, generate_marking_points,
                              reference_rows, reference_steps, reference_waypoints,
                              scenario_catalog)

TUMOR = TumorSpec(center=(0.0, 6.0, 30.0), margin=4.0)


def _grid(waypoints, arcs, speed, dt):
    """The reference on its grid, sampled with numpy apart from reference_rows:
    t, positions and feedforward velocities of rows 0 to reference_steps."""
    seg = np.diff(waypoints, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    kept = np.flatnonzero(seg_len >= 1e-12)
    t = np.arange(reference_steps(float(arcs[-1]), speed, dt) + 1) * dt
    s = np.minimum(t * speed, arcs[-1])
    idx = kept[np.maximum(np.searchsorted(arcs[kept], s, side="right") - 1, 0)]
    direction = seg[idx] / seg_len[idx, None]
    return t, waypoints[idx] + (s - arcs[idx])[:, None] * direction, direction * speed


def _small_spec(**kw):
    defaults = dict(
        scenario_id=1,
        tumors=[TUMOR],
        shells=[],
        markings=[generate_marking_points(TUMOR, 3, (0, 0, 1))],
        filter=FilterParams(alpha=0.4),
        dynamics=DynamicParams(gravity=(0.0, 0.0, 0.0)),
        initial_q=JointConfig(13.0, 0.0, 0.0),
        speed=4.0,
        duration=2.0,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


@pytest.fixture(scope="module")
def small_run():
    spec = _small_spec()
    return spec, sim.run(spec)


def test_log_shapes_and_time_grid(small_run):
    spec, log = small_run
    n = int(round(spec.duration / spec.dt)) + 1
    assert len(log) == n
    np.testing.assert_allclose(np.diff(log.t), spec.dt, atol=1e-12)
    assert log.h.shape == (n, 1)
    assert log.barrier_names == ["tumor0"]
    assert log.q.shape == log.xdot.shape == (n, 3)


def test_log_positions_consistent_with_joints(small_run):
    spec, log = small_run
    for k in (0, len(log) // 2, len(log) - 1):
        x, _ = tip_kinematics(*log.q[k])
        np.testing.assert_allclose(x, log.x[k], atol=1e-12)


def test_initial_record_matches_spec(small_run):
    spec, log = small_run
    np.testing.assert_array_equal(log.q[0], spec.initial_q)
    np.testing.assert_array_equal(log.qdot[0], np.zeros(3))


def test_desired_velocity_formula():
    ms = generate_marking_points(TUMOR, 3, (0, 0, 1))
    p0, v0 = next(reference_rows(*reference_waypoints([ms], (0.0, 0.0, 43.0)), 2.0, 1e-3))
    p0, v0 = np.array(p0), np.array(v0)
    x = np.array([1.0, -2.0, 40.0])
    v = sim.desired_velocity(x, p0.tolist(), v0.tolist())
    np.testing.assert_allclose(v, v0 + sim.KP_GAIN * (p0 - x), atol=1e-12)


def test_reference_rows_clamp_past_end():
    ms = generate_marking_points(TUMOR, 4, (0, 0, 1))
    waypoints, arcs = reference_waypoints([ms], (0.0, 0.0, 43.0))
    t, pos, vel = _grid(waypoints, arcs, 2.0, 1e-3)
    m = len(t)
    assert len(np.unique(vel, axis=0)) == len(waypoints) - 1     # a row on every segment
    rows = list(islice(reference_rows(waypoints, arcs, 2.0, 1e-3), m + 5000))
    np.testing.assert_array_equal([p for p, _ in rows[:m]], pos)
    np.testing.assert_array_equal([v for _, v in rows[:m]], vel)
    assert np.any(vel[-1] != 0.0)
    # past the end: the final point, no feedforward
    np.testing.assert_array_equal([p for p, _ in rows[m:]], np.tile(pos[-1], (5000, 1)))
    np.testing.assert_array_equal([v for _, v in rows[m:]], np.zeros((5000, 3)))


def test_logged_desired_velocity_matches_reference_rows():
    # vel[k] + kp (pos[k] - x_k) on the grid; past the reference's
    # end the final point with zero feedforward
    spec = _small_spec(duration=None, settle=0.3)
    _, pos, vel = _grid(*spec.path, spec.speed, spec.dt)
    log = sim.run(spec)
    m = len(pos)
    assert len(log) > m
    k = np.arange(len(log))
    on_grid = (k < m)[:, None]
    idx = np.minimum(k, m - 1)
    expected = np.where(on_grid, vel[idx], 0.0) + sim.KP_GAIN * (pos[idx] - log.x)
    np.testing.assert_array_equal(log.xdot_des, expected)


def test_logged_sinusoid_disturbance_matches_numpy_form():
    dist = DisturbanceSpec(waveform="sinusoid", amplitude=(60.0, 120.0, 90.0),
                           frequency=2.5, seed=11)
    spec = _small_spec(disturbance=dist, duration=1.0)
    log = sim.run(spec)
    amp = np.array(dist.amplitude)
    expected = amp * np.sin(2.0 * np.pi * dist.frequency * log.t[:, None] + np.array(dist.phases))
    # within 8 ulps of the amplitude: a vectorised sine may round unlike math.sin
    np.testing.assert_allclose(log.d, expected, rtol=0.0, atol=8 * np.finfo(float).eps * amp.max())
    assert np.abs(log.d).max() > 0.5 * amp.max()


def test_each_logged_step_is_wired_to_its_neighbours():
    # from the log alone, bit for bit: row k's tip and velocity error from its q, its input
    # from that edot, and row k + 1's state one RK4 step on from row k with d added to u
    dist = DisturbanceSpec(waveform="sinusoid", amplitude=(80.0, 150.0, 120.0), frequency=1.5,
                           seed=5)
    spec = replace(scenario_catalog(4), duration=2.0, disturbance=dist)
    log = sim.run(spec)
    q, qdot, xdot, xdot_safe, u, d, edot = (getattr(log, f).tolist() for f in
                                            ("q", "qdot", "xdot", "xdot_safe", "u", "d", "edot"))
    x_k, edot_k, u_k, next_q, next_qdot = ([] for _ in range(5))
    for k in range(len(log)):
        x, J = tip_kinematics(*q[k])
        x_k.append(x)
        edot_k.append(control.velocity_error(J, xdot[k], xdot_safe[k]))
        u_k.append(control.control_law(edot[k], spec.k_d))
        q1, qdot1 = rk4_step(q[k], qdot[k], [a + b for a, b in zip(u[k], d[k])], spec.dt,
                             spec.dynamics)
        next_q.append(q1)
        next_qdot.append(qdot1)

    def differ(expected, logged):    # per row, compared as bit patterns
        return (np.array(expected).view(np.uint64) != logged.copy().view(np.uint64)).any(axis=1)

    bad = differ(x_k, log.x) | differ(edot_k, log.edot) | differ(u_k, log.u)
    bad[:-1] |= differ(next_q[:-1], log.q[1:]) | differ(next_qdot[:-1], log.qdot[1:])
    assert len(log) == 2001 and log.gate.any() and np.abs(log.d).max() > 50.0
    assert not bad.any(), f"{bad.sum()} of {len(log)} rows mismatch, first {np.argmax(bad)}"


def test_inactive_steps_pass_desired_velocity_through(small_run):
    _, log = small_run
    idle = log.active_rows == 0
    assert idle.any()
    np.testing.assert_array_equal(log.xdot_safe[idle], log.xdot_des[idle])


def test_constrained_steps_modify_velocity(small_run):
    _, log = small_run
    busy = log.active_rows > 0
    assert busy.any()
    diffs = np.linalg.norm(log.xdot_safe[busy] - log.xdot_des[busy], axis=1)
    assert diffs.max() > 0.1


def test_obstacle_free_run_is_transparent():
    spec = _small_spec(tumors=[], duration=1.0)
    log = sim.run(spec)
    np.testing.assert_array_equal(log.xdot_safe, log.xdot_des)
    assert log.h.shape == (len(log), 0)
    report = sim.summarize(log, spec)
    assert report.deviation_integral == 0.0
    assert report.min_h == {}
    assert report.first_violation_time is None
    assert report.enclosure_turns == report.radial_excess == []


def test_summary_matches_log(small_run):
    spec, log = small_run
    report = sim.summarize(log, spec)
    assert report.min_h["tumor0"] == float(log.h[:, 0].min())
    assert report.first_violation_time is None
    assert report.max_tracking_error == pytest.approx(
        float(np.linalg.norm(log.xdot - log.xdot_safe, axis=1).max()))
    assert report.deviation_integral > 0.0


def test_cut_measures_match_brute_force():
    # the full-length run of the small spec: approach, then the 3-point loop
    spec = _small_spec(duration=None)
    log = sim.run(spec)
    report = sim.summarize(log, spec)
    pts, c = spec.markings[0].points, TUMOR.center
    start = math.dist(pts[0], log.x[0]) / spec.speed
    end = start + sum(math.dist(a, b) for a, b in zip(pts, [*pts[1:], pts[0]])) / spec.speed
    angles, dists = [], []
    for t, x in zip(log.t, log.x):
        if start <= t < end:
            angles.append(math.atan2(x[1] - c[1], x[0] - c[0]))   # the loop lies in z = 30
            dists.append(math.dist(x, c) - TUMOR.margin)
    swept = sum((b - a + math.pi) % (2.0 * math.pi) - math.pi
                for a, b in zip(angles, angles[1:]))
    assert len(dists) > 1000
    assert report.enclosure_turns == [pytest.approx(swept / (2.0 * math.pi), abs=1e-9)]
    assert report.radial_excess == [pytest.approx(
        (float(np.percentile(dists, 50)), float(np.percentile(dists, 95)), max(dists)))]


def _circle_log(spec, radius, sweep):
    """Hand-built log on spec's reference timing: t0 is the time spec.path
    reaches the loop's first point.  The tip rests at angle 0 on a circle
    about TUMOR's centre in the marking plane, sweeps `sweep` rad between
    t0 + 0.5 s and t0 + 1.5 s, then rests again until t0 + 3 s.  h is
    TUMOR's barrier value at x; every other column is zero."""
    t0 = spec.path[1][1] / spec.speed
    t = np.arange(round((t0 + 3.0) / spec.dt) + 1) * spec.dt
    angle = sweep * np.clip(t - t0 - 0.5, 0.0, 1.0)
    log = sim.TrajectoryLog(np.zeros((len(t), 31)), ["tumor0"])
    log.t[:] = t
    log.x[:] = TUMOR.center + radius * np.stack(
        [np.cos(angle), np.sin(angle), np.zeros_like(t)], axis=1)
    log.h[:, 0] = np.linalg.norm(log.x - TUMOR.center, axis=1) - TUMOR.margin
    return log


@pytest.mark.parametrize("radius, sweep, turns, excess", [
    (4.0, 2.0 * math.pi, 1.0, 0.0),    # a full circle at the margin
    (4.0, math.pi, 0.5, 0.0),          # half of it
    (4.0, -2.0 * math.pi, -1.0, 0.0),  # against the loop's direction
    (5.0, 2.0 * math.pi, 1.0, 1.0),    # 1 mm outside the margin
])
def test_cut_measures_on_hand_built_logs(radius, sweep, turns, excess):
    # the loop's window opens when the reference reaches its first point
    # (at t0) and ends after the log, 5.2 s of loop at 4 mm/s
    spec = _small_spec()
    report = sim.summarize(_circle_log(spec, radius, sweep), spec)
    assert report.enclosure_turns == [pytest.approx(turns, abs=1e-12)]
    assert report.radial_excess == [pytest.approx((excess,) * 3, abs=1e-12)]


def test_cut_measures_edge_cases_report_quietly(small_run):
    # a 2 s run ends before its 3.7 s approach; a loop through two opposite
    # margin points spans no plane.  Neither raises nor warns.
    spec, log = small_run
    flat = _small_spec(markings=[MarkingSet(TUMOR.center + [[4.0, 0, 0], [-4.0, 0, 0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        early = sim.summarize(log, spec)
        line = sim.summarize(_circle_log(flat, 4.0, 2.0 * math.pi), flat)
    assert early.enclosure_turns == [0.0]
    assert all(map(math.isnan, early.radial_excess[0]))
    assert math.isnan(line.enclosure_turns[0])
    assert line.radial_excess == [pytest.approx((0.0,) * 3, abs=1e-12)]


def test_gate_starts_disengaged_and_latches():
    spec = _small_spec(
        shells=[DepthShell(TUMOR.center, 7.0)],
        filter=FilterParams(alpha=1.5, activation_gate=True),
        initial_q=JointConfig(6.7, 0.0, 0.0),
        duration=2.5,
    )
    log = sim.run(spec)
    t_gate = sim.gate_engage_time(log)
    assert t_gate is not None and t_gate > 0.0
    k = int(np.nonzero(log.gate)[0][0])
    assert not log.gate[:k].any()
    assert log.gate[k:].all()
    # engagement requires every barrier non-negative at that step
    assert np.all(log.h[k] >= 0.0)
    report = sim.summarize(log, spec)
    assert min(report.min_h.values()) >= -1e-3


def test_disabled_filter_never_gates():
    spec = _small_spec(filter=FilterParams(alpha=0.4, enabled=False), duration=0.5)
    log = sim.run(spec)
    assert not log.gate.any()
    assert sim.gate_engage_time(log) is None
    np.testing.assert_array_equal(log.xdot_safe, log.xdot_des)


@pytest.mark.parametrize("enabled", [True, False])
def test_one_reference_per_run_and_one_barrier_evaluation_per_step(monkeypatch, enabled):
    spec = _small_spec(filter=FilterParams(alpha=0.4, enabled=enabled), duration=0.5)
    calls = {"reference": 0, "barriers": 0}
    reference, evaluate = sim.reference_rows, safety.selected_barrier_values

    def counted_reference(*args):
        calls["reference"] += 1
        return reference(*args)

    def counted_evaluate(*args):
        calls["barriers"] += 1
        return evaluate(*args)

    monkeypatch.setattr(sim, "reference_rows", counted_reference)
    monkeypatch.setattr(safety, "selected_barrier_values", counted_evaluate)
    log = sim.run(spec)
    assert calls == {"reference": 1, "barriers": len(log)}


@pytest.mark.parametrize("barrier", ["tumor0", "shell0"])
def test_tip_on_a_barrier_centre_fails_only_a_filter_row(barrier):
    # construction refuses a tip that starts on a centre, so the table is
    # swapped in afterwards; the tumor's h < 0 keeps the gate disengaged
    for enabled in (True, False):
        spec = _small_spec(filter=FilterParams(activation_gate=True, enabled=enabled),
                           duration=0.05)
        tip, _ = tip_kinematics(*spec.initial_q)
        if barrier == "tumor0":
            spec.safe_set, h0 = SafeSetSpec([TumorSpec(tip, 4.0)], []), -4.0
        else:
            spec.safe_set, h0 = SafeSetSpec([], [DepthShell(tip, 7.0)]), 7.0
        if enabled:
            with pytest.raises(safety.DegeneratePointError,
                               match=f"{barrier}: barrier gradient undefined"):
                sim.run(spec)
        else:
            log = sim.run(spec)
            assert log.h[0, 0] == h0 and not log.gate.any()


def test_csv_round_trip_exact(small_run, tmp_path):
    _, log = small_run
    path = tmp_path / "run.csv"
    sim.export_csv(log, path)
    back = sim.read_csv(path)
    for field in ("t", "q", "qdot", "x", "xdot", "xdot_des", "xdot_safe",
                  "u", "d", "edot", "h", "active_rows", "gate"):
        np.testing.assert_array_equal(getattr(log, field), getattr(back, field))
    # 30 columns plus one per barrier
    assert back.data.shape == log.data.shape == (len(log), 30 + len(log.barrier_names))
    assert back.data.tobytes() == log.data.tobytes()
    assert back.barrier_names == log.barrier_names
    second = tmp_path / "run2.csv"
    sim.export_csv(back, second)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.filterwarnings("error")
def test_read_csv_rejects_foreign_files(tmp_path):
    header = "# safecut-log v1\n" + ",".join(sim._csv_columns(["tumor0"])) + "\n"
    # a run logs at least its first step, so a log with no rows is damaged; numpy's
    # warning about it stays inside read_csv
    for name, text, message in (
            ("foreign", "t,x,y\n0,1,2\n", "not a safecut log"),
            ("wrong", "# safecut-log v1\nt_s,x_mm\n", "unexpected column layout"),
            ("header-only", header, "^no rows"),
            ("blank", header + "\n", "^no rows")):
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=message):
            sim.read_csv(tmp_path / name)


@pytest.mark.parametrize("damage", ["one row short, the next one long", "every row short"])
def test_read_csv_rejects_rows_of_the_wrong_length(small_run, tmp_path, damage):
    _, log = small_run
    path = tmp_path / "log.csv"
    sim.export_csv(log, path)
    version, header, *rows = path.read_text().splitlines(keepends=True)[:12]
    if damage == "every row short":
        rows = [row.rsplit(",", 1)[0] + "\n" for row in rows]
    else:
        # the field count of the body stays right, so a whole-body parse would realign
        rows[3] = rows[3].rsplit(",", 1)[0] + "\n"
        rows[4] = "0.0," + rows[4]
    path.write_text(version + header + "".join(rows))
    with pytest.raises(ValueError):
        sim.read_csv(path)


def test_log_fields_write_through_to_data(small_run):
    _, run_log = small_run
    log = sim.TrajectoryLog(run_log.data.copy(), run_log.barrier_names)
    before = log.data.copy()
    log.h[7, 0] += 1.0
    log.xdot_safe[9, 2] = -5.0
    log.active_rows[11] += 1.0
    log.gate[13] = 1.0 - log.gate[13]
    # h0 is the column after the 28 float columns, xdot_safe z is column 18,
    # and active_rows and gate are the last two columns
    assert np.argwhere(log.data != before).tolist() == [[7, 28], [9, 18], [11, 29], [13, 30]]


def test_export_plot_data_files(small_run, tmp_path):
    spec, log = small_run
    written = sim.export_plot_data(log, spec, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["scenario1_barrier.dat", "scenario1_path.dat",
                     "scenario1_velocity.dat"]
    text = (tmp_path / "scenario1_path.dat").read_text()
    for section in ("actual", "reference", "markings", "boundary"):
        assert f"# section: {section}" in text
    # boundary circle points reproduce the cutting margin exactly
    boundary = [line for line in text.splitlines() if line.startswith("tumor0 ")]
    assert len(boundary) == 256
    pts = np.array([[float(v) for v in line.split()[1:]] for line in boundary])
    radii = np.linalg.norm(pts - np.asarray(TUMOR.center), axis=1)
    np.testing.assert_allclose(radii, TUMOR.margin, atol=1e-9)
    # the reference section holds the path's waypoints with their times: the
    # start, each loop point and the loop's first point again.  Interpolated
    # on the run's grid it is the reference the run followed.
    assert len(_section(text, "reference")) == 5
    for sid in (1, 2, 3, 4):
        spec = replace(scenario_catalog(sid), duration=0.01)
        sim.export_plot_data(sim.run(spec), spec, tmp_path)
        rows = _section((tmp_path / f"scenario{sid}_path.dat").read_text(), "reference")
        assert rows.shape == (10, 4)
        t, pos, _ = _grid(*spec.path, spec.speed, spec.dt)
        interp = np.stack([np.interp(t, rows[:, 0], rows[:, i]) for i in (1, 2, 3)], axis=1)
        np.testing.assert_allclose(interp, pos, rtol=0.0, atol=1e-9)


def _section(text: str, name: str) -> np.ndarray:
    """The rows of one section of a path data file."""
    body = text.split(f"# section: {name} ", 1)[1].split("\n\n", 1)[0]
    return np.array([[float(v) for v in line.split()] for line in body.splitlines()[1:]])


def test_gate_that_never_engages_still_reports_the_tumor():
    # the tip starts outside the depth shell and the run ends before it
    # enters: the shell has no statistic, the tumor is watched from step 0
    spec = _small_spec(
        shells=[DepthShell(TUMOR.center, 7.0)],
        filter=FilterParams(alpha=1.5, activation_gate=True),
        initial_q=JointConfig(6.7, 0.0, 0.0),
        duration=0.2,
    )
    log = sim.run(spec)
    assert sim.gate_engage_time(log) is None
    assert float(log.h[:, 1].max()) < 0.0
    report = sim.summarize(log, spec)
    assert report.min_h == {"tumor0": float(log.h[:, 0].min()), "shell0": math.inf}
    assert report.min_h["tumor0"] == pytest.approx(4.294, abs=1e-3)
    assert report.first_violation_time is None


def test_gate_aware_summary_excludes_approach():
    spec = _small_spec(
        shells=[DepthShell(TUMOR.center, 7.0)],
        filter=FilterParams(alpha=1.5, activation_gate=True),
        initial_q=JointConfig(6.7, 0.0, 0.0),
        duration=2.5,
    )
    log = sim.run(spec)
    report = sim.summarize(log, spec)
    # the raw log starts outside the shell, the report starts at engagement
    assert float(log.h[0].min()) < 0.0
    assert report.min_h["shell0"] >= -1e-3
    assert report.first_violation_time is None


def test_logged_active_rows_match_row_builder(catalog_runs):
    # recount |N v_s - b| <= 1e-6 from the logged x and xdot_safe, with N and
    # b = -alpha h built in numpy from every barrier.  Scenario 3 has
    # two-row active sets; scenario 4's gate engages about a second in.
    for scenario_id, gated_from_start, most_active in ((3, True, 2), (4, False, 1)):
        spec, log, _ = catalog_runs[scenario_id]
        safe_set = spec.safe_set
        assert log.gate[0] == gated_from_start and log.gate[-1]
        recount = np.zeros(len(log), dtype=np.int64)
        for k in np.nonzero(log.gate)[0]:
            h, normals = safety.selected_barrier_values(log.x[k], safe_set, True)
            N = np.array(normals)
            b = -spec.filter.alpha * np.array(h)
            recount[k] = np.count_nonzero(np.abs(N @ log.xdot_safe[k] - b) <= 1e-6)
        assert recount.max() == most_active
        np.testing.assert_array_equal(log.active_rows, recount)


@pytest.mark.parametrize("alpha", [0.4, 0.8])
def test_gated_steps_meet_the_farther_barrier_row(alpha):
    # below scenario 4's catalog alpha the tip nears the shell while the
    # tumor's row still binds; every barrier is a row, so on each
    # gated step the logged safe velocity meets the tumor's and the shell's
    base = scenario_catalog(4)
    spec = replace(base, filter=replace(base.filter, alpha=alpha))
    log = sim.run(spec)
    safe_set = spec.safe_set
    gated = np.nonzero(log.gate)[0]
    v = log.xdot_safe[gated]
    tol = 1e-9 * np.maximum(1.0, np.linalg.norm(v, axis=1))
    assert safe_set.names == ["tumor0", "shell0"] and gated.size > 10000
    for b, (*center, _, sign) in enumerate(safe_set.barriers):
        offset = log.x[gated] - center
        normal = sign * offset / np.linalg.norm(offset, axis=1)[:, None]
        slack = np.einsum("ij,ij->i", normal, v) + alpha * log.h[gated, b]
        assert np.count_nonzero(slack < -tol) == 0, safe_set.names[b]


@pytest.mark.parametrize("override", [
    dict(k_d=1e6),
    dict(dt=0.005),
    dict(k_d=3e5, duration=1.0),
    dict(dt=0.01, duration=1.0),
    # a stage angle overflows to inf within one interval, where math.cos raises
    dict(dynamics=DynamicParams(masses=(1e-100, 1e-100, 1e-100), gravity=(0.0, 0.0, 0.0))),
])
def test_diverged_plant_raises_with_last_finite_state(override):
    spec = replace(scenario_catalog(1), **{"duration": 0.05, **override})
    with pytest.raises(sim.PlantDivergedError, match="plant diverged") as err:
        sim.run(spec)
    exc = err.value
    assert 0 < exc.step < round(spec.duration / spec.dt)
    assert exc.t == exc.step * spec.dt
    assert np.all(np.isfinite(exc.q + exc.qdot))
    # only the light plant's angle reaches inf inside a step, where math.cos raises
    assert isinstance(exc.__cause__, ValueError) == ("dynamics" in override)


def test_nan_stage_angle_is_named_plant_diverged(monkeypatch):
    # a nan input makes the second RK4 stage's angles nan; forward_dynamics passes them
    # through without raising, and the finiteness test names the step
    monkeypatch.setattr(control, "control_law", lambda edot, k_d: (0.0, math.nan, 0.0))
    with pytest.raises(sim.PlantDivergedError, match="plant diverged: the joint state stopped "
                       "being finite after step 0 ") as err:
        sim.run(replace(scenario_catalog(1), duration=0.05))
    assert err.value.__cause__ is None and err.value.q == scenario_catalog(1).initial_q

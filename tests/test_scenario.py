"""Marking geometry, reference construction, catalog and config files."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from safecut import scenario, sim
from safecut.checks import mass_matrix
from safecut.dynamics import DynamicParams
from safecut.kinematics import L1, L2, L_END, WORKSPACE_MM, JointConfig, tip_kinematics
from safecut.safety import DepthShell, SafeSetSpec, TumorSpec, selected_barrier_values
from safecut.scenario import (SCENARIO_IDS, MarkingSet, ScenarioSpec,
                              generate_marking_points, inject_unsafe_points,
                              load_scenario, parse_config, reference_rows,
                              reference_steps, reference_waypoints, scenario_catalog,
                              scenario_to_config, spec_from_dict, spec_to_dict)

TUMOR = TumorSpec(center=(0.0, 6.0, 30.0), margin=4.0)


def _reference(markings, approach_from, speed=2.0, dt=1e-3):
    """Positions and feedforward velocities of the reference rows up to the path's end."""
    waypoints, arcs = reference_waypoints(markings, approach_from)
    rows = list(islice(reference_rows(waypoints, arcs, speed, dt),
                       reference_steps(float(arcs[-1]), speed, dt) + 1))
    return np.array([p for p, _ in rows]), np.array([v for _, v in rows])


def test_markings_on_margin_circle():
    ms = generate_marking_points(TUMOR, 8, (0, 0, 1))
    assert ms.points.shape == (8, 3)
    radii = np.linalg.norm(ms.points - TUMOR.center, axis=1)
    np.testing.assert_allclose(radii, 4.0, atol=1e-12)
    np.testing.assert_allclose(ms.points[:, 2], 30.0, atol=1e-12)
    # the spec that holds a loop derives its unsafe flags; a loop alone has none
    assert ms.unsafe is None


def test_markings_counterclockwise_from_x():
    ms = generate_marking_points(TUMOR, 8, (0, 0, 1))
    np.testing.assert_allclose(ms.points[0], [4.0, 6.0, 30.0], atol=1e-12)
    rel = ms.points - TUMOR.center
    angles = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    np.testing.assert_allclose(np.diff(angles), math.pi / 4, atol=1e-12)


def test_marking_plane_normal_parallel_to_x():
    ms = generate_marking_points(TUMOR, 4, (1, 0, 0))
    np.testing.assert_allclose(ms.points[:, 0], 0.0, atol=1e-12)


def test_marking_validation():
    with pytest.raises(ValueError):
        generate_marking_points(TUMOR, 0, (0, 0, 1))
    with pytest.raises(ValueError):
        generate_marking_points(TUMOR, 4, (0, 0, 0))
    with pytest.raises(ValueError):
        MarkingSet(np.zeros((0, 3)))
    # three 2-D points, not to be regrouped into two 3-D ones
    with pytest.raises(ValueError, match=r"rows of 3 coordinates, got shape \(3, 2\)"):
        MarkingSet([[1, 2], [3, 4], [5, 6]])


def test_inject_unsafe_points_radial():
    ms = generate_marking_points(TUMOR, 8, (0, 0, 1))
    out = inject_unsafe_points(ms, [(2, TUMOR, 1.5)])
    h, _ = selected_barrier_values(out.points[2], SafeSetSpec([TUMOR], []), 0)
    assert h[0] == pytest.approx(-1.5)
    # catalog 1's one tumor is TUMOR: the spec holding the loop reads the moved point unsafe
    held = replace(scenario_catalog(1), markings=[out]).markings[0]
    assert held.unsafe.tolist() == [k == 2 for k in range(8)]
    # untouched points and the original set stay as they were
    np.testing.assert_array_equal(out.points[3], ms.points[3])
    np.testing.assert_array_equal(ms.points, generate_marking_points(TUMOR, 8, (0, 0, 1)).points)
    # direction preserved
    rel = out.points[2] - TUMOR.center
    rel0 = ms.points[2] - TUMOR.center
    np.testing.assert_allclose(rel / np.linalg.norm(rel), rel0 / np.linalg.norm(rel0),
                               atol=1e-12)


def test_unsafe_flags_are_the_geometry():
    assert scenario_catalog(3).markings[0].unsafe.tolist() == [k in (2, 4, 6) for k in range(8)]
    # the crease: tumor.1 moved to a gap of -2 mm, so margin point 6 of tumor 0, (0, 2, 30),
    # lies 2 mm inside tumor.1's keep-out sphere.  On its own margin, it still intrudes
    loop = generate_marking_points(TUMOR, 8, (0, 0, 1))
    crease = replace(scenario_catalog(3), tumors=[TUMOR, TumorSpec((0.0, 0.0, 30.0), 4.0)],
                     markings=[loop])
    h, _ = selected_barrier_values(crease.markings[0].points[6], crease.safe_set, False)
    assert abs(h[0]) <= 1e-9 and h[1] == pytest.approx(-2.0)
    assert crease.markings[0].unsafe.tolist() == [k == 6 for k in range(8)]
    # with no tumor no point intrudes
    assert not replace(scenario_catalog(1), tumors=[]).markings[0].unsafe.any()


def test_a_spec_writes_flags_only_to_its_own_loops():
    spec = scenario_catalog(1)
    loop = spec.markings[0]
    # a second tumor that holds point 0 of tumor 0's margin, at (4, 6, 30), 0.5 mm deep
    moved = replace(spec, tumors=[*spec.tumors, TumorSpec((8.0, 6.0, 30.0), 4.5)])
    assert moved.markings[0] is not loop
    assert moved.markings[0].unsafe.tolist() == [k in (0, 2, 5) for k in range(8)]
    assert loop.unsafe.tolist() == [k in (2, 5) for k in range(8)]
    # the loop a caller passes in gets no flags written to it
    given = generate_marking_points(TUMOR, 8, (0, 0, 1))
    replace(spec, markings=[given])
    assert given.unsafe is None


# a write would skip construction's checks and leave safe_set, path, steps and the
# flags stale, so each raises; replace builds a new spec, and checks it again
SPEC_CHANGES = [
    ("spec.duration = 0.01", dataclasses.FrozenInstanceError, "'duration'"),
    ("spec.filter.alpha = -1.0", dataclasses.FrozenInstanceError, "'alpha'"),
    ("spec.disturbance.seed = 3", dataclasses.FrozenInstanceError, "'seed'"),
    ("spec.tumors[0].center[1] = 0.0", ValueError, "read-only"),
    ("spec.markings[0].points[0, 0] = 1.0", ValueError, "read-only"),
    ("spec.markings[0].unsafe[0] = True", ValueError, "read-only"),
    ("spec.tumors.append(TumorSpec((0.0, -6.0, 30.0), 4.0))", AttributeError, "append"),
    ("replace(spec, dt=-1.0)", ValueError, "^dt must be positive and finite, got -1.0"),
    ("replace(spec.filter, alpha=-1.0)", ValueError, "^alpha must be positive and finite"),
]


@pytest.mark.parametrize("change, error, message", SPEC_CHANGES)
def test_a_spec_changes_only_by_a_checked_replace(change, error, message):
    spec = scenario_catalog(1)
    with pytest.raises(error, match=message):
        exec(change, {"spec": spec, "replace": replace, "TumorSpec": TumorSpec})
    assert spec_to_dict(spec) == spec_to_dict(scenario_catalog(1))
    assert spec.markings[0].unsafe.tolist() == [k in (2, 5) for k in range(8)]


def test_inject_validation():
    ms = generate_marking_points(TUMOR, 4, (0, 0, 1))
    with pytest.raises(ValueError):
        inject_unsafe_points(ms, [(9, TUMOR, 1.0)])
    with pytest.raises(ValueError):
        inject_unsafe_points(ms, [(0, TUMOR, 0.0)])
    with pytest.raises(ValueError):
        inject_unsafe_points(ms, [(0, TUMOR, 4.0)])


def test_reference_constant_speed():
    ms = generate_marking_points(TUMOR, 8, (0, 0, 1))
    pos, vel = _reference([ms], (0.0, 0.0, 43.0))
    steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    # arc length advances by speed * dt every step; the Euclidean chord only
    # falls short on the 8 corner-straddling steps and the final one
    assert np.all(steps <= 2e-3 + 1e-12)
    assert int((steps < 2e-3 - 1e-9).sum()) <= 9
    np.testing.assert_allclose(np.linalg.norm(vel, axis=1), 2.0, atol=1e-9)
    np.testing.assert_allclose(pos[0], [0.0, 0.0, 43.0], atol=1e-12)
    np.testing.assert_allclose(pos[-1], ms.points[0], atol=1e-9)


def test_reference_closes_each_loop():
    ms = generate_marking_points(TUMOR, 8, (0, 0, 1))
    pos, _ = _reference([ms], (0.0, 0.0, 43.0))
    approach = float(np.linalg.norm(ms.points[0] - np.array([0.0, 0.0, 43.0])))
    loop = 8 * float(np.linalg.norm(ms.points[1] - ms.points[0]))
    assert (len(pos) - 1) * 1e-3 * 2.0 == pytest.approx(approach + loop, abs=2e-3 * 2.0)


@pytest.mark.parametrize("offset", [0.0, 1e-13])
def test_reference_drops_zero_length_segments(offset):
    # an approach that starts on the loop's first point has no length
    ms = generate_marking_points(TUMOR, 8, (0, 0, 1))
    pos, vel = _reference([ms], ms.points[0] + [offset, 0.0, 0.0])
    assert np.isfinite(pos).all() and np.isfinite(vel).all()
    np.testing.assert_allclose(pos[0], ms.points[0], atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(vel, axis=1), 2.0, atol=1e-9)
    loop = 8 * float(np.linalg.norm(ms.points[1] - ms.points[0]))
    assert (len(pos) - 1) * 1e-3 * 2.0 == pytest.approx(loop, abs=2e-3 * 2.0)


def test_catalog_ids_and_geometry():
    for sid in SCENARIO_IDS:
        spec = scenario_catalog(sid)
        assert spec.scenario_id == sid
        spec.validate()
    with pytest.raises(ValueError):
        scenario_catalog(7)
    s2 = scenario_catalog(2)
    # the preserved tumor's intruded point sits 1.5 mm deep on the y axis
    bad = s2.markings[0].points[6]
    np.testing.assert_allclose(bad, [0.0, -3.5, 30.0], atol=1e-9)
    s4 = scenario_catalog(4)
    assert s4.filter.activation_gate and s4.filter.alpha == 1.5
    assert s4.shells[0].outer_radius == 7.0


def test_catalog_initial_tip_positions():
    for sid in (1, 2, 3):
        spec = scenario_catalog(sid)
        tip, _ = tip_kinematics(*spec.initial_q)
        np.testing.assert_allclose(tip, [0.0, 0.0, 43.0], atol=1e-12)
    s4 = scenario_catalog(4)
    tip, _ = tip_kinematics(*s4.initial_q)
    np.testing.assert_allclose(tip, [0.0, 0.0, 36.7], atol=1e-12)
    # outside the depth shell, so the gate starts disengaged
    assert math.dist(tip, s4.shells[0].center) > s4.shells[0].outer_radius


def test_validate_rejects_bad_geometry():
    spec = scenario_catalog(1)
    # bend the tip onto the tumor centre: y = -L_END sin(theta3), z via d1
    theta3 = math.asin(-6.0 / L_END)
    d1 = 30.0 - L1 - (L2 + L_END * math.cos(theta3))
    tip, _ = tip_kinematics(d1, 0.0, theta3)
    assert selected_barrier_values(tip, spec.safe_set, 0)[0][0] < 0.0
    # construction is the gate: each replace below raises before a spec exists
    with pytest.raises(ValueError, match="tumor.0: keep-out sphere holds the initial tip placed "
                                         "by initial.d1, initial.theta2, initial.theta3"):
        replace(spec, initial_q=JointConfig(d1, 0.0, theta3))
    with pytest.raises(ValueError, match="marking.0 point 0 intrudes no keep-out sphere and "
                                         "lies off the cutting margin of tumor.0"):
        replace(spec, markings=[MarkingSet(spec.markings[0].points + 0.5)])
    with pytest.raises(ValueError, match="at least one marking set"):
        replace(spec, markings=[])
    s4 = scenario_catalog(4)
    with pytest.raises(ValueError, match="shell.0: depth shell holds the centre of tumor.0"):
        replace(s4, shells=[DepthShell(s4.shells[0].center, 3.0)])


def test_duration_override():
    spec = scenario_catalog(1)
    _, arcs = spec.path
    # the path's time at speed, rounded up to the dt grid, plus settle, and the t = 0 row
    assert 0.0 <= (spec.steps - 1) * spec.dt - (arcs[-1] / spec.speed + spec.settle) < spec.dt
    fixed = replace(spec, duration=3.0)
    assert fixed.steps == 3001
    assert len(sim.run(fixed)) == 3001


def test_one_path_per_spec(monkeypatch):
    calls = []
    place = scenario.reference_waypoints
    monkeypatch.setattr(scenario, "reference_waypoints",
                        lambda *args: calls.append(1) or place(*args))
    spec = scenario_catalog(1)
    assert len(calls) == 1
    # replace constructs a new spec, which places its own path
    fixed = replace(spec, duration=0.05)
    assert len(calls) == 2
    # the step count, the validation and the run read the path built at construction
    spec.validate()
    assert len(sim.run(spec)) == 20252
    sim.run(fixed)
    assert len(calls) == 2


@pytest.mark.parametrize("sid, steps", [(1, 20252), (2, 24865), (3, 24437), (4, 17741)])
def test_run_step_counts(sid, steps):
    # the reference's end on the dt grid plus 1 s of settling, and the t = 0 step
    spec = scenario_catalog(sid)
    assert spec.steps == steps


def test_config_round_trip():
    for sid in SCENARIO_IDS:
        spec = scenario_catalog(sid)
        text = scenario_to_config(spec)
        back = load_scenario(text)
        assert spec_to_dict(back) == spec_to_dict(spec)


def test_specs_compare_without_raising():
    # numpy geometry has no one truth value, so a spec compares by identity
    a, b = scenario_catalog(1), scenario_catalog(1)
    assert a == a and a != b
    assert spec_to_dict(a) == spec_to_dict(b)


def test_config_override_merges_onto_catalog():
    text = "scenario_id = 1\nfilter.alpha = 0.9\nspeed = 3.5\n"
    spec = load_scenario(text)
    assert spec.filter.alpha == 0.9
    assert spec.speed == 3.5
    base = scenario_catalog(1)
    np.testing.assert_array_equal(spec.markings[0].points, base.markings[0].points)
    # a loop's points alone, even to another count: the unsafe flags follow the geometry
    spec = load_scenario("scenario_id = 1\n"
                         "marking.0.points = 4, 6, 30; 0, 10, 30; -4, 6, 30; 0, 2, 30\n")
    assert spec.markings[0].unsafe.tolist() == [False] * 4


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        load_scenario("scenario_id = 1\nfilter.beta = 2\n")


def test_parse_config_comments_and_blanks():
    d = parse_config("# comment\n\nspeed = 2.5\n dt = 0.002 # trailing\n")
    assert d == {"speed": "2.5", "dt": "0.002"}


def test_spec_dict_round_trip_preserves_auto_duration():
    spec = scenario_catalog(1)
    d = spec_to_dict(spec)
    assert d["duration"] == "auto"
    back = spec_from_dict(d)
    assert back.duration is None


@pytest.mark.parametrize("name", ["dt", "speed", "settle", "duration"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_timing_parameters_rejected_by_name(name, value):
    # duration = -1 used to reach the log allocation and fail there
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        replace(scenario_catalog(1), **{name: value})


# site -> the object built with one length or coordinate set to the value
WORKSPACE_SITES = {
    "tumor centre": lambda v: TumorSpec((0.0, 0.0, v), 4.0),
    "margin": lambda v: TumorSpec((0.0, 6.0, 30.0), v),
    "shell centre": lambda v: DepthShell((-v, 0.0, 0.0), 7.0),
    "outer radius": lambda v: DepthShell((0.0, 6.0, 30.0), v),
    "marking point": lambda v: MarkingSet([(0.0, 6.0, 30.0), (0.0, v, 30.0)]),
}


@pytest.mark.parametrize("site", list(WORKSPACE_SITES))
def test_workspace_bound_is_checked_where_each_value_is_built(site):
    build = WORKSPACE_SITES[site]
    build(WORKSPACE_MM)
    for value in (math.nextafter(WORKSPACE_MM, math.inf), math.nan):
        with pytest.raises(ValueError, match=r"at most 1e\+06 mm"):
            build(value)


def _leaves(cls, prefix=""):
    """Attribute paths of the init fields of a dataclass, nested ones expanded.

    A NamedTuple field expands to its _fields.
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.init:
            kind = hints[f.name]
            if dataclasses.is_dataclass(kind):
                yield from _leaves(kind, f"{prefix}{f.name}.")
            elif hasattr(kind, "_fields"):
                yield from (f"{prefix}{f.name}.{name}" for name in kind._fields)
            else:
                yield prefix + f.name


def test_config_keys_cover_every_spec_field_once():
    families = {attr: (cls, keys) for attr, cls, keys in scenario._FAMILIES.values()}
    leaves = list(_leaves(ScenarioSpec))
    assert set(families) <= set(leaves)
    paths = [path for path, _ in scenario._SCALAR_KEYS.values()]
    # sorted lists, not sets: a leaf named by two keys is a failure too
    assert sorted(paths) == sorted(leaf for leaf in leaves if leaf not in families)
    for cls, keys in families.values():
        assert sorted(arg for arg, _ in keys.values()) == sorted(_leaves(cls))


# every scalar key, each off its catalog value, written in canonical form
NON_DEFAULT = {
    "scenario_id": "3", "dt": "0.0005", "speed": "2.5", "settle": "0.75", "duration": "12.25",
    "initial.d1": "12.5", "initial.theta2": "0.125", "initial.theta3": "-0.25",
    "dynamics.masses": "2.5, 1.25, 0.75", "dynamics.link_inertias": "2.5, 1.5",
    "dynamics.gravity": "1.0, -2.0, -9000.0",
    "filter.alpha": "0.9", "filter.activation_gate": "true", "filter.enabled": "false",
    "controller.k_d": "7000.0",
    "disturbance.waveform": "sinusoid", "disturbance.amplitude": "1.5, -2.5, 3.5",
    "disturbance.frequency": "1.75", "disturbance.seed": "17",
}


def test_config_round_trip_of_non_default_values():
    assert set(NON_DEFAULT) == set(scenario._SCALAR_KEYS)
    base = spec_to_dict(scenario_catalog(1))
    assert all(base[key] != value for key, value in NON_DEFAULT.items())
    text = "".join(f"{key} = {value}\n" for key, value in NON_DEFAULT.items())
    back = spec_to_dict(load_scenario(scenario_to_config(load_scenario(text))))
    assert {key: back[key] for key in NON_DEFAULT} == NON_DEFAULT


def test_link_lengths_held_once():
    # kinematics holds the instrument's lengths: the tip the controller reads and the
    # plant's mass matrix both use them, and no config key sets them
    assert tip_kinematics(0.0, 0.0, 0.0)[0] == (0.0, 0.0, L1 + L2 + L_END)
    params = DynamicParams()
    q = JointConfig(13.0, 0.3, 0.2)
    _, m2, m3 = params.masses
    a = L2 + L_END * math.cos(q.theta3)
    expected = m2 * L2 ** 2 + m3 * a * a + params.link_inertias[0]
    assert mass_matrix(q, params)[1, 1] == pytest.approx(expected, rel=1e-12)
    assert not [key for key in spec_to_dict(scenario_catalog(1)) if key.startswith("kinematics")]

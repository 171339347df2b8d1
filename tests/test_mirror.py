"""Whole-loop mirror relations: exact symmetries of the arm and the catalog.

Negating x of every tumor, shell and marking point and the initial theta2
mirrors the arm's motion in the plane x = 0; negating y and theta3 mirrors it
in y = 0.  With no gravity and no disturbance along the mirrored axis, the
closed loop (reference, barrier rows, filter, controller, plant) keeps either
symmetry bit for bit, so each mirrored run's log is the original's with the
mirrored axis and joint negated.  No oracle code is involved: a sign slip in
the Jacobian, the plant or the loop's wiring breaks the relation.  Besides
catalog 1-4 the mirrors take a seeded spec whose run breaches a keep-out
sphere, so the relation does not rest on a safe run.

Shifting every tumor, shell and marking point and the initial d1 by delta
along z translates the whole loop along the prismatic axis.  Each shifted z
rounds differently, so that relation holds to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from safecut import sim
from safecut.safety import DepthShell, TumorSpec
from safecut.scenario import MarkingSet, load_scenario

# mirror -> (the Cartesian axis it negates, the joint that moves the tip along it)
MIRRORS = {"x": (0, 1), "y": (1, 2)}
CARTESIAN = ("x", "xdot", "xdot_des", "xdot_safe")
JOINT = ("q", "qdot", "u", "d", "edot")
# z-shift tolerances, with margin over the worst of catalog 1-4 at delta = 0.1, 0.5 and
# 4 mm: h differs by a few ulps of a z near 40 mm (7.1e-15 each), 4.4e-14 mm measured;
# u is k_d times a velocity error of that rounding, 2.3e-9 measured against a peak |u| of
# 17,378 g mm/s^2, so it is bounded relative to each joint's peak |u| (1.3e-13 measured)
Z_SHIFT_H_TOL_MM = 1e-12
Z_SHIFT_U_TOL = 1e-11

# the benchmark's seeded variant of catalog 2 for seed 101, bench/worker.seeded_specs(101,
# 10.0)[1], as its saved config: alpha 0.2, 2.96 mm/s, point 6 pushed inside tumor.0.  Its
# run breaches tumor.0 (min h -0.0473 mm), a known controller defect
BREACH = "seed-101-breach"
BREACH_CONFIG = (
    "# safecut scenario config v1\nscenario_id = 2\ndt = 0.001\nspeed = 2.9597652219493407\n"
    "settle = 1.0\nduration = 10.0\ninitial.d1 = 13.0\ninitial.theta2 = 0.0\n"
    "initial.theta3 = 0.0\ndynamics.masses = 2.0, 1.5, 1.0\ndynamics.link_inertias = 2.0, 1.0\n"
    "dynamics.gravity = 0.0, 0.0, 0.0\nfilter.alpha = 0.2\nfilter.activation_gate = false\n"
    "filter.enabled = true\ncontroller.k_d = 8000.0\ndisturbance.waveform = none\n"
    "disturbance.amplitude = 0.0, 0.0, 0.0\ndisturbance.frequency = 0.0\ndisturbance.seed = 0\n"
    "tumor.0.center = 0.0, 6.0, 30.0\ntumor.0.margin = 4.0\ntumor.1.center = 0.0, -6.0, 30.0\n"
    "tumor.1.margin = 4.0\nmarking.0.tumor = 0\n"
    "marking.0.points = 4.0, 6.0, 30.0; 2.8284271247461903, 8.82842712474619, 30.0; "
    "2.4492935982947064e-16, 10.0, 30.0; -2.82842712474619, 8.82842712474619, 30.0; "
    "-4.0, 6.000000000000001, 30.0; -2.8284271247461907, 3.17157287525381, 30.0; "
    "-4.741155192489025e-16, 3.4190353246938887, 30.0; "
    "2.8284271247461894, 3.1715728752538093, 30.0\n")


@pytest.fixture(scope="module")
def breach_run():
    spec = load_scenario(BREACH_CONFIG)
    return spec, sim.run(spec)


def mirrored(spec, axis: int, joint: int):
    """spec with the axis of every point and the joint's initial angle negated."""
    flip = np.ones(3)
    flip[axis] = -1.0
    name = spec.initial_q._fields[joint]
    return replace(
        spec,
        tumors=[TumorSpec(t.center * flip, t.margin) for t in spec.tumors],
        shells=[DepthShell(s.center * flip, s.outer_radius) for s in spec.shells],
        markings=[MarkingSet(m.points * flip, m.tumor_index) for m in spec.markings],
        initial_q=spec.initial_q._replace(**{name: -getattr(spec.initial_q, name)}))


def z_shifted(spec, delta: float):
    """spec with every tumor, shell and marking point and the initial d1 moved delta along z."""
    shift = np.array([0.0, 0.0, delta])
    return replace(
        spec,
        tumors=[TumorSpec(t.center + shift, t.margin) for t in spec.tumors],
        shells=[DepthShell(s.center + shift, s.outer_radius) for s in spec.shells],
        markings=[MarkingSet(m.points + shift, m.tumor_index) for m in spec.markings],
        initial_q=spec.initial_q._replace(d1=spec.initial_q.d1 + delta))


@pytest.mark.parametrize("mirror", sorted(MIRRORS))
@pytest.mark.parametrize("sid", [1, 2, 3, 4, BREACH])
def test_mirrored_catalog_run_is_the_mirrored_log(catalog_runs, breach_run, sid, mirror):
    axis, joint = MIRRORS[mirror]
    spec, log = breach_run if sid == BREACH else catalog_runs[sid][:2]
    # the relation holds with nothing acting along the mirrored axis or joint
    assert spec.dynamics.gravity[axis] == 0.0 and spec.disturbance.waveform == "none"
    image = sim.run(mirrored(spec, axis, joint))
    negated = {sim._COLUMNS[f][axis] for f in CARTESIAN} | {sim._COLUMNS[f][joint] for f in JOINT}
    sign = np.array([-1.0 if c in negated else 1.0 for c in sim._csv_columns(log.barrier_names)])
    expected = log.data * sign
    # array_equal: -0.0 equals 0.0, so a zero that only changes sign is no difference
    differing = np.count_nonzero(image.data != expected)
    assert image.barrier_names == log.barrier_names
    assert np.array_equal(image.data, expected), f"{differing} values differ"


@pytest.mark.parametrize("delta", [0.1, 0.5, 4.0])
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_z_shifted_catalog_run_keeps_its_rows_and_barriers(catalog_runs, sid, delta):
    spec, log, _ = catalog_runs[sid]
    # the relation holds with no gravity and no disturbance: neither moves with the arm
    assert spec.dynamics.gravity == (0.0, 0.0, 0.0) and spec.disturbance.waveform == "none"
    image = sim.run(z_shifted(spec, delta))
    assert len(image) == len(log)
    assert np.array_equal(image.active_rows, log.active_rows)
    assert np.abs(image.h - log.h).max() <= Z_SHIFT_H_TOL_MM
    assert np.all(np.abs(image.u - log.u) <= Z_SHIFT_U_TOL * np.abs(log.u).max(axis=0))

"""Whole-loop mirror relations: exact symmetries of the arm and the catalog.

Negating x of every tumor, shell and marking point and the initial theta2
mirrors the arm's motion in the plane x = 0; negating y and theta3 mirrors it
in y = 0.  With no gravity and no disturbance along the mirrored axis, the
closed loop (reference, barrier rows, filter, controller, plant) keeps either
symmetry bit for bit, so each mirrored run's log is the original's with the
mirrored axis and joint negated.  No oracle code is involved: a sign slip in
the Jacobian, the plant or the loop's wiring breaks the relation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from safecut import sim
from safecut.safety import DepthShell, TumorSpec
from safecut.scenario import MarkingSet, scenario_catalog

# mirror -> (the Cartesian axis it negates, the joint that moves the tip along it)
MIRRORS = {"x": (0, 1), "y": (1, 2)}
CARTESIAN = ("x", "xdot", "xdot_des", "xdot_safe")
JOINT = ("q", "qdot", "u", "d", "edot")


def mirrored(spec, axis: int, joint: int):
    """spec with the axis of every point and the joint's initial angle negated."""
    flip = np.ones(3)
    flip[axis] = -1.0
    name = spec.initial_q._fields[joint]
    return replace(
        spec,
        tumors=[TumorSpec(t.center * flip, t.margin) for t in spec.tumors],
        shells=[DepthShell(s.center * flip, s.outer_radius) for s in spec.shells],
        markings=[MarkingSet(m.points * flip, m.unsafe, m.tumor_index) for m in spec.markings],
        initial_q=spec.initial_q._replace(**{name: -getattr(spec.initial_q, name)}))


@pytest.mark.parametrize("mirror", sorted(MIRRORS))
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_mirrored_catalog_run_is_the_mirrored_log(sid, mirror):
    axis, joint = MIRRORS[mirror]
    spec = scenario_catalog(sid)
    # the relation holds with nothing acting along the mirrored axis or joint
    assert spec.dynamics.gravity[axis] == 0.0 and spec.disturbance.waveform == "none"
    assert spec.initial_qdot[joint] == 0.0
    log = sim.run(spec)
    image = sim.run(mirrored(spec, axis, joint))
    negated = {sim._COLUMNS[f][axis] for f in CARTESIAN} | {sim._COLUMNS[f][joint] for f in JOINT}
    sign = np.array([-1.0 if c in negated else 1.0 for c in sim._csv_columns(log.barrier_names)])
    expected = log.data * sign
    # array_equal: -0.0 equals 0.0, so a zero that only changes sign is no difference
    differing = np.count_nonzero(image.data != expected)
    assert image.barrier_names == log.barrier_names
    assert np.array_equal(image.data, expected), f"{differing} values differ"
